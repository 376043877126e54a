"""Parametric start densities: fitting and clipped evaluation.

The corrected estimator divides by the start density at every data point, so
an evaluation that can dip arbitrarily close to zero makes lonely far-out
points wildly influential.  The clip rule replaces the density outside a
central region by its boundary value: for the normal family the region is
|x - mu| < c*sigma (default c = 2.5), and the other families use the
matching quantile region Phi(-c)..Phi(c) of the fitted distribution so the
normal case is reproduced exactly.  Clipped evaluation therefore equals the
raw density inside the region and is bounded below by a positive floor on
any compact set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .densities import NormalMixture, mixture_moments, mixture_pdf
from .kernels import SQRT_2PI
from .special import _LOG_2PI, _lgam1p, _stirling, gamma_quantile, ndtr

__all__ = ["FittedStart", "fit_start", "em_fit_mixture", "eval_start", "FAMILIES"]

FAMILIES = ("constant", "normal", "lognormal", "gamma", "normal_mixture")

# EM stopping rule and restart budget
EM_MAX_ITER = 200
EM_TOL = 1e-8
EM_RESTARTS = 5

_LOG_SQRT_2PI = float(np.log(SQRT_2PI))


@dataclass(frozen=True, eq=False)
class FittedStart:
    """A start family with fitted parameters and an optional clip threshold.

    clip is in standard (quantile) units; None disables clipping entirely.
    floor is built with the start: the clip edges and the density at each,
    (lo, hi, f(lo), f(hi)), or None when nothing is clipped.
    """

    family: str
    params: dict[str, Any] = field(default_factory=dict)
    clip: float | None = 2.5
    floor: tuple[float, float, float, float] | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unsupported start family: {self.family!r}")
        if self.clip is not None and self.clip <= 0:
            raise ValueError("clip threshold must be positive")
        floor = None
        if self.clip is not None and self.family != "constant":
            lo, hi = _clip_edges(self)
            floor = (lo, hi, float(_raw_pdf(self, np.array([lo]))[0]),
                     float(_raw_pdf(self, np.array([hi]))[0]))
        object.__setattr__(self, "floor", floor)

    def unclipped(self) -> "FittedStart":
        return replace(self, clip=None)


def _require_finite(x: np.ndarray, what: str = "data value") -> None:
    """Reject NaN and infinite values, naming what they are and the first one's index.

    A matrix's index is its row and column, as in "index 3, 1"; a 0-d value
    has none.
    """
    bad = ~np.isfinite(x)
    if np.any(bad):
        at = np.unravel_index(int(np.argmax(bad)), x.shape)
        where = f" at index {', '.join(map(str, at))}" if at else ""
        raise ValueError(f"{what}{where} is not finite ({float(x[at])!r})")


def _as_clean_sample(data, positive: bool = False) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    _require_finite(x)
    if x.size < 2:
        raise ValueError("need at least 2 observations to fit a start")
    if positive and np.any(x <= 0):
        raise ValueError("this start family requires strictly positive data")
    return x


def fit_start(family: str, data) -> FittedStart:
    """Fit a start by the family's standard cheap estimator.

    normal and lognormal use mean / maximum-likelihood variance (n in the
    denominator, on the log scale for lognormal); gamma uses moment
    estimates alpha = m^2/v, beta = m/v; constant has no parameters.
    """
    if family == "constant":
        return FittedStart("constant")
    if family == "normal":
        x = _as_clean_sample(data)
        mu, sd = float(x.mean()), float(x.std())
        if sd == 0.0:
            raise ValueError("sample variance is zero")
        return FittedStart("normal", {"mu": mu, "sd": sd})
    if family == "lognormal":
        x = np.log(_as_clean_sample(data, positive=True))
        mu, sd = float(x.mean()), float(x.std())
        if sd == 0.0:
            raise ValueError("sample variance is zero")
        return FittedStart("lognormal", {"mu": mu, "sd": sd})
    if family == "gamma":
        x = _as_clean_sample(data, positive=True)
        m, v = float(x.mean()), float(x.var())
        if v == 0.0:
            raise ValueError("sample variance is zero")
        return FittedStart("gamma", {"alpha": m * m / v, "beta": m / v})
    if family == "normal_mixture":
        raise ValueError("use em_fit_mixture for the normal_mixture family")
    raise ValueError(f"unsupported start family: {family!r}")


def _em_once(x: np.ndarray, k: int,
             rng: np.random.Generator) -> tuple[dict | None, bool]:
    """One seeded EM run: (params, decreased).

    params holds the mixture, the iterations run and whether the last one
    gained less than EM_TOL (converged), as the fitted start takes them.
    It is None when a component collapsed, or when the log-likelihood
    decreased between iterations, which EM never does in exact arithmetic;
    decreased tells the two apart.  Each component has one
    contiguous row of n values in two (k, n) buffers, and every E and M step
    runs in place: dev holds x - mu_j and then the log-density terms; resp
    the shifted exponentials, the responsibilities and then the weighted
    squared deviations.
    """
    n = x.size
    sd_all = x.std()
    # k-means++-style spread of initial centers
    centers = [x[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min((x[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        if d2.sum() <= 0:
            centers.append(x[rng.integers(n)])
        else:
            centers.append(x[rng.choice(n, p=d2 / d2.sum())])
    mu = np.asarray(centers, dtype=float)
    sd = np.full(k, max(sd_all / k, 1e-3 * sd_all))
    w = np.full(k, 1.0 / k)

    dev = np.subtract(x, mu[:, None])
    resp = np.empty((k, n))
    top = np.empty(n)
    lse = np.empty(n)
    last_ll = -np.inf
    floor = 1e-6 * sd_all
    converged = False
    for it in range(1, EM_MAX_ITER + 1):
        # log w_j + log phi((x - mu_j)/sd_j) - log sd_j, then its log-sum-exp over j
        dev /= sd[:, None]
        np.square(dev, out=dev)
        dev *= -0.5
        dev += (np.log(w) - np.log(sd) - _LOG_SQRT_2PI)[:, None]
        np.max(dev, axis=0, out=top)
        np.subtract(dev, top, out=resp)
        np.exp(resp, out=resp)
        np.sum(resp, axis=0, out=lse)
        resp /= lse
        np.log(lse, out=lse)
        lse += top
        ll = float(lse.sum())
        if ll + 1e-9 < last_ll:
            return None, True
        nk = resp.sum(axis=1)
        if np.any(nk <= 0):
            return None, False
        w = nk / n
        mu = resp @ x / nk
        np.subtract(x, mu[:, None], out=dev)
        resp *= dev
        resp *= dev
        sd = np.sqrt(resp.sum(axis=1) / nk)
        if np.any(sd < floor):
            return None, False
        if ll - last_ll < EM_TOL and np.isfinite(last_ll):
            converged = True
            break
        last_ll = ll
    mix = NormalMixture(weights=w / w.sum(), means=mu, sds=sd)
    return {"mixture": mix, "iterations": it, "converged": converged}, False


def em_fit_mixture(data, k: int, seed: int) -> FittedStart:
    """Fit a k-component normal mixture start by EM.

    Deterministic for a fixed seed.  A run stops after EM_MAX_ITER
    iterations or once the log-likelihood gains less than EM_TOL; the
    start's params record which, as "iterations" and "converged", next to
    the "mixture".  A run that collapses a component below 1e-6 of the
    sample scale is restarted (fresh seeding) up to EM_RESTARTS times before
    giving up.
    """
    x = _as_clean_sample(data)
    if k < 1:
        raise ValueError("component count must be at least 1")
    if x.size < 10 * k:
        raise ValueError("need at least 10 observations per component")
    if x.std() == 0.0:
        raise ValueError("sample variance is zero")
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(EM_RESTARTS):
        params, decreased = _em_once(x, k, rng)
        if decreased:
            raise RuntimeError("EM log-likelihood decreased between iterations; "
                               "the fit is numerically unstable for this sample")
        if params is not None:
            return FittedStart("normal_mixture", params)
    raise RuntimeError(f"EM produced a degenerate component in {EM_RESTARTS} restarts")


def _positive_part(pdf, x):
    """pdf on x > 0 and 0 elsewhere, for an array of points."""
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = pdf(x[pos])
    return out


def _gamma_pdf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The gamma density of shape a and rate b at positive points x.

    It is (a/x) exp(l), taken as exp(l + log a - log x), where l, the log of
    y^a e^-y / Gamma(a + 1) at y = b x, is taken as special._log_prefactor
    takes it: for a >= 1 as a log1pmx(y/a - 1) less Stirling's terms, so
    that no terms of order a log x cancel at a large shape.  log y is
    log x + log b, which keeps its digits where b x is subnormal or overflows.
    """
    log_x = np.log(x)
    log_y = log_x + math.log(b)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = b * x
        if a < 1.0:
            ell = a * log_y - y - _lgam1p(a)
        else:
            r = y / a
            t = r - 1.0
            # log1p(t) - t cancels only near t = 0: away from it, log r - r + 1
            # keeps the low bits of r that t has lost, and is -inf at r = inf
            far = (t < -0.6) | (t > 1.0)
            lpm = np.where(far, log_y - math.log(a) - r + 1.0, np.log1p(t) - t)
            ell = a * lpm - 0.5 * (_LOG_2PI + math.log(a)) - _stirling(a)
    return np.exp(ell + math.log(a) - log_x)


def _raw_pdf(s: FittedStart, x):
    """Family density at an array of points."""
    if s.family == "constant":
        return np.ones_like(x)
    if s.family == "normal":
        mu, sd = s.params["mu"], s.params["sd"]
        z = (x - mu) / sd
        with np.errstate(over="ignore"):  # z * z = inf far out, where the density is 0.0
            return np.exp(-0.5 * (z * z)) / (SQRT_2PI * sd)
    if s.family == "lognormal":
        mu, sd = s.params["mu"], s.params["sd"]

        def pdf(xp):
            z = (np.log(xp) - mu) / sd
            return np.exp(-0.5 * (z * z)) / (SQRT_2PI * sd * xp)
        return _positive_part(pdf, x)
    if s.family == "gamma":
        return _positive_part(lambda xp: _gamma_pdf(s.params["alpha"], s.params["beta"], xp), x)
    if s.family == "normal_mixture":
        return mixture_pdf(s.params["mixture"], x)
    raise ValueError(f"unsupported start family: {s.family!r}")


def _clip_edges(s: FittedStart) -> tuple[float, float]:
    """Central-region edges matching the normal mu +/- c*sigma rule."""
    c = s.clip
    if s.family == "normal":
        mu, sd = s.params["mu"], s.params["sd"]
        return mu - c * sd, mu + c * sd
    if s.family == "lognormal":
        mu, sd = s.params["mu"], s.params["sd"]
        return float(np.exp(mu - c * sd)), float(np.exp(mu + c * sd))
    if s.family == "gamma":
        # the lower edge has lower tail mass Phi(-c), the upper edge upper tail mass Phi(-c)
        a, b = s.params["alpha"], s.params["beta"]
        p = ndtr(-c)
        if p == 0.0:  # the upper edge would be inf, where the density is nan
            raise ValueError(f"clip {c} is too large for the gamma start: its tail mass "
                             "Phi(-clip) underflows to 0 (clip must be at most about 37.6)")
        return gamma_quantile(a, p) * (1.0 / b), gamma_quantile(a, p, upper=True) * (1.0 / b)
    if s.family == "normal_mixture":
        mu0, sd0 = mixture_moments(s.params["mixture"])
        return mu0 - c * sd0, mu0 + c * sd0
    raise ValueError(f"clipping undefined for family {s.family!r}")


def eval_start(s: FittedStart, x):
    """Start density with the clip floor applied outside the central region.

    With clip=None the raw family density is returned; for the positive
    families that raw density is 0 at x <= 0, which the corrected estimator
    treats as a domain error.  One point gives a float.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = _raw_pdf(s, x)
    if s.floor is not None:
        lo, hi, flo, fhi = s.floor
        out = np.where(x < lo, np.maximum(out, flo), out)
        out = np.where(x > hi, np.maximum(out, fhi), out)
    return float(out[0]) if scalar else out
