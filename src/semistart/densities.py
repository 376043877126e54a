"""Normal mixtures as benchmark ground truths.

A mixture sum(p_i * N(mu_i, sd_i^2)) is the one family for which everything
the package needs has closed form: the density, its curvature f'', the
curvature f0*r'' of the correction factor against the best-fitting normal,
both roughness functionals, and (in :mod:`semistart.exact_mise`) the exact
finite-sample integrated squared error of the corrected estimator.

The module also carries the fifteen standard normal-mixture test densities
(gaussian, skewed, kurtotic, ..., smooth and discrete combs) used by the
benchmark tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernels import SQRT_2PI

__all__ = [
    "NormalMixture",
    "RoughnessReport",
    "L1Report",
    "mixture_pdf",
    "mixture_sample",
    "mixture_moments",
    "bias_factors",
    "roughness",
    "l1_measures",
    "marron_wand",
    "mixture_to_json",
    "mixture_from_json",
]


_WEIGHT_TOL_BUILD = 1e-12
_WEIGHT_TOL_LOAD = 1e-9


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


@dataclass(frozen=True, eq=False, kw_only=True)
class NormalMixture:
    """Weights, locations and scales of sum(p_i * N(mu_i, sd_i^2))."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_1d(np.asarray(self.means, dtype=float))
        sd = np.atleast_1d(np.asarray(self.sds, dtype=float))
        if not (w.shape == mu.shape == sd.shape) or w.ndim != 1 or w.size == 0:
            raise ValueError("weights, means, sds must be equal-length 1-d sequences")
        for name, arr in (("weights", w), ("means", mu), ("sds", sd)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"mixture {name} must be finite, got {arr.tolist()!r}")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL_BUILD:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if np.any(sd <= 0):
            raise ValueError("mixture scales must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "sds", sd)
        for arr in (w, mu, sd):
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.weights.size

    def support_window(self) -> tuple[float, float]:
        """An interval carrying all but ~exp(-12^2/2) of every component."""
        lo = float(np.min(self.means - 12.0 * self.sds))
        hi = float(np.max(self.means + 12.0 * self.sds))
        return lo, hi


@dataclass(frozen=True)
class RoughnessReport:
    r_trad: float
    r_new: float
    rho_trad: float
    rho_new: float


@dataclass(frozen=True)
class L1Report:
    iab_trad: float
    iab_new: float
    half_norm: float
    rho1_trad: float
    rho1_new: float


def mixture_pdf(m: NormalMixture, x):
    """Density sum(p_i phi_{sd_i}(x - mu_i)); vectorised over x."""
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - m.means) / m.sds
    out = np.sum(m.weights / m.sds * _phi(z), axis=-1)
    return out if out.ndim else float(out)


def mixture_sample(m: NormalMixture, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws: categorical component pick, then a gaussian draw.

    The generator is counter-based (Philox), so a fixed seed reproduces the
    exact sequence on any platform and the call owns all of its state.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(m.n_components, size=n, p=m.weights)
    return m.means[idx] + m.sds[idx] * rng.standard_normal(n)


def mixture_moments(m: NormalMixture) -> tuple[float, float]:
    """Mean and standard deviation of the mixture, in closed form.

    These are the parameters of the best-fitting normal, i.e. the normal the
    corrected estimator's start aims at when fitted by mean and variance.
    """
    mu0 = float(np.sum(m.weights * m.means))
    var0 = float(np.sum(m.weights * (m.sds**2 + (m.means - mu0) ** 2)))
    return mu0, float(np.sqrt(var0))


def bias_factors(m: NormalMixture, x):
    """Pointwise bias drivers: (f''(x), f0(x) r''(x)).

    f0 is the best-fitting normal and r = f/f0, so the two values compare the
    leading smoothing bias of the plain kernel estimator with that of the
    normal-start corrected estimator at the same point.
    """
    x = np.asarray(x, dtype=float)
    mu0, sd0 = mixture_moments(m)
    t = x[..., None] - m.means
    fi = m.weights / m.sds * _phi(t / m.sds)
    fpp = np.sum((t**2 / m.sds**2 - 1.0) / m.sds**2 * fi, axis=-1)
    d = t / m.sds**2 - (x[..., None] - mu0) / sd0**2
    f0rpp = np.sum((1.0 / sd0**2 - 1.0 / m.sds**2 + d * d) * fi, axis=-1)
    if fpp.ndim:
        return fpp, f0rpp
    return float(fpp), float(f0rpp)


def _pair_tables(m: NormalMixture):
    sij = np.sqrt(m.sds[:, None] ** 2 + m.sds[None, :] ** 2)
    dij = (m.means[None, :] - m.means[:, None]) / sij
    pij = m.weights[:, None] * m.weights[None, :]
    return sij, dij, pij


def roughness(m: NormalMixture) -> RoughnessReport:
    """Exact curvature roughnesses int(f'')^2 and int(f0 r'')^2.

    Both come out as finite double sums over component pairs: products of
    two mixture normals integrate against polynomials through derivatives of
    the gaussian overlap phi(d_ij)/s_ij, and the correction-factor curvature
    is itself of the form sum(p_i f_i * quadratic in (x - mu_i)).

    The reported rho values are the scale-invariant summaries
    sd(f) * R^(1/5) used by the benchmark table.
    """
    sij, dij, pij = _pair_tables(m)
    ph = _phi(dij)
    r_trad = float(np.sum(pij * (dij**4 - 6.0 * dij**2 + 3.0) * ph / sij**5))

    mu0, sd0 = mixture_moments(m)
    a = 1.0 / m.sds**2 - 1.0 / sd0**2
    b = (m.means - mu0) / sd0**2
    c = b * b - a
    d = -2.0 * a * b
    s2 = m.sds**2

    # gaussian-overlap derivative table for the pair (i, j)
    A00 = ph / sij
    A10 = dij * ph / sij**2
    A01 = -A10
    A02 = (dij**2 - 1.0) * ph / sij**3
    A20 = A02
    A11 = -A02
    A21 = (dij**3 - 3.0 * dij) * ph / sij**4
    A22 = (dij**4 - 6.0 * dij**2 + 3.0) * ph / sij**5

    t1 = np.sum(pij * np.outer(c, c) * A00)
    t2 = 2.0 * np.sum(pij * c[:, None] * d[None, :] * s2[None, :] * A01)
    t3 = 2.0 * np.sum(pij * c[:, None] * (a**2 * s2)[None, :] * (s2[None, :] * A02 + A00))
    t4 = np.sum(pij * np.outer(d * s2, d * s2) * A11)
    t5 = 2.0 * np.sum(pij * (d * s2)[:, None] * (a**2 * s2)[None, :] * (s2[None, :] * A21 + A10))
    t6 = np.sum(pij * np.outer(a**2 * s2, a**2 * s2)
                * (s2[:, None] * s2[None, :] * A22 + s2[:, None] * A20 + s2[None, :] * A02 + A00))
    r_new = float(t1 + t2 + t3 + t4 + t5 + t6)
    # single-normal input cancels to 0 only up to rounding in the six terms
    r_new = max(r_new, 0.0)

    rho_trad = sd0 * r_trad**0.2 if r_trad > 0 else 0.0
    rho_new = sd0 * r_new**0.2 if r_new > 0 else 0.0
    return RoughnessReport(r_trad, r_new, rho_trad, rho_new)


def _integrate_abs(g, lo: float, hi: float) -> float:
    """int |g| split at the sign changes found on a 4096-interval grid + bisection.

    Plain adaptive quadrature stalls on the kinks of |g|; between two sign
    changes g is smooth and int |g| = |int g|.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    xs = np.linspace(lo, hi, 4097)
    vals = g(xs)
    sgn = np.sign(vals)
    roots = []
    for i in range(xs.size - 1):
        if sgn[i] * sgn[i + 1] < 0:
            roots.append(brentq(g, xs[i], xs[i + 1], xtol=1e-13))
    pts = [lo] + roots + [hi]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(g, a, b, limit=300, epsabs=1e-10)
        total += abs(val)
    return total


def l1_measures(m: NormalMixture) -> L1Report:
    """Absolute-bias measures int|f''|, int|f0 r''|, int f^(1/2) and their
    scale-invariant combinations (int f^(1/2))^(4/5) (int|.|)^(1/5).

    Numeric quadrature over a window wide enough for every component; the
    overall-moment window alone truncates mixtures with one wide and one
    narrow component.
    """
    from scipy.integrate import quad

    lo, hi = m.support_window()
    iab_trad = _integrate_abs(lambda x: bias_factors(m, x)[0], lo, hi)
    iab_new = _integrate_abs(lambda x: bias_factors(m, x)[1], lo, hi)
    half_norm, _ = quad(lambda x: np.sqrt(mixture_pdf(m, x)), lo, hi,
                        limit=400, epsabs=1e-10)
    rho1_trad = half_norm**0.8 * iab_trad**0.2 if iab_trad > 1e-200 else 0.0
    rho1_new = half_norm**0.8 * iab_new**0.2 if iab_new > 1e-200 else 0.0
    return L1Report(iab_trad, iab_new, half_norm, rho1_trad, rho1_new)


def _mw_components(case: int):
    if case == 1:  # gaussian
        return [1.0], [0.0], [1.0]
    if case == 2:  # skewed unimodal
        return [0.2, 0.2, 0.6], [0.0, 0.5, 13.0 / 12.0], [1.0, 2.0 / 3.0, 5.0 / 9.0]
    if case == 3:  # strongly skewed
        ls = range(8)
        return [1.0 / 8.0] * 8, [3.0 * ((2.0 / 3.0) ** l - 1.0) for l in ls], \
            [(2.0 / 3.0) ** l for l in ls]
    if case == 4:  # kurtotic unimodal
        return [2.0 / 3.0, 1.0 / 3.0], [0.0, 0.0], [1.0, 0.1]
    if case == 5:  # outlier
        return [0.1, 0.9], [0.0, 0.0], [1.0, 0.1]
    if case == 6:  # bimodal
        return [0.5, 0.5], [-1.0, 1.0], [2.0 / 3.0, 2.0 / 3.0]
    if case == 7:  # separated bimodal
        return [0.5, 0.5], [-1.5, 1.5], [0.5, 0.5]
    if case == 8:  # skewed bimodal
        return [0.75, 0.25], [0.0, 1.5], [1.0, 1.0 / 3.0]
    if case == 9:  # trimodal
        return [9.0 / 20.0, 9.0 / 20.0, 1.0 / 10.0], [-6.0 / 5.0, 6.0 / 5.0, 0.0], \
            [3.0 / 5.0, 3.0 / 5.0, 1.0 / 4.0]
    if case == 10:  # claw
        return [0.5] + [0.1] * 5, [0.0] + [l / 2.0 - 1.0 for l in range(5)], \
            [1.0] + [0.1] * 5
    if case == 11:  # double claw
        return [0.49, 0.49] + [1.0 / 350.0] * 7, \
            [-1.0, 1.0] + [(l - 3.0) / 2.0 for l in range(7)], \
            [2.0 / 3.0, 2.0 / 3.0] + [0.01] * 7
    if case == 12:  # asymmetric claw
        ls = range(-2, 3)
        return [0.5] + [2.0 ** (1 - l) / 31.0 for l in ls], \
            [0.0] + [l + 0.5 for l in ls], \
            [1.0] + [2.0 ** (-l) / 10.0 for l in ls]
    if case == 13:  # asymmetric double claw
        return [0.46, 0.46] + [1.0 / 300.0] * 3 + [7.0 / 300.0] * 3, \
            [-1.0, 1.0] + [-l / 2.0 for l in (1, 2, 3)] + [l / 2.0 for l in (1, 2, 3)], \
            [2.0 / 3.0, 2.0 / 3.0] + [0.01] * 3 + [0.07] * 3
    if case == 14:  # smooth comb
        # benchmark-table variant: component scale constant 16/31 (the more
        # common catalogue uses 32/63; the table rows pin this one down)
        ls = range(6)
        return [2.0 ** (5 - l) / 63.0 for l in ls], \
            [(65.0 - 96.0 * 0.5**l) / 21.0 for l in ls], \
            [(16.0 / 31.0) / 2.0**l for l in ls]
    if case == 15:  # discrete comb
        return [2.0 / 7.0] * 3 + [1.0 / 21.0] * 3, \
            [(12.0 * l - 15.0) / 7.0 for l in range(3)] + [2.0 * l / 7.0 for l in (8, 9, 10)], \
            [2.0 / 7.0] * 3 + [1.0 / 21.0] * 3
    raise ValueError(f"test density case must be in 1..15, got {case}")


def marron_wand(case: int) -> NormalMixture:
    """One of the 15 normal-mixture test densities, by 1-based index."""
    w, mu, sd = _mw_components(case)
    w = np.asarray(w, float)
    return NormalMixture(weights=w / w.sum(), means=mu, sds=sd)


def mixture_to_json(m: NormalMixture) -> str:
    comps = [{"p": p, "mu": mu, "sd": sd}
             for p, mu, sd in zip(m.weights, m.means, m.sds)]
    return json.dumps({"components": comps})


def mixture_from_json(text: str) -> NormalMixture:
    doc = json.loads(text)
    comps = doc["components"]
    w = np.asarray([c["p"] for c in comps], dtype=float)
    if abs(w.sum() - 1.0) > _WEIGHT_TOL_LOAD:
        raise ValueError(f"mixture weights must sum to 1 within {_WEIGHT_TOL_LOAD}")
    return NormalMixture(weights=w / w.sum(),
                         means=[c["mu"] for c in comps],
                         sds=[c["sd"] for c in comps])
