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
import math
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
            raise ValueError(f"mixture weights must sum to 1, got {float(w.sum())}")
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


def _philox(seed: int) -> np.random.Generator:
    """A counter-based generator for a non-negative integer seed."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def mixture_sample(m: NormalMixture, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws: categorical component pick, then a gaussian draw.

    The generator is counter-based (Philox), so a fixed seed reproduces the
    exact sequence on any platform and the call owns all of its state.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = _philox(seed)
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


_BRENTQ_RTOL = 4 * math.ulp(1.0)
_BRENTQ_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f between xa and xb by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of SciPy's C ``brentq`` at rtol = 4 eps and 100
    iterations, with the same operations in the same order, so its roots
    equal SciPy's to the bit. The checks of SciPy's Python wrapper come
    with it: a NaN value of f or equal signs of f(xa) and f(xb) raise
    ValueError, and no convergence raises RuntimeError.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's x/0 is inf or nan, and either fails the short-step test
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


def _integrate_abs(g, lo: float, hi: float) -> float:
    """int |g| split at the sign changes found on a 4096-interval grid.

    Plain adaptive quadrature stalls on the kinks of |g|; between two sign
    changes g is smooth and int |g| = |int g|. A sign change between
    neighbouring grid points is refined by `_brentq`; one across exact zeros
    of the grid splits at the first of those zeros.
    """
    from .quadpack import qags

    xs = np.linspace(lo, hi, 4097)
    sgn = np.sign(g(xs))
    nz = np.flatnonzero(sgn)
    left, right = nz[:-1], nz[1:]
    change = sgn[left] * sgn[right] < 0
    pts = [lo]
    for i, j in zip(left[change].tolist(), right[change].tolist()):
        pts.append(_brentq(g, xs[i], xs[j], 1e-13) if j == i + 1 else float(xs[i + 1]))
    pts.append(hi)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = qags(g, a, b, limit=300, epsabs=1e-10)
        total += abs(val)
    return total


def l1_measures(m: NormalMixture) -> L1Report:
    """Absolute-bias measures int|f''|, int|f0 r''|, int f^(1/2) and their
    scale-invariant combinations (int f^(1/2))^(4/5) (int|.|)^(1/5).

    Numeric quadrature over a window wide enough for every component; the
    overall-moment window alone truncates mixtures with one wide and one
    narrow component.
    """
    from .quadpack import qags

    lo, hi = m.support_window()
    iab_trad = _integrate_abs(lambda x: bias_factors(m, x)[0], lo, hi)
    iab_new = _integrate_abs(lambda x: bias_factors(m, x)[1], lo, hi)
    half_norm, _ = qags(lambda x: np.sqrt(mixture_pdf(m, x)), lo, hi,
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


def _json_kind(value) -> str:
    return {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
            type(None): "null"}.get(type(value), "a number")


def mixture_from_json(text: str) -> NormalMixture:
    """The mixture of a document {"components": [{"p": .., "mu": .., "sd": ..}, ...]}.

    A document of any other shape raises ValueError naming what is missing
    or of the wrong type.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a mixture document must be a JSON object, got {_json_kind(doc)}")
    if "components" not in doc:
        raise ValueError("the mixture document has no 'components' key")
    comps = doc["components"]
    if not isinstance(comps, list):
        raise ValueError(f"mixture 'components' must be an array, got {_json_kind(comps)}")
    cols = {"p": [], "mu": [], "sd": []}
    for i, comp in enumerate(comps):
        if not isinstance(comp, dict):
            raise ValueError(f"mixture component {i} must be an object, got {_json_kind(comp)}")
        for key, col in cols.items():
            if key not in comp:
                raise ValueError(f"mixture component {i} has no {key!r} key")
            if _json_kind(comp[key]) != "a number":
                raise ValueError(f"mixture component {i} {key!r} must be a number, "
                                 f"got {_json_kind(comp[key])}")
            col.append(comp[key])
    w = np.asarray(cols["p"], dtype=float)
    if abs(w.sum() - 1.0) > _WEIGHT_TOL_LOAD:
        raise ValueError(f"mixture weights must sum to 1 within {_WEIGHT_TOL_LOAD}")
    return NormalMixture(weights=w / w.sum(), means=cols["mu"], sds=cols["sd"])
