"""Exact finite-sample integrated squared error for normal-mixture truths.

For a mixture truth, both the plain kernel estimator and the normal-start
corrected estimator (gaussian kernel, true start parameters) admit exact
mise(h) formulas built from gaussian product integrals.  The corrected
estimator's formula

    mise(h) = (1 - 1/n) E A1(h) + (1/n) E A2(h) - 2 E B(h) + R(f)

collects the off-diagonal and diagonal parts of E int fhat^2 plus the cross
term E int f fhat.  All three expectations are finite sums over mixture
components whose terms multiply enormous and vanishing exponentials; every
term is therefore assembled in log space before exponentiating.

The formula's radicands shrink with h and hit zero at a finite cap whenever
the start is narrower than some component; evaluation past the cap raises
MiseDomainError and searches stay below it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .densities import NormalMixture, marron_wand, mixture_moments
from .kernels import SQRT_2PI, SQRT_PI, require_bandwidth

__all__ = [
    "MiseDomainError",
    "MiseReport",
    "r_f",
    "mise_kernel",
    "mise_new",
    "h_domain_cap",
    "optimal_h",
    "benchmark_table",
    "reports_to_csv",
]

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# optimal_h: points of the coarse scan, the width at which refining stops,
# and the golden-section steps whose candidate points share one curve call
SCAN_POINTS = 128
TOL = 1e-9
GOLDEN_DEPTH = 5


class MiseDomainError(ValueError):
    """A radicand of the exact-mise formula is nonpositive at this h."""


def _log_phi_scaled(sd, u):
    """log of phi_sd(u) = phi(u/sd)/sd."""
    return -HALF_LOG_2PI - np.log(sd) - 0.5 * (u / sd) ** 2


def _column(h) -> np.ndarray:
    """h, a float or an array, as an (H, 1) column of floats."""
    return np.asarray(h, dtype=float).reshape(-1, 1)


def _shaped(values: np.ndarray, h):
    """Per-h values in the shape of h: a float for a scalar h."""
    return float(values[0]) if np.ndim(h) == 0 else values.reshape(np.shape(h))


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum each h's terms over the mixture components: one row per h.

    Each row is summed alone, in the order np.sum takes for one h's terms,
    so every h gets the bits of a scalar evaluation.
    """
    return terms.reshape(terms.shape[0], -1).sum(axis=1)


def _overlap(m: NormalMixture, extra) -> np.ndarray:
    """sum_ij p_i p_j phi_s(mu_i - mu_j) with s^2 = sd_i^2 + sd_j^2 + extra.

    It is int (f * phi_h)(f * phi_h') for extra = h^2 + h'^2.  One value
    per entry of `extra`.
    """
    extra = np.asarray(extra, dtype=float).reshape(-1, 1, 1)
    s = np.sqrt(m.sds[:, None] ** 2 + m.sds[None, :] ** 2 + extra)
    d = m.means[None, :] - m.means[:, None]
    pij = m.weights[:, None] * m.weights[None, :]
    return _row_sums(pij * np.exp(-0.5 * (d / s) ** 2) / (SQRT_2PI * s))


def r_f(m: NormalMixture) -> float:
    """int f^2 for a normal mixture (pairwise gaussian overlaps)."""
    return float(_overlap(m, 0.0)[0])


def mise_kernel(m: NormalMixture, h, n: int):
    """Exact mise(h) of the plain kernel estimator with gaussian kernel.

    h is a bandwidth or an array of them; the result has the shape of h.
    """
    require_bandwidth(h)
    if n < 1:
        raise ValueError("n must be at least 1")
    hs = np.asarray(h, dtype=float).reshape(-1)
    return _shaped((1.0 - 1.0 / n) * _overlap(m, 2.0 * hs * hs)
                   + 1.0 / (2.0 * SQRT_PI * n * hs)
                   - 2.0 * _overlap(m, hs * hs)
                   + r_f(m), h)


def _radicands(m: NormalMixture, sd0: float, h):
    """The squared helper quantities (b2, e2, c2, k2, f2) of the formula.

    One row per entry of h: b2, e2 and f2 are (H, K), c2 and k2 (H, K, K).
    Raises MiseDomainError naming the first one that is not strictly
    positive, in that order, and the first h at which it is not.
    """
    h = _column(h)
    al = 1.0 / m.sds**2
    be = 1.0 / sd0**2
    h2 = h * h
    h2m = h2[:, :, None]

    def check(name, v):
        ok = (v > 0).reshape(h.shape[0], -1).all(axis=1)
        if not ok.all():
            bad = float(h[np.argmin(ok), 0])
            raise MiseDomainError(
                f"mise formula domain violated: term {name}^2 <= 0 at h={bad!r}")
        return v

    b2 = check("b", 1.0 + h2 * (al - be))
    e2 = check("e", 2.0 + h2 * (al - 2.0 * be))
    k2 = (al[:, None] + al[None, :]
          - (al[:, None] - be) ** 2 * h2m / b2[:, :, None])
    c2 = check("c", k2 - (al[None, :] - be) ** 2 * h2m / b2[:, None, :])
    check("k", k2)
    f2 = check("f", al - (al - 2.0 * be) ** 2 * h2 / e2)
    return b2, e2, c2, k2, f2


@np.errstate(over="ignore", invalid="ignore")
def mise_new(m: NormalMixture, mu0: float, sd0: float, h, n: int):
    """Exact mise(h) of the corrected estimator with the N(mu0, sd0^2) start.

    h is a bandwidth or an array of them; the result has the shape of h.
    Internally the problem is translated so the start is centred at 0; the
    value is translation invariant and the exponentials stay balanced.
    It is inf where E int fhat^2, which bounds the cross term, passes the float range.
    """
    if not np.isfinite(mu0):
        raise ValueError(f"start location must be finite, got {mu0!r}")
    if not (np.isfinite(sd0) and sd0 > 0):
        raise ValueError(f"start scale must be finite and positive, got {sd0!r}")
    require_bandwidth(h)
    if n < 1:
        raise ValueError("n must be at least 1")
    b2, e2, c2, k2, f2 = _radicands(m, sd0, h)

    # per-component vectors are (H, K) rows; pair matrices are (H, K, K),
    # with component i on axis 1 and j on axis 2
    hc = _column(h)
    p = m.weights
    mm = m.means - mu0  # centred component locations
    sd = m.sds
    al = 1.0 / sd**2
    be = 1.0 / sd0**2
    h2 = hc * hc
    h2m = h2[:, :, None]
    b2i, b2j = b2[:, :, None], b2[:, None, :]
    log_b2 = np.log(b2)

    log_phi_i = _log_phi_scaled(sd, mm)  # log phi_{sd_i}(mm_i)
    ma = mm * al
    boost = 0.5 * ma**2 * h2 / b2  # recurring exp{(mm_i a_i)^2 h^2 / 2 b_i^2}

    # off-diagonal part of E int fhat^2
    d = (ma[:, None] + ma[None, :]
         - (al[:, None] - be) * ma[:, None] * h2m / b2i
         - (al[None, :] - be) * ma[None, :] * h2m / b2j)
    log_t = (HALF_LOG_2PI + np.log(p)[:, None] + np.log(p)[None, :]
             - 0.5 * log_b2[:, :, None] - 0.5 * log_b2[:, None, :]
             + log_phi_i[:, None] + log_phi_i[None, :]
             - 0.5 * np.log(c2) + 0.5 * d * d / c2
             + boost[:, :, None] + boost[:, None, :])
    ea1 = _row_sums(np.exp(log_t))

    # diagonal part of E int fhat^2
    g = 2.0 * ma / e2
    log_t2 = (np.log(p) - np.log(hc) - HALF_LOG_2PI - np.log(sd)
              - 0.5 * np.log(e2 * f2) + 0.5 * g * g / f2
              - 0.5 * mm * mm * al + 0.5 * ma**2 * h2 / e2)
    ea2 = _row_sums(np.exp(log_t2))

    # cross term E int f fhat (start index i, truth index j)
    l = ma[:, None] + ma[None, :] - (al[:, None] - be) * ma[:, None] * h2m / b2i
    log_tb = (HALF_LOG_2PI + np.log(p)[:, None] + np.log(p)[None, :]
              + log_phi_i[:, None] + log_phi_i[None, :]
              - 0.5 * log_b2[:, :, None] - 0.5 * np.log(k2)
              + boost[:, :, None] + 0.5 * l * l / k2)
    eb = _row_sums(np.exp(log_tb))

    mise = (1.0 - 1.0 / n) * ea1 + ea2 / n - 2.0 * eb + r_f(m)
    return _shaped(np.where(np.isinf(ea2) | (n > 1) & np.isinf(ea1), np.inf, mise), h)


def h_domain_cap(m: NormalMixture, sd0: float, h_max: float = np.inf) -> float:
    """Largest bandwidth at which every exact-mise radicand stays positive.

    The radicands all decrease in h, so the boundary is found by bisection,
    which stops once the midpoint rounds to an end: no later step could move
    the feasible end after that.  h_max is returned when no constraint
    binds below it (it may be infinite).
    """
    if not h_max > 0.0:  # NaN fails too
        raise ValueError(f"h_max must be positive, got {h_max!r}")

    def ok(h):
        try:
            _radicands(m, sd0, h)
        except MiseDomainError:
            return False
        return True

    hi = min(h_max, 1e6 * sd0)
    if ok(hi):
        return float(h_max)
    lo = 1e-12 * sd0
    if not ok(lo):
        raise MiseDomainError("exact-mise formula invalid even as h -> 0")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def _curve_values(curve: Callable[[np.ndarray], np.ndarray], hs) -> np.ndarray:
    """curve at the bandwidths hs in one call, checked to hold no NaN or -inf."""
    hs = np.asarray(hs, dtype=float)
    vals = np.asarray(curve(hs), dtype=float)
    if vals.shape != hs.shape:
        raise ValueError(f"curve must map an array of {hs.size} bandwidths to "
                         f"as many values, got shape {vals.shape}")
    bad = np.isnan(vals) | (vals == -np.inf)
    if bad.any():
        raise ValueError(f"curve value is not finite at h={float(hs[bad][0])!r}")
    return vals


def _golden_points(a, b, c, d, depth: int) -> list:
    """Every point the next `depth` golden-section steps from (a, b, c, d) can ask for.

    Each step keeps [a, d] (and asks for a new c) or [c, b] (and asks for a
    new d), with the very expressions of optimal_h's steps.
    """
    if depth == 0:
        return []
    c_left = d - INV_GOLDEN * (d - a)  # b, d = d, c
    d_right = c + INV_GOLDEN * (b - c)  # a, c = c, d
    return ([c_left] + _golden_points(a, d, c_left, c, depth - 1)
            + [d_right] + _golden_points(c, b, d, d_right, depth - 1))


def optimal_h(curve: Callable[[np.ndarray], np.ndarray],
              bracket: tuple[float, float]) -> tuple[float, float]:
    """Minimise a bandwidth curve: coarse scan, then golden-section refine.

    `curve` maps an array of bandwidths to the array of its values.  The
    scan guards against multimodal curves (comb-like truths produce two
    local minima); if several local minima show up, the scan is repeated at
    4x resolution before refining around the global one.  Ties on the scan
    resolve toward smaller h.  Each scan is one curve call; the golden
    section evaluates, in one call, every point its next GOLDEN_DEPTH steps
    could ask for, then takes those steps one at a time.  A NaN or -inf
    value raises ValueError; inf, past the float range, is above all others.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def scan_curve(k):
        hs = np.linspace(lo, hi, k)
        vals = _curve_values(curve, hs)
        interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
        return hs, vals, int(np.count_nonzero(interior))

    hs, vals, n_min = scan_curve(SCAN_POINTS)
    if n_min > 1:
        hs, vals, _ = scan_curve(4 * SCAN_POINTS)
    k = int(np.argmin(vals))
    a = float(hs[max(k - 1, 0)])
    b = float(hs[min(k + 1, hs.size - 1)])

    # golden-section on [a, b]
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = _curve_values(curve, [c, d]).tolist()
    while b - a > TOL:
        points = _golden_points(a, b, c, d, GOLDEN_DEPTH)
        f = dict(zip(points, _curve_values(curve, points).tolist()))
        for _ in range(GOLDEN_DEPTH):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - INV_GOLDEN * (b - a)
                fc = f[c]
            else:
                a, c, fc = c, d, fd
                d = a + INV_GOLDEN * (b - a)
                fd = f[d]
            if b - a <= TOL:
                break
    h_star = 0.5 * (a + b)
    return float(h_star), float(_curve_values(curve, [h_star])[0])


@dataclass(frozen=True)
class MiseReport:
    case_id: str
    n: int
    h_star_new: float
    mise_star_new: float
    h_star_trad: float
    mise_star_trad: float
    ratio: float


def _benchmark_row(case: int, n: int) -> MiseReport:
    m = marron_wand(case)
    mu0, sd0 = mixture_moments(m)
    cap = h_domain_cap(m, sd0, h_max=3.0 * sd0)
    lo, hi = 0.01 * sd0, min(3.0 * sd0, 0.98 * cap)
    curve_new = lambda h: mise_new(m, mu0, sd0, h, n)
    h_new, mise_n = optimal_h(curve_new, (lo, hi))
    if hi < 3.0 * sd0 and hi - h_new < 1e-3 * sd0:
        raise MiseDomainError(
            f"case {case}, n={n}: optimum pinned at the formula's domain cap")
    curve_trad = lambda h: mise_kernel(m, h, n)
    h_trad, mise_t = optimal_h(curve_trad, (lo, 3.0 * sd0))
    for name, h in (("new", h_new), ("trad", h_trad)):
        if h - lo < 1e-3 * sd0:
            raise ValueError(f"case {case}, n={n}: the {name} estimator's optimum "
                             f"is pinned at the lower end of the search bracket")
    return MiseReport(str(case), n, h_new, mise_n, h_trad, mise_t, mise_n / mise_t)


def benchmark_table(cases: Iterable[int] = range(1, 16),
                    ns: Iterable[int] = (25, 50, 100, 200, 1000)) -> list[MiseReport]:
    """Best-case-vs-best-case table rows, one per (test density, n)."""
    jobs = [(int(c), int(n)) for c in cases for n in ns]
    for c, n in jobs:
        if not 1 <= c <= 15:
            raise ValueError(f"test density case must be in 1..15, got {c}")
        if n < 1:
            raise ValueError("sample sizes must be positive")
    return [_benchmark_row(c, n) for c, n in jobs]


def reports_to_csv(reports: Sequence[MiseReport], precision: int = 6) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["case", "n", "h_new", "mise_new", "h_trad", "mise_trad", "ratio"])
    for r in reports:
        w.writerow([r.case_id, r.n]
                   + [f"{v:.{precision}g}" for v in
                      (r.h_star_new, r.mise_star_new, r.h_star_trad,
                       r.mise_star_trad, r.ratio)])
    return buf.getvalue()
