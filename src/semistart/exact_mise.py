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

from .bandwidth import _normal_log_ratio, _normal_square_integral
from .densities import NormalMixture, marron_wand, mixture_moments
from .kernels import SQRT_2PI, SQRT_PI, require_bandwidth
from .starts import _require_finite

__all__ = [
    "MiseDomainError",
    "MiseReport",
    "gaussian_product_integral",
    "r_f",
    "mise_kernel",
    "mise_new",
    "ise_new",
    "h_domain_cap",
    "optimal_h",
    "benchmark_table",
    "reports_to_csv",
]

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# optimal_h: points of the coarse scan, and the width at which refining stops
SCAN_POINTS = 128
TOL = 1e-9


class MiseDomainError(ValueError):
    """A radicand of the exact-mise formula is nonpositive at this h."""


def _log_phi_scaled(sd, u):
    """log of phi_sd(u) = phi(u/sd)/sd."""
    return -HALF_LOG_2PI - np.log(sd) - 0.5 * (u / sd) ** 2


def gaussian_product_integral(factors: Sequence[tuple[float, float]], a: float = 0.0) -> float:
    """int prod_j phi_{sd_j}(x - mu_j) dx, exactly.

    Equals sqrt(2 pi) st * [prod phi_{sd_j}(mu_j - a)] *
    exp{ st^2/2 * (sum (mu_j - a)/sd_j^2)^2 } with 1/st^2 = sum 1/sd_j^2;
    the reference point a is arbitrary and only matters for conditioning.
    """
    sd = np.asarray([f[0] for f in factors], dtype=float)
    mu = np.asarray([f[1] for f in factors], dtype=float)
    if sd.size == 0:
        raise ValueError("need at least one factor")
    if np.any(sd <= 0):
        raise ValueError("scales must be positive")
    inv = float(np.sum(1.0 / sd**2))
    st2 = 1.0 / inv
    log_val = (HALF_LOG_2PI + 0.5 * np.log(st2)
               + float(np.sum(_log_phi_scaled(sd, mu - a)))
               + 0.5 * st2 * float(np.sum((mu - a) / sd**2)) ** 2)
    return float(np.exp(log_val))


def _overlap(m: NormalMixture, extra: float) -> float:
    """sum_ij p_i p_j phi_s(mu_i - mu_j) with s^2 = sd_i^2 + sd_j^2 + extra.

    It is int (f * phi_h)(f * phi_h') for extra = h^2 + h'^2.
    """
    s = np.sqrt(m.sds[:, None] ** 2 + m.sds[None, :] ** 2 + extra)
    d = m.means[None, :] - m.means[:, None]
    pij = m.weights[:, None] * m.weights[None, :]
    return float(np.sum(pij * np.exp(-0.5 * (d / s) ** 2) / (SQRT_2PI * s)))


def r_f(m: NormalMixture) -> float:
    """int f^2 for a normal mixture (pairwise gaussian overlaps)."""
    return _overlap(m, 0.0)


def mise_kernel(m: NormalMixture, h: float, n: int) -> float:
    """Exact mise(h) of the plain kernel estimator with gaussian kernel."""
    require_bandwidth(h)
    if n < 1:
        raise ValueError("n must be at least 1")
    return ((1.0 - 1.0 / n) * _overlap(m, 2.0 * h * h)
            + 1.0 / (2.0 * SQRT_PI * n * h)
            - 2.0 * _overlap(m, h * h)
            + r_f(m))


def _radicands(m: NormalMixture, sd0: float, h: float):
    """The squared helper quantities (b2, e2, c2, k2, f2) of the formula.

    Raises MiseDomainError naming the first one that is not strictly
    positive, in that order.
    """
    al = 1.0 / m.sds**2
    be = 1.0 / sd0**2
    h2 = h * h

    def check(name, v):
        if not np.all(v > 0):
            raise MiseDomainError(
                f"mise formula domain violated: term {name}^2 <= 0 at h={h!r}")
        return v

    b2 = check("b", 1.0 + h2 * (al - be))
    e2 = check("e", 2.0 + h2 * (al - 2.0 * be))
    k2 = al[:, None] + al[None, :] - (al[:, None] - be) ** 2 * h2 / b2[:, None]
    c2 = check("c", k2 - (al[None, :] - be) ** 2 * h2 / b2[None, :])
    check("k", k2)
    f2 = check("f", al - (al - 2.0 * be) ** 2 * h2 / e2)
    return b2, e2, c2, k2, f2


def _require_normal_start(mu: float, sd: float) -> None:
    """N(mu, sd^2) needs a finite location and a finite positive scale."""
    if not np.isfinite(mu):
        raise ValueError(f"start location must be finite, got {mu!r}")
    if not (np.isfinite(sd) and sd > 0):
        raise ValueError(f"start scale must be finite and positive, got {sd!r}")


def mise_new(m: NormalMixture, mu0: float, sd0: float, h: float, n: int) -> float:
    """Exact mise(h) of the corrected estimator with the N(mu0, sd0^2) start.

    Internally the problem is translated so the start is centred at 0; the
    value is translation invariant and the exponentials stay balanced.
    """
    _require_normal_start(mu0, sd0)
    require_bandwidth(h)
    if n < 1:
        raise ValueError("n must be at least 1")
    b2, e2, c2, k2, f2 = _radicands(m, sd0, h)

    p = m.weights
    mm = m.means - mu0  # centred component locations
    sd = m.sds
    al = 1.0 / sd**2
    be = 1.0 / sd0**2
    h2 = h * h

    log_phi_i = _log_phi_scaled(sd, mm)  # log phi_{sd_i}(mm_i)
    ma = mm * al
    boost = 0.5 * ma**2 * h2 / b2  # recurring exp{(mm_i a_i)^2 h^2 / 2 b_i^2}

    # off-diagonal part of E int fhat^2
    d = (ma[:, None] + ma[None, :]
         - (al[:, None] - be) * ma[:, None] * h2 / b2[:, None]
         - (al[None, :] - be) * ma[None, :] * h2 / b2[None, :])
    log_t = (HALF_LOG_2PI + np.log(p)[:, None] + np.log(p)[None, :]
             - 0.5 * np.log(b2)[:, None] - 0.5 * np.log(b2)[None, :]
             + log_phi_i[:, None] + log_phi_i[None, :]
             - 0.5 * np.log(c2) + 0.5 * d * d / c2
             + boost[:, None] + boost[None, :])
    ea1 = float(np.sum(np.exp(log_t)))

    # diagonal part of E int fhat^2
    g = 2.0 * ma / e2
    log_t2 = (np.log(p) - np.log(h) - HALF_LOG_2PI - np.log(sd)
              - 0.5 * np.log(e2 * f2) + 0.5 * g * g / f2
              - 0.5 * mm * mm * al + 0.5 * ma**2 * h2 / e2)
    ea2 = float(np.sum(np.exp(log_t2)))

    # cross term E int f fhat (start index i, truth index j)
    l = ma[:, None] + ma[None, :] - (al[:, None] - be) * ma[:, None] * h2 / b2[:, None]
    log_tb = (HALF_LOG_2PI + np.log(p)[:, None] + np.log(p)[None, :]
              + log_phi_i[:, None] + log_phi_i[None, :]
              - 0.5 * np.log(b2)[:, None] - 0.5 * np.log(k2)
              + boost[:, None] + 0.5 * l * l / k2)
    eb = float(np.sum(np.exp(log_tb)))

    return (1.0 - 1.0 / n) * ea1 + ea2 / n - 2.0 * eb + r_f(m)


def h_domain_cap(m: NormalMixture, sd0: float, h_max: float = np.inf) -> float:
    """Largest bandwidth at which every exact-mise radicand stays positive.

    The radicands all decrease in h, so the boundary is found by bisection;
    infinity is returned when no constraint binds below h_max.
    """

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
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def ise_new(data, mu_hat: float, sd_hat: float, h: float, m: NormalMixture) -> float:
    """Exact int (fhat - f)^2 for the corrected estimator built from `data`.

    fhat is the gaussian-kernel estimator with an (unclipped) normal start
    at (mu_hat, sd_hat).  Both the squared term and the cross term reduce to
    finite gaussian-product sums.
    """
    require_bandwidth(h)
    _require_normal_start(mu_hat, sd_hat)
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise ValueError("data must be nonempty")
    _require_finite(x)
    a_term = _normal_square_integral(x, mu_hat, sd_hat, h)

    # int f fhat: mixture component x data point sum
    u = x - mu_hat
    h2 = h * h
    sd2 = sd_hat * sd_hat
    log_rat = _normal_log_ratio(u, sd_hat, h)
    sj2 = m.sds**2
    stj2 = sd2 * sj2 * h2 / (sd2 * sj2 + h2 * (sd2 + sj2))
    mu_off = m.means - mu_hat
    log_row = (np.log(m.weights) + 0.5 * np.log(stj2) - np.log(sd_hat)
               + _log_phi_scaled(m.sds, mu_off))
    inner = (log_rat[None, :] + log_row[:, None]
             + 0.5 * stj2[:, None] * (u[None, :] / h2 + (mu_off / sj2)[:, None]) ** 2)
    b_term = float(np.sum(np.exp(inner))) / n

    return a_term - 2.0 * b_term + r_f(m)


def optimal_h(curve: Callable[[float], float],
              bracket: tuple[float, float]) -> tuple[float, float]:
    """Minimise a bandwidth curve: coarse scan, then golden-section refine.

    The scan guards against multimodal curves (comb-like truths produce two
    local minima); if several local minima show up, the scan is repeated at
    4x resolution before refining around the global one.  Ties on the scan
    resolve toward smaller h.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def scan_curve(k):
        hs = np.linspace(lo, hi, k)
        vals = np.array([curve(h) for h in hs])
        interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
        return hs, vals, int(np.count_nonzero(interior))

    hs, vals, n_min = scan_curve(SCAN_POINTS)
    if n_min > 1:
        hs, vals, _ = scan_curve(4 * SCAN_POINTS)
    k = int(np.argmin(vals))
    a = hs[max(k - 1, 0)]
    b = hs[min(k + 1, hs.size - 1)]

    # golden-section on [a, b]
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = curve(c), curve(d)
    while b - a > TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = curve(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = curve(d)
    h_star = 0.5 * (a + b)
    return float(h_star), float(curve(h_star))


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
    hi = min(3.0 * sd0, 0.98 * cap)
    curve_new = lambda h: mise_new(m, mu0, sd0, h, n)
    h_new, mise_n = optimal_h(curve_new, (0.01 * sd0, hi))
    if hi < 3.0 * sd0 and hi - h_new < 1e-3 * sd0:
        raise MiseDomainError(
            f"case {case}, n={n}: optimum pinned at the formula's domain cap")
    curve_trad = lambda h: mise_kernel(m, h, n)
    h_trad, mise_t = optimal_h(curve_trad, (0.01 * sd0, 3.0 * sd0))
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
