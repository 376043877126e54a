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
from functools import partial
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


class _Overlap:
    """sum_ij p_i p_j phi_s(mu_i - mu_j) with s^2 = sd_i^2 + sd_j^2 + extra.

    It is int (f * phi_h)(f * phi_h') for extra = h^2 + h'^2.  The pair
    tables that do not depend on `extra` are built once per mixture.
    """

    def __init__(self, m: NormalMixture):
        self.s2 = m.sds[:, None] ** 2 + m.sds[None, :] ** 2
        self.d = m.means[None, :] - m.means[:, None]
        self.pij = m.weights[:, None] * m.weights[None, :]

    def __call__(self, extra) -> np.ndarray:
        """One value per entry of `extra`."""
        extra = np.asarray(extra, dtype=float).reshape(-1, 1, 1)
        s = np.sqrt(self.s2 + extra)
        return _row_sums(self.pij * np.exp(-0.5 * (self.d / s) ** 2) / (SQRT_2PI * s))


def r_f(m: NormalMixture) -> float:
    """int f^2 for a normal mixture (pairwise gaussian overlaps)."""
    return float(_Overlap(m)(0.0)[0])


def _kernel_terms(overlap: _Overlap, hs: np.ndarray) -> tuple:
    """mise_kernel's n-free terms at the bandwidths hs: the overlaps at 2h^2 and at h^2.

    Both come from one overlap call.
    """
    both = overlap(np.concatenate([2.0 * hs * hs, hs * hs]))
    return both[:hs.size], both[hs.size:]


def _kernel_mise(hs: np.ndarray, terms, n: int, rf: float) -> np.ndarray:
    """mise_kernel at the bandwidths hs from its n-free terms and R(f)."""
    wide, narrow = terms
    return ((1.0 - 1.0 / n) * wide
            + 1.0 / (2.0 * SQRT_PI * n * hs)
            - 2.0 * narrow
            + rf)


def mise_kernel(m: NormalMixture, h, n: int):
    """Exact mise(h) of the plain kernel estimator with gaussian kernel.

    h is a bandwidth or an array of them; the result has the shape of h.
    """
    require_bandwidth(h)
    if n < 1:
        raise ValueError("n must be at least 1")
    hs = np.asarray(h, dtype=float).reshape(-1)
    overlap = _Overlap(m)
    return _shaped(_kernel_mise(hs, _kernel_terms(overlap, hs), n, float(overlap(0.0)[0])), h)


class _Radicands:
    """The squared helper quantities (b2, e2, c2, k2, f2) of the formula.

    Built for one mixture and start scale sd0; called at h, it returns one
    row per entry of h: b2, e2 and f2 are (H, K), c2 and k2 (H, K, K).  A
    call raises MiseDomainError naming the first one that is not strictly
    positive, in that order, and the first h at which it is not.
    """

    def __init__(self, m: NormalMixture, sd0: float):
        al = 1.0 / m.sds**2
        be = 1.0 / sd0**2
        self.al = al
        self.al_be = al - be
        self.al_2be = al - 2.0 * be
        self.al_sum = al[:, None] + al[None, :]
        self.al_be_sq = self.al_be ** 2
        self.al_2be_sq = self.al_2be ** 2

    def __call__(self, h):
        h = _column(h)
        h2 = h * h
        h2m = h2[:, :, None]

        def check(name, v):
            ok = (v > 0).reshape(h.shape[0], -1).all(axis=1)
            if not ok.all():
                bad = float(h[np.argmin(ok), 0])
                raise MiseDomainError(
                    f"mise formula domain violated: term {name}^2 <= 0 at h={bad!r}")
            return v

        b2 = check("b", 1.0 + h2 * self.al_be)
        e2 = check("e", 2.0 + h2 * self.al_2be)
        k2 = self.al_sum - self.al_be_sq[:, None] * h2m / b2[:, :, None]
        c2 = check("c", k2 - self.al_be_sq[None, :] * h2m / b2[:, None, :])
        check("k", k2)
        f2 = check("f", self.al - self.al_2be_sq * h2 / e2)
        return b2, e2, c2, k2, f2


class _NewTerms:
    """mise_new's n-free terms E A1(h), E A2(h) and E B(h), for one mixture and start.

    Called at h, a float or an array, it returns the three as arrays with
    one value per entry of h.  The parts of their exponents that do not
    depend on h are built once, grouped as the whole formula groups them,
    so every value keeps the formula's bits.
    """

    def __init__(self, m: NormalMixture, mu0: float, sd0: float):
        self.radicands = _Radicands(m, sd0)
        # per-component vectors are (K,) and pair matrices (K, K), with
        # component i on the first axis and j on the second
        log_p = np.log(m.weights)
        mm = m.means - mu0  # centred component locations
        sd = m.sds
        al = 1.0 / sd**2
        be = 1.0 / sd0**2
        ma = mm * al
        self.log_p = log_p
        self.log_sd = np.log(sd)
        self.log_phi = _log_phi_scaled(sd, mm)  # log phi_{sd_i}(mm_i)
        self.log_pp = HALF_LOG_2PI + log_p[:, None] + log_p[None, :]
        self.log_pp_phi = self.log_pp + self.log_phi[:, None] + self.log_phi[None, :]
        self.ma_sum = ma[:, None] + ma[None, :]
        self.pull = (al - be) * ma
        self.half_ma_sq = 0.5 * ma**2
        self.two_ma = 2.0 * ma
        self.half_mm_al = 0.5 * mm * mm * al

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, h) -> tuple:
        b2, e2, c2, k2, f2 = self.radicands(h)
        hc = _column(h)
        h2 = hc * hc
        h2m = h2[:, :, None]
        half_log_b2 = 0.5 * np.log(b2)
        boost = self.half_ma_sq * h2 / b2  # recurring exp{(mm_i a_i)^2 h^2 / 2 b_i^2}
        l = self.ma_sum - self.pull[:, None] * h2m / b2[:, :, None]
        d = l - self.pull[None, :] * h2m / b2[:, None, :]

        # off-diagonal part of E int fhat^2
        log_t = (self.log_pp - half_log_b2[:, :, None] - half_log_b2[:, None, :]
                 + self.log_phi[:, None] + self.log_phi[None, :]
                 - 0.5 * np.log(c2) + 0.5 * d * d / c2
                 + boost[:, :, None] + boost[:, None, :])
        ea1 = _row_sums(np.exp(log_t))

        # diagonal part of E int fhat^2
        g = self.two_ma / e2
        log_t2 = (self.log_p - np.log(hc) - HALF_LOG_2PI - self.log_sd
                  - 0.5 * np.log(e2 * f2) + 0.5 * g * g / f2
                  - self.half_mm_al + self.half_ma_sq * h2 / e2)
        ea2 = _row_sums(np.exp(log_t2))

        # cross term E int f fhat (start index i, truth index j)
        log_tb = (self.log_pp_phi - half_log_b2[:, :, None] - 0.5 * np.log(k2)
                  + boost[:, :, None] + 0.5 * l * l / k2)
        eb = _row_sums(np.exp(log_tb))
        return ea1, ea2, eb


@np.errstate(over="ignore", invalid="ignore")
def _new_mise(hs: np.ndarray, terms, n: int, rf: float) -> np.ndarray:
    """mise_new from its n-free terms and R(f); inf where E int fhat^2 passes the float range."""
    ea1, ea2, eb = terms
    mise = (1.0 - 1.0 / n) * ea1 + ea2 / n - 2.0 * eb + rf
    return np.where(np.isinf(ea2) | (n > 1) & np.isinf(ea1), np.inf, mise)


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
    return _shaped(_new_mise(None, _NewTerms(m, mu0, sd0)(h), n, r_f(m)), h)


def h_domain_cap(m: NormalMixture, sd0: float, h_max: float = np.inf) -> float:
    """Largest bandwidth at which every exact-mise radicand stays positive.

    The radicands all decrease in h, so the boundary is found by bisection,
    which stops once the midpoint rounds to an end: no later step could move
    the feasible end after that.  h_max is returned when no constraint
    binds below it (it may be infinite).
    """
    if not h_max > 0.0:  # NaN fails too
        raise ValueError(f"h_max must be positive, got {h_max!r}")
    radicands = _Radicands(m, sd0)

    def ok(h):
        try:
            radicands(h)
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


def _checked(hs: np.ndarray, vals) -> np.ndarray:
    """A curve's values at the bandwidths hs, checked to be one per bandwidth, none NaN or -inf."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != hs.shape:
        raise ValueError(f"curve must map an array of {hs.size} bandwidths to "
                         f"as many values, got shape {vals.shape}")
    bad = np.isnan(vals) | (vals == -np.inf)
    if bad.any():
        raise ValueError(f"curve value is not finite at h={float(hs[bad][0])!r}")
    return vals


def _golden_points(a, b, c, d, depth: int) -> list[float]:
    """Every point the next `depth` golden-section steps from (a, b, c, d) can ask for.

    Each step keeps [a, d] (and asks for a new c) or [c, b] (and asks for a
    new d), with the very expressions of _search's steps.  The brackets one
    step can start from form a level; each level gives the next its two
    children per bracket.
    """
    g = float(INV_GOLDEN)
    points: list[float] = []
    level = [(a, b, c, d)]
    for _ in range(depth):
        children = []
        for a, b, c, d in level:
            c_left = d - g * (d - a)  # b, d = d, c
            d_right = c + g * (b - c)  # a, c = c, d
            points += (c_left, d_right)
            children += ((a, d, c_left, c), (c, b, d, d_right))
        level = children
    return points


def _search(bracket: tuple[float, float]):
    """One curve minimisation, as a generator: coarse scan, then golden-section refine.

    It yields each array of bandwidths whose curve values it needs, is sent
    those values, and returns (h*, value at h*).  The scan guards against
    multimodal curves (comb-like truths produce two local minima); if
    several local minima show up, the scan is repeated at 4x resolution
    before refining around the global one.  Ties on the scan resolve toward
    smaller h.  The golden section asks at once for every point its next
    GOLDEN_DEPTH steps could ask for, then takes those steps one at a time.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    hs = np.linspace(lo, hi, SCAN_POINTS)
    vals = yield hs
    if np.count_nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) > 1:
        hs = np.linspace(lo, hi, 4 * SCAN_POINTS)
        vals = yield hs
    k = int(np.argmin(vals))
    a = float(hs[max(k - 1, 0)])
    b = float(hs[min(k + 1, hs.size - 1)])

    # golden-section on [a, b]
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = (yield np.array([c, d])).tolist()
    while b - a > TOL:
        points = _golden_points(a, b, c, d, GOLDEN_DEPTH)
        f = dict(zip(points, (yield np.array(points)).tolist()))
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
    return float(h_star), float((yield np.array([h_star]))[0])


def _lockstep(terms: Callable, curves: Sequence[Callable],
              bracket: tuple[float, float]) -> list[tuple[float, float]]:
    """Minimise curves that share their terms over one bracket: one _search each, in lockstep.

    Curve i at the bandwidths hs is curves[i](hs, terms(hs)), where terms
    returns a sequence of arrays with one value per bandwidth and each
    curve combines them elementwise.  Each round calls `terms` once, at
    every bandwidth any unfinished search asks for (each bandwidth once),
    and gives every search its curve's values there.  Returns each curve's
    (h*, value at h*).  A NaN or -inf value raises ValueError; inf, past
    the float range, is above all others.
    """
    searches = [_search(bracket) for _ in curves]
    asks = {i: next(s) for i, s in enumerate(searches)}
    found: list = [None] * len(searches)
    while asks:
        union, where = np.unique(np.concatenate(list(asks.values())), return_inverse=True)
        shared = terms(union)
        start = 0
        for i, hs in list(asks.items()):
            at = where[start:start + hs.size]
            start += hs.size
            vals = _checked(hs, curves[i](hs, [t[at] for t in shared]))
            try:
                asks[i] = searches[i].send(vals)
            except StopIteration as done:
                found[i] = done.value
                del asks[i]
    return found


def optimal_h(curve: Callable[[np.ndarray], np.ndarray],
              bracket: tuple[float, float]) -> tuple[float, float]:
    """Minimise a bandwidth curve: coarse scan, then golden-section refine.

    `curve` maps an array of bandwidths to the array of its values; this is
    _lockstep with one curve, whose term is the curve itself, so each scan
    is one curve call and so is each round of the golden section (see
    _search).  A NaN or -inf value raises ValueError; inf, past the float
    range, is above all others.
    """
    return _lockstep(lambda hs: [_checked(hs, curve(hs))], [lambda hs, t: t[0]], bracket)[0]


@dataclass(frozen=True)
class MiseReport:
    case_id: str
    n: int
    h_star_new: float
    mise_star_new: float
    h_star_trad: float
    mise_star_trad: float
    ratio: float


def _benchmark_row(case: int, n: int, sd0: float, hi: float,
                   new: tuple[float, float], trad: tuple[float, float]) -> MiseReport:
    """A table row from its two optima, refused where one is pinned at a bracket end.

    The corrected estimator's search ran up to hi, the traditional one's up
    to 3 sd0, and both from 0.01 sd0.
    """
    (h_new, mise_n), (h_trad, mise_t) = new, trad
    if hi < 3.0 * sd0 and hi - h_new < 1e-3 * sd0:
        raise MiseDomainError(
            f"case {case}, n={n}: optimum pinned at the formula's domain cap")
    for name, h in (("new", h_new), ("trad", h_trad)):
        if h - 0.01 * sd0 < 1e-3 * sd0:
            raise ValueError(f"case {case}, n={n}: the {name} estimator's optimum "
                             f"is pinned at the lower end of the search bracket")
    return MiseReport(str(case), n, h_new, mise_n, h_trad, mise_t, mise_n / mise_t)


def _case_rows(case: int, ns: list[int]) -> list[MiseReport]:
    """The rows of one test density, one per n, from one search per estimator.

    Every n shares the mixture, its domain cap and both brackets, and the
    terms of either estimator's mise that do not depend on n: each search
    evaluates those once per round at every bandwidth any row asks for,
    and each row adds its own n.
    """
    m = marron_wand(case)
    mu0, sd0 = mixture_moments(m)
    cap = h_domain_cap(m, sd0, h_max=3.0 * sd0)
    lo, hi = 0.01 * sd0, min(3.0 * sd0, 0.98 * cap)
    overlap = _Overlap(m)
    rf = float(overlap(0.0)[0])
    new = _lockstep(_NewTerms(m, mu0, sd0),
                    [partial(_new_mise, n=n, rf=rf) for n in ns], (lo, hi))
    trad = _lockstep(partial(_kernel_terms, overlap),
                     [partial(_kernel_mise, n=n, rf=rf) for n in ns], (lo, 3.0 * sd0))
    return [_benchmark_row(case, n, sd0, hi, *pair) for n, pair in zip(ns, zip(new, trad))]


def benchmark_table(cases: Iterable[int] = range(1, 16),
                    ns: Iterable[int] = (25, 50, 100, 200, 1000)) -> list[MiseReport]:
    """Best-case-vs-best-case table rows, one per (test density, n), by case then n."""
    cases = [int(c) for c in cases]
    ns = [int(n) for n in ns]
    for c in cases:
        if not 1 <= c <= 15:
            raise ValueError(f"test density case must be in 1..15, got {c}")
    if any(n < 1 for n in ns):
        raise ValueError("sample sizes must be positive")
    return [row for c in cases for row in _case_rows(c, ns)]


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
