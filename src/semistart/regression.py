"""Kernel regression with a parametric mean start.

The classic locally-weighted mean smoother divides a kernel-weighted sum of
responses by the summed weights.  Starting from a fitted parametric mean
m(x, beta) and smoothing the ratios y_i / m(x_i, beta) instead multiplies
each response by m(x, beta)/m(x_i, beta):

    mhat(x) = sum_i y_i {m(x, beta)/m(x_i, beta)} K_h(x - x_i) / sum_i K_h(x - x_i)

which inherits the smoother's variance while flattening its bias whenever
the ratio curve y/m is less curved than the mean itself.  Because fitted
means can cross zero, evaluations are floored in magnitude at a small
fraction of sd(y), keeping their sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import SQRT_2PI, KernelSpec, _profile, for_each_block, require_bandwidth
from .starts import _require_finite

__all__ = ["MeanStart", "RegressionFit", "fit_mean_start", "gnw_estimate", "nw_estimate"]

MEAN_KINDS = ("constant", "linear")
_CLIP_FRACTION = 0.05
_SQRT_2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class MeanStart:
    """A constant or straight-line mean, with its own read-only copy of beta, so that
    no later write to the caller's array changes a fit's kept sums."""

    kind: str
    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.beta[0], x.shape).copy() if x.ndim else float(self.beta[0])
        return self.beta[0] + self.beta[1] * x


def fit_mean_start(x, y, kind: str = "linear") -> MeanStart:
    """Least-squares constant or straight-line mean fit.

    The constant fit needs one (x, y) pair, the straight line two.
    """
    if kind not in MEAN_KINDS:
        raise ValueError(f"mean start kind must be one of {MEAN_KINDS}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size == 0:
        raise ValueError("x and y must be equal-length and nonempty")
    _require_finite(x)
    _require_finite(y)
    if kind == "constant":
        return MeanStart("constant", np.array([float(y.mean())]))
    if x.size < 2:
        raise ValueError("the linear mean start needs at least 2 (x, y) pairs")
    if np.ptp(x) == 0.0:
        raise ValueError("all x equal: the linear fit is degenerate")
    design = np.column_stack([np.ones_like(x), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return MeanStart("linear", beta)


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Pairs (x, y), a kernel, a bandwidth and a mean start.

    Built with them: the pairs sorted by x (xs, ys, read-only), which the
    smoothers sum in, the widest gap between consecutive xs, and the clip
    floor of the mean start, 5% of sd(y) (or 0.05 when y is constant), taken
    over ys, so that no value depends on the order of pairs with distinct x.
    The sums of both smoothers at the points of the last evaluation are
    kept, so that the two smoothers on one grid sum it once.
    """

    x: np.ndarray
    y: np.ndarray
    kernel: KernelSpec
    h: float
    mean_start: MeanStart
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    floor: float = field(init=False, repr=False)
    gap: float = field(init=False, repr=False)
    # one slot: (raveled points, weight sums, classic and corrected numerators)
    # of the last evaluation
    _last: list = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if x.size != y.size or x.size == 0:
            raise ValueError("x and y must be equal-length and nonempty")
        _require_finite(x)
        _require_finite(y)
        require_bandwidth(self.h)
        order = np.argsort(x)
        xs, ys = x[order], y[order]
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "_last", [None])
        object.__setattr__(self, "floor", _CLIP_FRACTION * float(ys.std()) or _CLIP_FRACTION)
        object.__setattr__(self, "gap", float(np.diff(self.xs).max(initial=0.0)))

    @classmethod
    def fit(cls, x, y, kernel: KernelSpec, h: float,
            kind: str = "linear") -> "RegressionFit":
        return cls(x, y, kernel, h, fit_mean_start(x, y, kind))


def _clipped_mean(fit: RegressionFit, x) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(fit.mean_start(x), dtype=float))
    small = np.abs(vals) < fit.floor
    signs = np.where(vals < 0.0, -1.0, 1.0)  # zero counts as positive
    return np.where(small, signs * fit.floor, vals)


# Gaussian weights.  A point x's nearest datum x0 lies d = |x - x0| away.
# Data farther than R = hypot(d, h * sqrt(_gauss_reach(n)^2 + 2 ln(c/c0)))
# from x, with c the largest column weight |y_i/m(x_i)| and c0 x0's, each
# weigh below 2^-60 c0/(n c) of x0's weight exp(-d^2/(2 h^2)), and are left
# out: together they move the numerator by below 2^-60 of x0's term and the
# weight sum by below 2^-60 of x0's weight, so the value by below 2^-59 of
# the terms' scale sum_i w_i |r_i y_i| / sum_i w_i.  (A c0 of 0 keeps every
# datum.)  The window serves both smoothers, so 2 ln(c/c0) is the larger of
# their columns' (y_i and y_i/m(x_i)): a wider reach only leaves out less.
# Within one bandwidth of the data the weights take the form of squares,
# exp(((x - x_i)/h)^2 * -0.5), the profile's; their exponents stay
# above -(1/2 + ln n + 60 ln 2 + ln(c/c0)) within the reach, so none is tiny
# or subnormal unless c/c0 is above about e^600.  Farther out the exponent is
# measured from x0's, -(x0 - x_i)((x - x_i) + (x - x0))/(2 h^2), whose
# factors are differences of the data: the largest weight is exactly 1, and
# nothing is lost to the large squares that would cancel in
# (x - x_i)^2 - d^2.  The data a window's rounding adds lie beyond the
# reach, and may weigh a tiny or subnormal amount, or 0.0.  The squares take
# 8 passes over a block and the form measured from x0 10: using the latter
# everywhere made a call 30-45% slower.
def _gauss_reach(n: int) -> float:
    return math.sqrt(2.0 * math.log(n) + 120.0 * math.log(2.0))


# A point more than _FAR bandwidths from every datum has no local data under
# the gaussian kernel at any normal h and any n below 2^53: its normalised
# weight sum, at most n exp(-_FAR^2/2)/(sqrt(2 pi) h), is below 1e-300.
_FAR = 60.0
_LOG_MIN_WEIGHT = math.log(1e-300)


@np.errstate(over="ignore", divide="ignore")
def _plan(fit: RegressionFit, pts: np.ndarray, cols: list):
    """The blocks of points that share a window and a form, and their nearest data.

    Each point's window [lo, hi) of the sorted data holds every datum within
    the kernel's reach of it for every column weight of cols.  It is rounded
    outward to multiples of a granule g that depends on n alone, so that a
    grid has few distinct windows while each stays a function of its point.
    A gaussian point more than _FAR bandwidths from the data gets an empty
    window.  Returns the
    blocks (_blocks) and, for the gaussian kernel, each point's offset
    x - x0 from its nearest datum x0, x0 itself, and whether its weights
    take the form of squares: where the point lies within one bandwidth of
    the data.  The compact kernels get None for all three; so do the
    gaussian grids whose every window is all the data and whose every point
    takes the form of squares, found without a search.  Reaches, distances
    and ratios that overflow to inf make full or empty windows.
    """
    xs, h = fit.xs, float(fit.h)
    n = xs.size
    first, last = float(xs[0]), float(xs[-1])
    lowest, highest = float(pts.min(initial=np.inf)), float(pts.max(initial=-np.inf))
    if fit.kernel.shape == "gaussian":
        r = 0.99 * h * _gauss_reach(n)  # below the least reach, however that rounds
        # no gap between the data wider than 2 h: every point of
        # [first - h, last + h] lies within h of a datum
        tight = fit.gap <= 2.0 * h
        if (tight and first - h <= lowest and highest <= last + h
                and highest - r <= first and lowest + r >= last):
            return [(rows, 0, n, True) for rows in kernels.row_blocks(pts.size, n)], None, None, None
        j = np.searchsorted(xs, pts)
        left, right = np.maximum(j - 1, 0), np.minimum(j, n - 1)
        j0 = np.where(pts - xs[left] <= xs[right] - pts, left, right)
        x0 = xs[j0]
        off = pts - x0
        dist = np.abs(off)
        near = (tight & (first - h <= pts) & (pts <= last + h)) | (dist <= h)
        widen = 0.0
        for col in cols:
            c = np.abs(col)
            top = float(c.max())
            if top > 0.0:
                widen = np.maximum(widen, 2.0 * (math.log(top) - np.log(c[j0])))
        reach = np.hypot(dist, h * np.sqrt(_gauss_reach(n) ** 2 + widen))
        # the window holds x0 however x -+ reach rounds
        below, above = np.minimum(pts - reach, x0), np.maximum(pts + reach, x0)
    else:
        # the support |x - x_i| <= h/2, widened by a few ulps of h and of x
        # so that no datum whose weight is not 0.0 falls outside
        reach = h * (0.5 + 2.0**-50) + 4.0 * np.spacing(np.abs(pts) + h)
        below, above = pts - reach, pts + reach
        off = x0 = near = None
    # lo is the greatest multiple of g with every datum before it below the
    # reach, and hi the least multiple of g (or n) with every datum from it on
    # above; the searches are skipped where every window starts at 0 or ends at n
    g = max(1, math.isqrt(n))
    firsts, lasts = xs[g - 1::g], xs[::g]
    lo = (np.zeros(pts.size, dtype=np.intp) if below.max(initial=-np.inf) <= firsts[0]
          else g * np.searchsorted(firsts, below, side="left"))
    hi = (np.full(pts.size, n) if above.min(initial=np.inf) >= lasts[-1]
          else np.minimum(g * np.searchsorted(lasts, above, side="right"), n))
    if off is not None:
        far = dist > _FAR * h
        hi[far] = lo[far]
    return _blocks(lo, hi, near, n), off, x0, near


def _smooth(fit: RegressionFit, x, corrected: bool):
    """The smoother at x, in x's shape; one point gives a float.

    The mean ratio m(x)/m(x_i) splits into a column weight y_i/m(x_i) and a
    row factor m(x), applied after the sums (_sums).
    """
    x = np.asarray(x, dtype=float)
    _require_finite(np.atleast_1d(x), "evaluation point")
    pts = x.ravel()
    wsum, num, cnum = _sums(fit, pts)
    if corrected:
        out = cnum / wsum
        out *= _clipped_mean(fit, pts)
    else:
        out = num / wsum
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _sums(fit: RegressionFit, pts: np.ndarray):
    """The weight sums and the classic and corrected numerators at the points pts.

    The numerators sum the column weights y_i and y_i/m(x_i); a constant mean
    start has only the first, which then stands for both.  Points equal to
    those of fit's last evaluation take its stored sums; other points fill
    one windowed block for all three.  Each point sums over its own window
    of the sorted data (_plan), so it has the same bits alone as in a grid.
    The weights are the kernel's unnormalised profile K((x - x_i)/h), whose
    factor cancels in the ratio; the gaussian's take one of the two forms
    described above _gauss_reach.
    """
    last = fit._last[0]
    if last is not None and np.array_equal(last[0], pts):
        return last[1:]
    shape, h, xs, ys = fit.kernel.shape, float(fit.h), fit.xs, fit.ys
    cols = [ys] if fit.mean_start.kind == "constant" else [ys, ys / _clipped_mean(fit, xs)]
    blocks, off, x0, near = _plan(fit, pts, cols)
    hs = h * _SQRT_2
    wsum = np.zeros(pts.size)
    nums = [np.zeros(pts.size) for _ in cols]

    @np.errstate(over="ignore")  # a datum the granule adds may lie far out: weight 0.0
    def fill(block):
        rows, a, b, squares = block
        w = np.subtract(pts[rows, None], xs[None, a:b])
        if shape != "gaussian":
            _profile(shape, h, w, w)
        elif squares:
            w /= h
            np.multiply(w, w, out=w)
            w *= -0.5
            np.exp(w, out=w)
        else:
            w += off[rows, None]
            w /= hs
            d = np.subtract(x0[rows, None], xs[None, a:b])
            d /= -hs
            w *= d
            np.exp(w, out=w)
        wsum[rows] = w.sum(axis=1)
        if len(cols) == 2:
            nums[0][rows] = np.multiply(w, ys[None, a:b]).sum(axis=1)
        w *= cols[-1][None, a:b]
        nums[-1][rows] = w.sum(axis=1)

    for_each_block(blocks, fill)
    # no local data: the normalised kernel's weights, summed, fall below
    # 1e-300; in logs, with the factor exp(-t0^2/2) of the weights measured
    # from the nearest datum put back (t0 = d/h, inf far out)
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(wsum)
        if shape == "gaussian":
            logw -= math.log(SQRT_2PI) + math.log(h)
            if off is not None:
                t0 = np.where(near, 0.0, off) / h
                logw -= 0.5 * t0 * t0
        else:
            logw -= math.log(h)
    bad = ~(logw >= _LOG_MIN_WEIGHT)
    if np.any(bad):
        raise ValueError(f"no local data: every kernel weight vanishes at x={float(pts[bad][0])}")
    fit._last[0] = (pts.copy(), wsum, nums[0], nums[-1])
    return wsum, nums[0], nums[-1]


def _blocks(lo, hi, near, n: int) -> list:
    """Row blocks (rows, lo, hi, squares) of the points sharing a window and a form.

    Point k's window is [lo[k], hi[k]) and near[k] (all False where near is
    None) says whether its weights take the form of squares.  Each block
    holds at most BLOCK_ELEMENTS weights, or one row when a window alone is
    longer; points with an empty window get none.  rows is a slice where the
    points of a block are consecutive, as in a sorted grid.
    """
    key = lo * (n + 1) + hi
    if near is not None:
        key = key * 2 + near
    rows = np.flatnonzero(hi > lo)
    if rows.size < key.size:
        key = key[rows]
    if np.any(key[1:] < key[:-1]):  # a grid out of order
        order = np.argsort(key, kind="stable")  # keeps the rows of a window in order
        key, rows = key[order], rows[order]
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    out = []
    for s, e in zip([0] + cuts, cuts + [key.size]) if key.size else ():
        r = int(rows[s])
        a, b = int(lo[r]), int(hi[r])
        squares = near is not None and bool(near[r])
        step = max(1, kernels.BLOCK_ELEMENTS // (b - a))
        run = int(rows[e - 1]) - r == e - s - 1
        out += [(slice(r + i - s, r + min(i + step, e) - s) if run else rows[i:min(i + step, e)],
                 a, b, squares)
                for i in range(s, e, step)]
    return out


def nw_estimate(fit: RegressionFit, x):
    """Classic locally-weighted mean: the corrected smoother with a constant start."""
    return _smooth(fit, x, corrected=False)


def gnw_estimate(fit: RegressionFit, x):
    """Start-corrected smoother values at x, in x's shape; one point gives a float.

    A constant mean start makes every ratio m(x)/m(x_i) equal to 1, so the
    classic smoother's weighted mean is computed without either factor.
    """
    return _smooth(fit, x, corrected=fit.mean_start.kind != "constant")
