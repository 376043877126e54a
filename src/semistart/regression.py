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

from .kernels import SQRT_2PI, KernelSpec, WindowSums, require_bandwidth
from .starts import _require_finite

__all__ = ["MeanStart", "RegressionFit", "fit_mean_start", "gnw_estimate", "nw_estimate"]

MEAN_KINDS = ("constant", "linear")
_CLIP_FRACTION = 0.05


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

    The constant fit needs one (x, y) pair, the straight line two.  The line
    is the centred closed form, slope sum u (y - ybar) / sum u^2 / s and
    intercept ybar - slope xbar, with u = (x - xbar)/s and s the spread of x,
    so it keeps its slope however far x lies from 0 next to its spread, and
    neither square over- nor underflows.
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
    spread = float(np.ptp(x))
    xbar, ybar = float(x.mean()), float(y.mean())
    u = x - xbar
    u /= spread
    slope = float(np.sum(u * (y - ybar)) / np.sum(u * u) / spread)
    return MeanStart("linear", np.array([ybar - slope * xbar, slope]))


def _sorted_pairs(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The pairs as fresh float arrays sorted by x, and by y among tied x.

    Any order of the same pairs gives the same arrays.  Without ties in x
    the plain argsort is that order, and much cheaper than lexsort; pairs
    already in that order, as a fit's own are, are only copied.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size == 0:
        raise ValueError("x and y must be equal-length and nonempty")
    _require_finite(x)
    _require_finite(y)
    tied = x[1:] == x[:-1]
    if np.all((x[1:] > x[:-1]) | (tied & (y[1:] >= y[:-1]))):
        return x.copy(), y.copy()
    order = np.argsort(x)
    xs = x[order]
    if np.any(xs[1:] == xs[:-1]):
        order = np.lexsort((y, x))
        xs = x[order]
    return xs, y[order]


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Pairs (x, y), a kernel, a bandwidth and a mean start.

    x and y are the fit's own read-only copies of the pairs, sorted by x
    and by y among tied x, which the smoothers sum in.  Built with them:
    the clip floor of the mean start, 5% of sd(y) (or 0.05 when y is
    constant), and the columns that the smoothers' sums weigh (_sums).  So
    no value depends on the order of the pairs.  They live in one
    kernels.WindowSums over x, whose moments and last sums later
    evaluations reuse: the two smoothers on one grid sum it once.
    """

    x: np.ndarray
    y: np.ndarray
    kernel: KernelSpec
    h: float
    mean_start: MeanStart
    floor: float = field(init=False, repr=False)
    # the sums of _sums over x, with the columns None (the weights), y and,
    # unless the mean start is constant, y_i/m(x_i)
    _windows: WindowSums = field(init=False, repr=False)

    def __post_init__(self):
        x, y = _sorted_pairs(self.x, self.y)
        require_bandwidth(self.h)
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "floor", _CLIP_FRACTION * float(y.std()) or _CLIP_FRACTION)
        cols = [None, y]
        if self.mean_start.kind != "constant":
            cols.append(y / _clipped_mean(self, x))
        object.__setattr__(self, "_windows", WindowSums(self.kernel.shape, self.h, x, cols))

    @classmethod
    def fit(cls, x, y, kernel: KernelSpec, h: float,
            kind: str = "linear") -> "RegressionFit":
        """A fit whose mean start is fitted on the sorted pairs, so in no order of them."""
        x, y = _sorted_pairs(x, y)  # sorted once: __post_init__ only copies pairs in order
        return cls(x, y, kernel, h, fit_mean_start(x, y, kind))


# the normalised kernel's weights at a point with local data sum to at least this
_LOG_MIN_WEIGHT = math.log(1e-300)


def _clipped_mean(fit: RegressionFit, x) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(fit.mean_start(x), dtype=float))
    small = np.abs(vals) < fit.floor
    signs = np.where(vals < 0.0, -1.0, 1.0)  # zero counts as positive
    return np.where(small, signs * fit.floor, vals)


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
    start has only the first, which then stands for both.  The points fill
    one windowed block for all three (kernels.WindowSums), so that each
    point has the same bits alone as in a grid.  The weights are the
    kernel's unnormalised profile K((x - x_i)/h), whose factor cancels in
    the ratio.
    """
    shape, h = fit.kernel.shape, float(fit.h)
    (wsum, *nums), t0 = fit._windows(pts)
    # no local data: the normalised kernel's weights, summed, fall below
    # 1e-300; in logs, with the factor exp(-t0^2/2) of the weights measured
    # from the nearest datum put back (t0 = d/h)
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(wsum)
        logw -= (math.log(SQRT_2PI) if shape == "gaussian" else 0.0) + math.log(h)
        logw -= 0.5 * t0 * t0
    bad = ~(logw >= _LOG_MIN_WEIGHT)
    if np.any(bad):
        raise ValueError(f"no local data: every kernel weight vanishes at x={float(pts[bad][0])}")
    return wsum, nums[0], nums[-1]


def nw_estimate(fit: RegressionFit, x):
    """Classic locally-weighted mean: the corrected smoother with a constant start."""
    return _smooth(fit, x, corrected=False)


def gnw_estimate(fit: RegressionFit, x):
    """Start-corrected smoother values at x, in x's shape; one point gives a float.

    A constant mean start makes every ratio m(x)/m(x_i) equal to 1, so the
    classic smoother's weighted mean is computed without either factor.
    """
    return _smooth(fit, x, corrected=fit.mean_start.kind != "constant")
