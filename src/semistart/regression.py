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

from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelSpec, _normalise, _profile, for_blocks, require_bandwidth
from .starts import _require_finite

__all__ = ["MeanStart", "RegressionFit", "fit_mean_start", "gnw_estimate", "nw_estimate"]

MEAN_KINDS = ("constant", "linear")
_CLIP_FRACTION = 0.05


@dataclass(frozen=True, eq=False)
class MeanStart:
    kind: str
    beta: np.ndarray

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
    x: np.ndarray
    y: np.ndarray
    kernel: KernelSpec
    h: float
    mean_start: MeanStart

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if x.size != y.size or x.size == 0:
            raise ValueError("x and y must be equal-length and nonempty")
        _require_finite(x)
        _require_finite(y)
        require_bandwidth(self.h)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def fit(cls, x, y, kernel: KernelSpec, h: float,
            kind: str = "linear") -> "RegressionFit":
        return cls(x, y, kernel, h, fit_mean_start(x, y, kind))


def _clipped_mean(fit: RegressionFit, x) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(fit.mean_start(x), dtype=float))
    floor = _CLIP_FRACTION * float(fit.y.std())
    if floor == 0.0:
        floor = _CLIP_FRACTION
    small = np.abs(vals) < floor
    signs = np.where(vals < 0.0, -1.0, 1.0)  # zero counts as positive
    return np.where(small, signs * floor, vals)


def nw_estimate(fit: RegressionFit, x):
    """Classic locally-weighted mean: the corrected smoother with a constant start."""
    flat = MeanStart("constant", np.array([float(fit.y.mean())]))
    return gnw_estimate(replace(fit, mean_start=flat), x)


def gnw_estimate(fit: RegressionFit, x):
    """Start-corrected smoother values at x, in x's shape; one point gives a float.

    The kernel's normalising factor cancels in the ratio, so the weights are
    its unnormalised profile K((x - x_i)/h).  The ratio m(x)/m(x_i) splits
    into a column weight y_i/m(x_i) and a row factor m(x), applied after the
    row sums.  A constant mean start makes every ratio equal to 1, so the
    classic smoother's weighted mean is computed without either.
    """
    x = np.asarray(x, dtype=float)
    _require_finite(np.atleast_1d(x), "evaluation point")
    pts = x.ravel()
    corrected = fit.mean_start.kind != "constant"
    col = fit.y / _clipped_mean(fit, fit.x) if corrected else fit.y
    shape, h = fit.kernel.shape, fit.h
    wsum = np.empty(pts.size)
    num = np.empty(pts.size)

    def fill(rows):
        w = np.subtract(pts[rows, None], fit.x[None, :])
        idx, vals = _profile(shape, h, w, w)
        if idx.size:
            np.put(w, idx, vals)
        wsum[rows] = w.sum(axis=1)
        w *= col[None, :]
        num[rows] = w.sum(axis=1)

    for_blocks(pts.size, fit.x.size, fill)
    # no local data: the normalised kernel's weights, summed, fall below 1e-300
    weight = wsum.copy()
    _normalise(shape, h, weight)
    if np.any(weight < 1e-300):
        bad = pts[weight < 1e-300][0]
        raise ValueError(f"no local data: every kernel weight vanishes at x={float(bad)}")
    out = num / wsum
    if corrected:
        out *= _clipped_mean(fit, pts)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
