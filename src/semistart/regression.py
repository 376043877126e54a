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

from .kernels import KernelSpec, eval_scaled, row_blocks
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
    """Least-squares constant or straight-line mean fit."""
    if kind not in MEAN_KINDS:
        raise ValueError(f"mean start kind must be one of {MEAN_KINDS}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least 2 (x, y) pairs")
    _require_finite(x)
    _require_finite(y)
    if kind == "constant":
        return MeanStart("constant", np.array([float(y.mean())]))
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
        if self.h <= 0:
            raise ValueError("bandwidth h must be positive")
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
    """Start-corrected smoother value(s) at x.

    A constant mean start makes every ratio m(x)/m(x_i) equal to 1, so the
    classic smoother's weighted mean is computed without the ratios.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = np.atleast_1d(x)
    corrected = fit.mean_start.kind != "constant"
    if corrected:
        m_pts, m_data = _clipped_mean(fit, pts), _clipped_mean(fit, fit.x)
    wsum = np.empty(pts.size)
    num = np.empty(pts.size)
    for rows in row_blocks(pts.size, fit.x.size):
        w = eval_scaled(fit.kernel, fit.h, pts[rows, None] - fit.x[None, :])
        wsum[rows] = w.sum(axis=1)
        if corrected:
            ratio = m_pts[rows, None] / m_data[None, :]
            num[rows] = (w * ratio * fit.y[None, :]).sum(axis=1)
        else:
            num[rows] = (w * fit.y[None, :]).sum(axis=1)
    if np.any(wsum < 1e-300):
        bad = pts[wsum < 1e-300][0]
        raise ValueError(f"no local data: every kernel weight vanishes at x={bad!r}")
    out = num / wsum
    return float(out[0]) if scalar else out
