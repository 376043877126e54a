"""One-dimensional density estimators.

The centerpiece is the multiplicative correction of a parametric start:

    fhat(x) = fbar(x) * (1/n) sum_i K_h(X_i - x) / fbar(X_i)

where fbar is the (clip-floored) start density.  A constant start makes the
ratio 1 and gives back the plain kernel estimator, so a single code path
serves both.  The correction factor rhat(x) = (1/n) sum K_h(X_i - x)/fbar(X_i)
is also exposed on a grid, together with the standardized curve

    Z(x) = {log rhat(x) + R(K)/(2 n h fbar(x))} / {R(K)/(n h fbar(x))}^(1/2),

which is approximately N(0,1) pointwise when the start family is the truth,
making the plot a goodness-of-fit diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, eval_scaled, for_blocks, require_bandwidth
from .starts import FittedStart, _require_finite, eval_start

__all__ = [
    "DensityEstimate",
    "CorrectionCurve",
    "estimate_kernel",
    "estimate_semiparametric",
    "correction_curve",
    "integral_of_estimate",
]


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Data, kernel, bandwidth and start defining a fitted estimator.

    Built with it: den, the start density at the data (None for the constant
    start, whose ratio is 1), and divisor, the raw total mass when normalize
    is set and 1.0 otherwise.
    """

    data: np.ndarray
    kernel: KernelSpec
    h: float
    start: FittedStart
    normalize: bool = False
    den: np.ndarray | None = field(init=False, repr=False)
    divisor: float = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.data, dtype=float).ravel()
        if x.size == 0:
            raise ValueError("data must be nonempty")
        _require_finite(x)
        require_bandwidth(self.h)
        object.__setattr__(self, "data", x)
        den = None
        if self.start.family != "constant":
            den = np.atleast_1d(eval_start(self.start, x))
            if np.any(den <= 0):
                raise ValueError(
                    "start density vanishes at a data point; enable clipping or "
                    "choose a start family supported there")
        object.__setattr__(self, "den", den)
        # the mass integral reads den, never divisor
        object.__setattr__(self, "divisor", float(integral_of_estimate(self)[0])
                           if self.normalize else 1.0)

    @property
    def n(self) -> int:
        return self.data.size


def estimate_kernel(data, kernel: KernelSpec, h: float, x):
    """Plain kernel density estimate (1/n) sum K_h(X_i - x): the constant start."""
    flat = FittedStart("constant")
    return estimate_semiparametric(DensityEstimate(data, kernel, h, flat), x)


def _correction_sum(e: DensityEstimate, pts):
    """(1/n) sum K_h(X_i - x)/fbar(X_i) for one float x or a column of points."""
    vals = eval_scaled(e.kernel, e.h, e.data - pts)
    if e.den is not None:
        vals = vals / e.den
    return np.sum(vals, axis=-1) / e.n


def _correction_at(e: DensityEstimate, x: np.ndarray) -> np.ndarray:
    pts = x.ravel()
    out = np.empty(pts.size)

    def fill(rows):
        out[rows] = _correction_sum(e, pts[rows, None])

    for_blocks(pts.size, e.n, fill)
    return out.reshape(x.shape)


def _raw_at(e: DensityEstimate, x: float) -> float:
    """Un-normalised estimate at one float, the integrand of the total mass."""
    return eval_start(e.start, x) * float(_correction_sum(e, x))


def estimate_semiparametric(e: DensityEstimate, x):
    """Start-times-correction estimate at x (vectorised).

    One float, as quadrature asks for, skips the array handling and gives
    the same bits as that point inside an array.
    """
    if isinstance(x, float):
        return _raw_at(e, x) / e.divisor
    x = np.asarray(x, dtype=float)
    out = np.atleast_1d(eval_start(e.start, x)) * _correction_at(e, np.atleast_1d(x))
    if x.ndim == 0:
        out = out[0]
    out = out / e.divisor
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True, eq=False)
class CorrectionCurve:
    grid: np.ndarray
    r_hat: np.ndarray
    log_r: np.ndarray
    z: np.ndarray


def correction_curve(e: DensityEstimate, grid) -> CorrectionCurve:
    """Estimated correction factor and its standardized departure from 1.

    A constant start makes rhat the kernel estimate itself (nothing is being
    corrected); z is then a diagnostic against a flat density.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    r = _correction_at(e, grid)
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    fth = np.atleast_1d(eval_start(e.start, grid))
    v = e.kernel.rough_K / (e.n * e.h * fth)
    z = (log_r + 0.5 * v) / np.sqrt(v)
    return CorrectionCurve(grid, r, log_r, z)


def integral_of_estimate(e: DensityEstimate) -> tuple[float, float | None]:
    """Total mass of the raw estimate, plus the small-h kurtosis approximation.

    A constant start integrates to 1 exactly.  The normal-start gaussian-kernel
    pair has a closed form (valid for the unclipped start); anything else is
    integrated numerically.  The second value, 1 + g4 h^4 / (8 sd^4) with g4
    the sample excess kurtosis, is returned on the normal/gaussian path only.
    """
    if e.start.family == "constant":
        return 1.0, None
    approx = None
    if e.start.family == "normal" and e.kernel.shape == "gaussian":
        mu, sd = e.start.params["mu"], e.start.params["sd"]
        z = (e.data - mu) / sd
        g4 = float(np.mean(z**4)) - 3.0
        approx = 1.0 + g4 * e.h**4 / (8.0 * sd**4)
        if e.start.clip is None:
            h2 = e.h * e.h
            val = float(np.mean(np.exp(0.5 * h2 * (e.data - mu) ** 2 /
                                       (sd * sd * (sd * sd + h2)))))
            return val / np.sqrt(1.0 + h2 / (sd * sd)), approx
    from scipy.integrate import quad
    lo = float(e.data.min()) - 12.0 * e.h
    hi = float(e.data.max()) + 12.0 * e.h
    val, _ = quad(lambda t: _raw_at(e, t), lo, hi, limit=400, epsabs=1e-10)
    return float(val), approx
