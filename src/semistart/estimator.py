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

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import SQRT_2PI, KernelSpec, WindowSums, _base_pdf, require_bandwidth
from .special import _erf as erf, ndtr
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

    Built with it: data, the estimate's own read-only copy of the data,
    sorted, so that a later write to the caller's array changes no
    evaluation and no value depends on the data's order; den, the start
    density there (None for the constant start, whose ratio is 1); and
    divisor, the raw total mass when normalize is set and 1.0 otherwise.
    It holds one kernels.WindowSums over the data and den, whose weights,
    moments and last sums later evaluations reuse: the estimate and its
    curve on one grid sum once.
    """

    data: np.ndarray
    kernel: KernelSpec
    h: float
    start: FittedStart
    normalize: bool = False
    den: np.ndarray | None = field(init=False, repr=False)
    divisor: float = field(init=False, repr=False)
    _windows: WindowSums = field(init=False, repr=False)

    def __post_init__(self):
        x = np.array(self.data, dtype=float).ravel()
        if x.size == 0:
            raise ValueError("data must be nonempty")
        _require_finite(x)  # in the caller's order, so that an error names its index
        require_bandwidth(self.h)
        x.sort()
        x.flags.writeable = False
        object.__setattr__(self, "data", x)
        den = None
        if self.start.family != "constant":
            den = np.atleast_1d(eval_start(self.start, x))
            if np.any(den <= 0):
                raise ValueError(
                    "start density vanishes at a data point; enable clipping or "
                    "choose a start family supported there")
            den.flags.writeable = False
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_windows", WindowSums(self.kernel.shape, self.h, x, [None], den))
        # the mass integral reads den, never divisor
        divisor = integral_of_estimate(self) if self.normalize else 1.0
        if not 0.0 < divisor < math.inf:
            raise ValueError(f"cannot normalise: the raw estimate's total mass came out "
                             f"{divisor!r} at h={self.h!r}, not a finite positive number")
        object.__setattr__(self, "divisor", divisor)

    @property
    def n(self) -> int:
        return self.data.size


def estimate_kernel(data, kernel: KernelSpec, h: float, x):
    """Plain kernel density estimate (1/n) sum K_h(X_i - x): the constant start."""
    flat = FittedStart("constant")
    return estimate_semiparametric(DensityEstimate(data, kernel, h, flat), x)


def _sums_at(e: DensityEstimate, pts: np.ndarray):
    """The correction sums rhat and their logs at the points pts, as fresh arrays.

    Each point sums sum_i K_h(x - X_i)/fbar(X_i) over its window of the
    sorted data (kernels.WindowSums), so it has the same bits alone as in a
    grid.  log rhat is log S - t0^2/2 - log(n sqrt(2 pi) h), S the windowed
    sum of the profile's weights over fbar and t0 the point's offset from the
    nearest datum in bandwidths, 0 where the weights take the form of
    squares; where t0 is not 0, rhat is exp(log rhat), as exp(-t0^2/2) alone
    may underflow.
    """
    h = float(e.h)
    gaussian = e.kernel.shape == "gaussian"
    (s,), t0 = e._windows(pts)
    r = s / SQRT_2PI if gaussian else s.copy()
    r /= h
    r /= e.n
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.log(s)
        log_r -= math.log(e.n) + math.log(h) + (math.log(SQRT_2PI) if gaussian else 0.0)
        log_r -= 0.5 * t0 * t0
        far = t0 != 0.0
        r[far] = np.exp(log_r[far])
    return r, log_r


def _correction_at(e: DensityEstimate, x: np.ndarray) -> np.ndarray:
    """The correction sums at the points of x, in x's shape, as a fresh array."""
    return _sums_at(e, x.ravel())[0].reshape(x.shape)


def estimate_semiparametric(e: DensityEstimate, x):
    """Start-times-correction estimate at x (vectorised); one point gives a float."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_1d(x)
    _require_finite(pts, "evaluation point")
    out = eval_start(e.start, pts) * _correction_at(e, pts)
    if x.ndim == 0:
        out = out[0]
    out = out / e.divisor
    return out if np.ndim(out) else float(out)


# the smallest normal float
_TINY = float(np.finfo(float).tiny)
_SQRT_HALF = math.sqrt(0.5)


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
    _require_finite(grid, "evaluation point")
    fth = np.atleast_1d(eval_start(e.start, grid))
    with np.errstate(divide="ignore", over="ignore"):
        v = e.kernel.rough_K / (e.n * e.h * fth)
    if not np.all(np.isfinite(v)):
        k = np.flatnonzero(~np.isfinite(v))[0]
        raise ValueError(f"start density is too small at x={float(grid[k])} "
                         f"(fbar = {float(fth[k])!r}) for z's variance R(K)/(n h fbar(x)) "
                         "to be finite; enable clipping or choose a start family supported there")
    r, log_sum = _sums_at(e, grid)
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    # below the smallest normal float np.log(r) loses digits, and is -inf at 0.0
    low = r < _TINY
    log_r[low] = log_sum[low]
    z = (log_r + 0.5 * v) / np.sqrt(v)
    return CorrectionCurve(grid, r, log_r, z)


def integral_of_estimate(e: DensityEstimate) -> float:
    """Total mass of the raw estimate.

    A constant start integrates to 1 exactly and the normal start has a
    closed form (_normal_start_mass); the other starts are integrated by
    quadpack.qags.
    """
    if e.start.family == "constant":
        return 1.0
    if e.start.family == "normal":
        return _normal_start_mass(e)
    from .quadpack import qags
    lo = float(e.data[0]) - 12.0 * e.h
    hi = float(e.data[-1]) + 12.0 * e.h
    # the raw estimate: the divisor is not built yet
    val, _ = qags(lambda t: eval_start(e.start, t) * _correction_at(e, t), lo, hi,
                  limit=400, epsabs=1e-10)
    return val


# A compact kernel's piece of the central region is integrated by a fixed
# Gauss-Legendre rule up to this width, in start sds, and by truncated-normal
# moments beyond it: the moments cancel O(1) terms to an O(w^3) result on a
# short piece, and the rule's error grows with the piece's width.
_GL_NODES = 24
_GL_MAX_WIDTH = 6.0


def _normal_start_mass(e: DensityEstimate) -> float:
    """(1/n) sum_i M_i/fbar(X_i), M_i = int fbar(x) K_h(x - X_i) dx, for the normal start.

    In the start's sd units, with z_i = (X_i - mu)/sd, u = h/sd and the
    central region [-c, c] (the whole line when unclipped), M_i is the floor
    times the kernel's mass beyond each clip edge, plus the integral of
    phi(y) K((y - z_i)/u)/u over the region.  With the gaussian kernel that
    is a gaussian product: phi_s(z_i) times the normal mass of the region
    under N(z_i q, tau^2), s^2 = 1 + u^2, q = 1/s^2, tau = u/s.  A compact kernel's
    integral is taken over its support within the region, in t = (y - z_i)/u.
    Each inside term is divided by fbar(X_i) as exp(-z_r^2/2)/(sqrt(2 pi) sd),
    z_r = min(|z_i|, c), inside the exponent, so that no far datum's ratio
    underflows, and no product h*h is formed, so none overflows.
    """
    mu, sd = e.start.params["mu"], e.start.params["sd"]
    shape, h = e.kernel.shape, float(e.h)
    u = h / sd
    z = (e.data - mu) / sd
    c = math.inf if e.start.clip is None else float(e.start.clip)
    zr = np.minimum(np.abs(z), c)
    ratio = np.zeros(e.n)
    with np.errstate(over="ignore", divide="ignore"):  # +-inf limits at a tiny h
        half_gap = 0.5 * (zr * zr - z * z)  # log phi(z)/phi(z_r): 0.0 inside the region
        if e.start.floor is not None:
            lo, hi, flo, fhi = e.start.floor
            ratio += (flo * _kernel_cdf(shape, (lo - e.data) / h)
                      + fhi * _kernel_cdf(shape, (e.data - hi) / h)) / e.den
        if shape == "gaussian":
            # s = sqrt(1 + u^2), tau = u/s <= 1, q = 1/s^2 and p = 1 - q = tau^2;
            # the squares of 1/s and tau may underflow but never overflow
            s = math.hypot(1.0, u)
            tau = u / s
            # phi_s(z)/phi(z) = exp(z^2 p/2)/s, as z^2 - z^2 q = z^2 p
            inside = np.exp(half_gap + 0.5 * (z * z) * (tau * tau)) / s
            if c < math.inf:
                m = z * ((1.0 / s) * (1.0 / s))
                inside *= [_normal_mass((-c - mi) / tau, (c - mi) / tau) for mi in m.tolist()]
            ratio += inside
        else:
            t_lo = np.maximum((-c - z) / u, -0.5)
            t_hi = np.minimum((c - z) / u, 0.5)
            live = t_lo < t_hi
            narrow = live & ((t_hi - t_lo) * u <= _GL_MAX_WIDTH)
            if narrow.any():
                nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
                a, b, zn = t_lo[narrow, None], t_hi[narrow, None], z[narrow, None]
                t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
                # log phi(z + u t)/phi(z_r) = half_gap - u t (z + u t/2)
                f = _base_pdf(shape, t) * np.exp(half_gap[narrow, None]
                                                 - u * t * (zn + 0.5 * u * t))
                ratio[narrow] += 0.5 * (b[:, 0] - a[:, 0]) * (f @ weights)
            wide = live & ~narrow
            if wide.any():
                ratio[wide] += _compact_moments(shape, z[wide], u, zr[wide],
                                                t_lo[wide], t_hi[wide])
    return float(np.sum(ratio)) / e.n


def _kernel_cdf(shape: str, t: np.ndarray) -> np.ndarray:
    """The kernel's mass below each point of t."""
    if shape == "gaussian":
        return np.array([ndtr(v) for v in t.tolist()])
    s = np.clip(t, -0.5, 0.5)
    if shape == "uniform":
        return s + 0.5
    return (1.0 + 2.0 * s) ** 2 * (1.0 - s) / 2.0  # epanechnikov, no cancellation at -1/2


def _normal_mass(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a <= b, from the tail nearer each limit or from erf."""
    if a >= 0.0:
        return ndtr(-a) - ndtr(-b)
    if b <= 0.0:
        return ndtr(b) - ndtr(a)
    return 0.5 * (erf(b * _SQRT_HALF) + erf(-a * _SQRT_HALF))


def _compact_moments(shape: str, z: np.ndarray, u: float, zr: np.ndarray,
                     t_lo: np.ndarray, t_hi: np.ndarray) -> np.ndarray:
    """int phi(y) K((y - z)/u)/u dy over y = z + u t, t in [t_lo, t_hi], over phi(z_r).

    From the truncated-normal moments about z of order <= 2 (Johnson, Kotz &
    Balakrishnan 1994, ch. 13), each over phi(z_r): J_0 = Phi(b) - Phi(a),
    J_1 = phi(a) - phi(b) - z J_0 and J_2 = (a - z) phi(a) - (b - z) phi(b) + J_0 - z J_1.
    """
    a, b = z + u * t_lo, z + u * t_hi
    pa, pb = np.exp(0.5 * (zr * zr - a * a)), np.exp(0.5 * (zr * zr - b * b))
    j0 = np.array([_normal_mass(ai, bi) for ai, bi in zip(a.tolist(), b.tolist())])
    j0 *= SQRT_2PI * np.exp(0.5 * (zr * zr))
    if shape == "uniform":
        return j0 / u
    j1 = pa - pb - z * j0
    j2 = (a - z) * pa - (b - z) * pb + j0 - z * j1
    return 1.5 / u * (j0 - 4.0 * j2 / u / u)
