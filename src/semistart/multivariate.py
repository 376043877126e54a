"""d-dimensional corrected estimation with a multinormal start.

Data are sphered (affinely mapped to zero mean and identity covariance), a
single bandwidth smooths the sphered variables with a gaussian product
kernel, and the standard multinormal acts as the start in sphered space.
Mapping back multiplies by |cov|^(-1/2), which keeps the estimator an
(approximate) density and makes it exactly affine equivariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bandwidth import BandwidthChoice
from .hermite import hermite_poly
from .kernels import SQRT_2PI, for_blocks, require_bandwidth
from .starts import _require_finite

__all__ = ["MvEstimate", "mv_kernel_estimate", "mv_estimate", "sphere", "mv_bandwidth"]

_MIN_COND = 1e-10
# Hermite expansion degree of the d-dimensional rule: multi-indices |J| <= 4
MV_MAX_DEGREE = 4


def _as_matrix(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("data must be an n x d matrix")
    return x


def _cov_factor(cov: np.ndarray):
    """Symmetric square root and inverse root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= _MIN_COND * vals.max() or vals.min() <= 0:
        raise ValueError("covariance is not (numerically) positive definite")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    return root, inv_root


def _moments(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, mean, cov): the data matrix and its sample moments (n denominator)."""
    x = _as_matrix(data)
    _require_finite(x)  # before the moments, which inf would turn into nan
    n, d = x.shape
    if n < d + 1:
        raise ValueError("need at least d + 1 observations to estimate the moments")
    mean = x.mean(axis=0)
    xc = x - mean
    return x, mean, xc.T @ xc / n


def sphere(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Y, mean, cov_root) with Y = cov^(-1/2) (X - mean).

    mean and covariance are the sample moments, so Y has sample mean
    exactly 0 and sample covariance exactly the identity.
    """
    x, mean, cov = _moments(data)
    root, inv_root = _cov_factor(cov)
    return (x - mean) @ inv_root.T, mean, root


def _sq_radii(y: np.ndarray, clip: float | None) -> np.ndarray:
    """Squared radii |y_i|^2 of sphered rows, capped at clip^2 unless clip is None."""
    q = np.sum(y * y, axis=1)
    return q if clip is None else np.minimum(q, clip**2)


def _pairwise_sq_blocks(a: np.ndarray, b: np.ndarray, fill) -> None:
    """fill(rows, |a_i - b_j|^2) over row blocks of a, never an (m, n, d) array.

    The blocks run through for_blocks, so fill writes only its own rows.
    The squared norms of b are computed once and shared by every block.
    """
    b_sq = np.sum(b * b, axis=1)[None, :]

    def fill_sq(rows):
        ar = a[rows]
        sq = np.sum(ar * ar, axis=1)[:, None] + b_sq - 2.0 * ar @ b.T
        fill(rows, np.maximum(sq, 0.0))

    for_blocks(a.shape[0], b.shape[0], fill_sq)


def mv_kernel_estimate(data, bandwidths, x):
    """Plain product-gaussian kernel estimate at the point(s) x."""
    dat = _as_matrix(data)
    _require_finite(dat)
    n, d = dat.shape
    h = np.broadcast_to(np.asarray(bandwidths, dtype=float), (d,))
    require_bandwidth(h)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else _as_matrix(x)
    out = np.empty(pts.shape[0])

    def fill(rows, sq):
        log_k = -0.5 * sq - d * np.log(SQRT_2PI) - np.log(h).sum()
        out[rows] = np.exp(log_k).mean(axis=1)

    _pairwise_sq_blocks(pts / h, dat / h, fill)
    return float(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class MvEstimate:
    """Multinormal-start corrected estimator in d dimensions.

    Built with it: inv_root = cov^(-1/2), the sphered data, their squared
    radii clipped at `clip`, and half the log-determinant of cov.
    """

    data: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    h: float
    clip: float | None = 2.5
    inv_root: np.ndarray = field(init=False, repr=False)
    sphered: np.ndarray = field(init=False, repr=False)
    q_data: np.ndarray = field(init=False, repr=False)
    half_logdet: float = field(init=False, repr=False)

    def __post_init__(self):
        x = _as_matrix(self.data)
        _require_finite(x)
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        # n >= d + 1 is only needed when the moments are estimated (see fit)
        require_bandwidth(self.h)
        _, inv_root = _cov_factor(cov)
        yd = (x - mean) @ inv_root.T
        derived = {"data": x, "mean": mean, "cov": cov, "inv_root": inv_root,
                   "sphered": yd, "q_data": _sq_radii(yd, self.clip),
                   "half_logdet": 0.5 * float(np.linalg.slogdet(cov)[1])}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def fit(cls, data, h: float, clip: float | None = 2.5) -> "MvEstimate":
        x, mean, cov = _moments(data)
        return cls(x, mean, cov, h, clip)


def mv_estimate(e: MvEstimate, x):
    """Corrected estimate at x: sphered kernel sum times the start ratio.

    The start ratio exp{-q(x)/2 + q(X_i)/2} uses Mahalanobis distances q
    clipped at radius `clip`, the d-dimensional analogue of flooring the
    1-d start density beyond 2.5 standard deviations.
    """
    d = e.data.shape[1]
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else _as_matrix(x)

    yp = (pts - e.mean) @ e.inv_root.T
    q_pts = _sq_radii(yp, e.clip)
    out = np.empty(yp.shape[0])

    def fill(rows, sq):
        log_kern = -0.5 * sq / e.h**2 - d * np.log(SQRT_2PI * e.h) - e.half_logdet
        log_ratio = -0.5 * q_pts[rows, None] + 0.5 * e.q_data[None, :]
        out[rows] = np.exp(log_kern + log_ratio).mean(axis=1)

    _pairwise_sq_blocks(yp, e.sphered, fill)
    return float(out[0]) if single else out


def _multi_indices(d: int, total: int):
    for j in product(range(total + 1), repeat=d):
        if sum(j) <= total:
            yield j


def mv_bandwidth(data) -> BandwidthChoice:
    """Single sphered-space bandwidth from a robust product-Hermite expansion.

    Estimates the correction-factor roughness through the coefficients
    d_J = 2^(d/2) mean[ exp(-|Y_i|^2/2) prod_k H_{j_k}(sqrt(2) Y_{i,k}) ]
    over multi-indices J with |J| <= MV_MAX_DEGREE, and plugs it into the
    d-dimensional optimal-h formula.  Degenerate (multinormal-looking) data
    clamp to the oversmoothing cap, flagged in the diagnostics.
    """
    y, mean, root = sphere(data)
    n, d = y.shape
    w = np.exp(-0.5 * np.sum(y * y, axis=1))
    # per-axis Hermite values up to MV_MAX_DEGREE + 2
    H = np.empty((d, MV_MAX_DEGREE + 3, n))
    for k in range(d):
        for j in range(MV_MAX_DEGREE + 3):
            H[k, j] = hermite_poly(j, np.sqrt(2.0) * y[:, k])

    def delta(J):
        prod_h = w.copy()
        for k, jk in enumerate(J):
            prod_h = prod_h * H[k, jk]
        return 2.0 ** (d / 2.0) * float(prod_h.mean())

    brace = 0.0
    for J in _multi_indices(d, MV_MAX_DEGREE):
        bumped = sum(delta(J[:k] + (J[k] + 2,) + J[k + 1:]) for k in range(d))
        fact = math.prod(math.factorial(jk) for jk in J)
        brace += bumped**2 / fact

    h_os = 1.144 * n ** (-1.0 / (d + 4.0))
    diag = {"brace": brace, "h_os": h_os, "clamped": False}
    if brace <= 1e-12:
        return BandwidthChoice(h_os, "mv_delta", {**diag, "clamped": True})
    h = (d / 4.0) ** (1.0 / (d + 4.0)) * brace ** (-1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    if h >= h_os:
        return BandwidthChoice(h_os, "mv_delta", {**diag, "clamped": True})
    return BandwidthChoice(float(h), "mv_delta", diag)
