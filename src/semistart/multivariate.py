"""d-dimensional corrected estimation with a multinormal start.

Data are sphered (affinely mapped to zero mean and identity covariance), a
single bandwidth smooths the sphered variables with a gaussian product
kernel, and the standard multinormal acts as the start in sphered space.
Mapping back multiplies by |cov|^(-1/2), which keeps the estimator an
(approximate) density and makes it exactly affine equivariant.  A switch
reproduces the same estimator without that determinant factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bandwidth import BandwidthChoice
from .hermite import hermite_poly
from .kernels import SQRT_2PI, row_blocks
from .starts import _require_finite

__all__ = ["MvEstimate", "mv_kernel_estimate", "mv_estimate", "sphere", "mv_bandwidth"]

_MIN_COND = 1e-10


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
        raise ValueError("covariance is (numerically) rank deficient")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    return root, inv_root


def sphere(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Y, mean, cov_root) with Y = cov^(-1/2) (X - mean).

    mean and covariance are the sample moments (n denominator), so Y has
    sample mean exactly 0 and sample covariance exactly the identity.
    """
    x = _as_matrix(data)
    _require_finite(x)
    n, d = x.shape
    if n < d + 1:
        raise ValueError("need at least d + 1 observations to sphere")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / n
    root, inv_root = _cov_factor(cov)
    return xc @ inv_root.T, mean, root


def _pairwise_sq_blocks(a: np.ndarray, b: np.ndarray):
    """(rows, |a_i - b_j|^2) over row blocks of a, never an (m, n, d) array.

    The squared norms of b are computed once and shared by every block.
    """
    b_sq = np.sum(b * b, axis=1)[None, :]
    for rows in row_blocks(a.shape[0], b.shape[0]):
        ar = a[rows]
        sq = np.sum(ar * ar, axis=1)[:, None] + b_sq - 2.0 * ar @ b.T
        yield rows, np.maximum(sq, 0.0)


def mv_kernel_estimate(data, bandwidths, x):
    """Plain product-gaussian kernel estimate at the point(s) x."""
    dat = _as_matrix(data)
    n, d = dat.shape
    h = np.broadcast_to(np.asarray(bandwidths, dtype=float), (d,))
    if np.any(h <= 0):
        raise ValueError("bandwidths must be positive")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else _as_matrix(x)
    out = np.empty(pts.shape[0])
    for rows, sq in _pairwise_sq_blocks(pts / h, dat / h):
        log_k = -0.5 * sq - d * np.log(SQRT_2PI) - np.log(h).sum()
        out[rows] = np.exp(log_k).mean(axis=1)
    return float(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class MvEstimate:
    """Multinormal-start corrected estimator in d dimensions."""

    data: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    h: float
    clip: float | None = 2.5
    normalized: bool = True  # include the |cov|^(-1/2) kernel factor

    def __post_init__(self):
        x = _as_matrix(self.data)
        _require_finite(x)
        object.__setattr__(self, "data", x)
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        # n >= d + 1 is only needed when the moments are estimated (see fit)
        if self.h <= 0:
            raise ValueError("bandwidth h must be positive")
        vals = np.linalg.eigvalsh(self.cov)
        if vals.min() <= _MIN_COND * vals.max() or vals.min() <= 0:
            raise ValueError("covariance must be symmetric positive definite")

    @classmethod
    def fit(cls, data, h: float, clip: float | None = 2.5,
            normalized: bool = True) -> "MvEstimate":
        x = _as_matrix(data)
        _require_finite(x)  # before the moments, which inf would turn into nan
        if x.shape[0] < x.shape[1] + 1:
            raise ValueError("need at least d + 1 observations to fit moments")
        mean = x.mean(axis=0)
        xc = x - mean
        return cls(x, mean, xc.T @ xc / x.shape[0], h, clip, normalized)


def mv_estimate(e: MvEstimate, x):
    """Corrected estimate at x: sphered kernel sum times the start ratio.

    The start ratio exp{-q(x)/2 + q(X_i)/2} uses Mahalanobis distances q
    clipped at radius `clip`, the d-dimensional analogue of flooring the
    1-d start density beyond 2.5 standard deviations.
    """
    d = e.data.shape[1]
    _, inv_root = _cov_factor(e.cov)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else _as_matrix(x)

    yd = (e.data - e.mean) @ inv_root.T
    yp = (pts - e.mean) @ inv_root.T
    q_data = np.sum(yd * yd, axis=1)
    q_pts = np.sum(yp * yp, axis=1)
    if e.clip is not None:
        cap = e.clip**2
        q_data = np.minimum(q_data, cap)
        q_pts = np.minimum(q_pts, cap)

    half_logdet = 0.5 * float(np.linalg.slogdet(e.cov)[1])
    out = np.empty(yp.shape[0])
    for rows, sq in _pairwise_sq_blocks(yp, yd):
        log_kern = -0.5 * sq / e.h**2 - d * np.log(SQRT_2PI * e.h)
        if e.normalized:
            log_kern = log_kern - half_logdet
        log_ratio = -0.5 * q_pts[rows, None] + 0.5 * q_data[None, :]
        out[rows] = np.exp(log_kern + log_ratio).mean(axis=1)
    return float(out[0]) if single else out


def _multi_indices(d: int, total: int):
    for j in product(range(total + 1), repeat=d):
        if sum(j) <= total:
            yield j


def mv_bandwidth(data, max_degree: int = 4) -> BandwidthChoice:
    """Single sphered-space bandwidth from a robust product-Hermite expansion.

    Estimates the correction-factor roughness through the coefficients
    d_J = 2^(d/2) mean[ exp(-|Y_i|^2/2) prod_k H_{j_k}(sqrt(2) Y_{i,k}) ]
    over multi-indices J with |J| <= max_degree, and plugs it into the
    d-dimensional optimal-h formula.  Degenerate (multinormal-looking) data
    clamp to the oversmoothing cap, flagged in the diagnostics.
    """
    y, mean, root = sphere(data)
    n, d = y.shape
    w = np.exp(-0.5 * np.sum(y * y, axis=1))
    # per-axis Hermite values up to max_degree + 2
    H = np.empty((d, max_degree + 3, n))
    for k in range(d):
        for j in range(max_degree + 3):
            H[k, j] = hermite_poly(j, np.sqrt(2.0) * y[:, k])

    def delta(J):
        prod_h = w.copy()
        for k, jk in enumerate(J):
            prod_h = prod_h * H[k, jk]
        return 2.0 ** (d / 2.0) * float(prod_h.mean())

    brace = 0.0
    for J in _multi_indices(d, max_degree):
        bumped = sum(delta(J[:k] + (J[k] + 2,) + J[k + 1:]) for k in range(d))
        fact = math.prod(math.factorial(jk) for jk in J)
        brace += bumped**2 / fact

    h_os = 1.144 * n ** (-1.0 / (d + 4.0))
    diag = {"brace": brace, "h_os": h_os, "clamped": False, "max_degree": max_degree}
    if brace <= 1e-12:
        return BandwidthChoice(h_os, "mv_delta", {**diag, "clamped": True})
    h = (d / 4.0) ** (1.0 / (d + 4.0)) * brace ** (-1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    if h >= h_os:
        return BandwidthChoice(h_os, "mv_delta", {**diag, "clamped": True})
    return BandwidthChoice(float(h), "mv_delta", diag)
