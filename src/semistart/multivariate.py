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
from .hermite import hermite_rows
from .kernels import SQRT_2PI, for_blocks, require_bandwidth
from .starts import _require_finite

__all__ = ["MvEstimate", "mv_estimate", "sphere", "mv_bandwidth"]

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


def _sphere_rows(x: np.ndarray, mean: np.ndarray, inv_root: np.ndarray) -> np.ndarray:
    """Rows of x in sphered coordinates, cov^(-1/2) (x - mean), elementwise.

    Each coordinate is a sum over k in a fixed order, so a row has the same
    bits alone as among other rows (a BLAS product's bits depend on the
    number of rows it is given), and a point at a datum spheres to it.
    """
    c = x - mean
    y = c[:, :1] * inv_root[:, 0]
    for k in range(1, x.shape[1]):
        y += c[:, k:k + 1] * inv_root[:, k]
    return y


def sphere(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Y, mean, cov_root) with Y = cov^(-1/2) (X - mean).

    mean and covariance are the sample moments, so Y has sample mean
    exactly 0 and sample covariance exactly the identity.
    """
    x, mean, cov = _moments(data)
    root, inv_root = _cov_factor(cov)
    return _sphere_rows(x, mean, inv_root), mean, root


def _sq_radii(y: np.ndarray, clip: float | None) -> np.ndarray:
    """Squared radii |y_i|^2 of sphered rows, capped at clip^2 unless clip is None."""
    q = np.sum(y * y, axis=1)
    return q if clip is None else np.minimum(q, clip**2)


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
        _require_finite(mean, "mean")
        cov = np.asarray(self.cov, dtype=float)
        _require_finite(cov, "cov")
        # n >= d + 1 is only needed when the moments are estimated (see fit)
        require_bandwidth(self.h)
        _, inv_root = _cov_factor(cov)
        yd = _sphere_rows(x, mean, inv_root)
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

    x is one point, a vector of d coordinates (which gives a float), or an
    (m, d) matrix of m points.  The start ratio exp{-q(x)/2 + q(X_i)/2} uses
    Mahalanobis distances q clipped at radius `clip`, the d-dimensional
    analogue of flooring the 1-d start density beyond 2.5 standard deviations.
    """
    d = e.data.shape[1]
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"evaluation points must be one point of d = {d} coordinates or "
                         f"an (m, {d}) matrix, got an array of shape {x.shape}")
    if x.shape[-1] != d:
        hint = "; pass several points as an (m, 1) matrix" if d == 1 and x.ndim == 1 else ""
        raise ValueError(f"evaluation points must have d = {d} coordinates, "
                         f"got {x.shape[-1]}{hint}")
    single = x.ndim == 1
    pts = x[None, :] if single else x
    _require_finite(pts, "evaluation point")

    yp = _sphere_rows(pts, e.mean, e.inv_root)
    # -q(x)/2 - d log(sqrt(2 pi) h) - log|cov|/2, the exponent's per-row term
    row = -0.5 * _sq_radii(yp, e.clip) - (d * np.log(SQRT_2PI * e.h) + e.half_logdet)
    yd = e.sphered.T.copy()  # one contiguous row per coordinate
    half_q_data = 0.5 * e.q_data[None, :]
    scale = -0.5 / e.h**2
    out = np.empty(yp.shape[0])

    def fill(rows):
        # |y_i - Y_j|^2 by direct differences, coordinate by coordinate, in
        # one block buffer with a second for each next coordinate and then
        # the outer sum of the row and column terms
        yr = yp[rows]
        expo = np.subtract(yr[:, :1], yd[0])
        expo *= expo
        buf = np.empty_like(expo)
        for k in range(1, d):
            np.subtract(yr[:, k:k + 1], yd[k], out=buf)
            buf *= buf
            expo += buf
        expo *= scale
        np.add(row[rows, None], half_q_data, out=buf)
        expo += buf
        out[rows] = np.exp(expo, out=expo).mean(axis=1)

    for_blocks(yp.shape[0], yd.shape[1], fill)
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
    H = np.stack([hermite_rows(np.sqrt(2.0) * y[:, k], MV_MAX_DEGREE + 2) for k in range(d)])

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
