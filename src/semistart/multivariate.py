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
from .kernels import _H_MIN, SQRT_2PI, exp_into, for_blocks, require_bandwidth, row_blocks
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
        h = float(self.h)
        if not _H_MIN <= h * h < math.inf:  # the sums scale by -1/(2 h^2)
            raise ValueError(f"bandwidth h must be from about {math.sqrt(_H_MIN):.3g} to "
                             f"{math.sqrt(np.finfo(float).max):.3g}: h^2 must be a finite "
                             "normal float")
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
    In two dimensions, points that form a tensor grid (_tensor_axes) sum as
    one blocked contraction (_tensor_sums) where its rounding stays within
    _TENSOR_TOL; every other point sums directly (_direct_sums).
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

    # a point far out may overflow in sphered space, where its terms are 0.0;
    # a coordinate that is inf - inf of two overflowed products is as far
    with np.errstate(over="ignore", invalid="ignore"):
        yp = _sphere_rows(pts, e.mean, e.inv_root)
    yp[np.isnan(yp)] = np.inf
    with np.errstate(over="ignore"):
        # -q(x)/2 - d log(sqrt(2 pi) h) - log|cov|/2, the exponent's per-row term
        row = -0.5 * _sq_radii(yp, e.clip) - (d * np.log(SQRT_2PI * e.h) + e.half_logdet)
        out = _tensor_sums(e, pts, row) if d == 2 else None
        if out is None:
            out = _direct_sums(e, yp, row)
        else:
            redo = np.flatnonzero(np.isnan(out))
            if redo.size:
                out[redo] = _direct_sums(e, yp[redo], row[redo])
    return float(out[0]) if single else out


def _direct_sums(e: MvEstimate, yp: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The estimate at the sphered points yp, with per-row terms row, term by term.

    One exp per (point, datum), in row blocks on the block pool.  A point
    has the same bits alone as among any other points.
    """
    d = yp.shape[1]
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
    return out


def _tensor_axes(pts: np.ndarray):
    """(g1, g2, outer) when the rows of pts are a tensor grid g1 x g2, else None.

    Either coordinate may be the outer one, which steps once per run of the
    other's values: outer 0 is column_stack(repeat(g1, m2), tile(g2, m1)),
    outer 1 the ravel order of meshgrid(g1, g2).  Each axis has at least
    two values.
    """
    m = pts.shape[0]
    for outer in (0, 1):
        col, other = pts[:, outer], pts[:, 1 - outer]
        run = int(np.argmax(col != col[0])) if m else 0
        if run < 2 or m % run or m // run < 2:
            continue
        slow, fast = col[::run], other[:run]
        if np.all(col.reshape(-1, run) == slow[:, None]) and np.all(other.reshape(-1, run) == fast):
            return (slow, fast, 0) if outer == 0 else (fast, slow, 1)
    return None


# The tensor path's bound on its relative error (see _tensor_sums), and the
# least shifted sum of a block it keeps a point's value from
_TENSOR_TOL = 1e-12
_TENSOR_SUM_MIN = 2.0**-960


def _tensor_sums(e: MvEstimate, pts: np.ndarray, row: np.ndarray):
    """The estimate at the 2-d points pts, with per-row terms row, where they
    form a tensor grid g1 x g2 (_tensor_axes); None where they do not, or
    where the rounding bound below exceeds _TENSOR_TOL.

    With coordinates centred on the mean and P = cov^-1 / h^2, the exponent
    of a term, -(P11 d1^2 + 2 P12 d1 d2 + P22 d2^2)/2 + q(X_i)/2 + row(g),
    d_k = g_k - X_ik, splits into a(g1, i) + b(g2, i) + c(g1, g2) once the
    cross term d1 d2 is multiplied out and each square is completed:
        a = -P11 (g1 - w_i)^2 / 2 + t_i,    w_i = X_i1 + X_i2 P12 / P11,
        b = -P22 (g2 - z_i)^2 / 2,          z_i = X_i2 + X_i1 P12 / P22,
        c = -P12 g1 g2 + row(g),
        t_i = P12 X_i1 X_i2 + (P12^2 / P11) X_i2^2 / 2 + (P12^2 / P22) X_i1^2 / 2
              + q(X_i) / 2.
    So the grid's sums are e^c (e^a (e^b)^T): (m1 + m2) n exps and one
    contraction, in place of m1 m2 n exps.  The pieces grow like
    (range / h)^2 while a term's exponent stays small, and each carries a
    rounding of a few ulps of its size into the value: the path is taken only
    where eps (max|a| + max|b| + max|c|), bounded from the grid and the data
    before any exp, is at most _TENSOR_TOL.

    The data go in blocks of columns, the rows of row_blocks(n, max(m1, m2)),
    in the calling thread, so the bits do not depend on the CPU count.  Each
    block shifts each row of its factors by the row's maximum, exps them in
    place and contracts them with np.einsum, whose own loop wakes no BLAS
    threads; the blocks' sums merge through their shifts.
    A point where some block's shifted sum is below _TENSOR_SUM_MIN, which
    leaves its terms to underflow, or whose value is not finite, is NaN.
    """
    axes = _tensor_axes(pts)
    if axes is None:
        return None
    g1, g2, outer = axes
    n = e.data.shape[0]
    r = e.inv_root / e.h
    p11 = r[0, 0] * r[0, 0] + r[1, 0] * r[1, 0]
    p12 = r[0, 0] * r[0, 1] + r[1, 0] * r[1, 1]
    p22 = r[0, 1] * r[0, 1] + r[1, 1] * r[1, 1]
    if not (0.0 < p11 < np.inf and 0.0 < p22 < np.inf):  # h too far from the data's scale
        return None
    u, v = g1 - e.mean[0], g2 - e.mean[1]
    x1, x2 = e.data[:, 0] - e.mean[0], e.data[:, 1] - e.mean[1]
    w = x1 + (p12 / p11) * x2
    z = x2 + (p12 / p22) * x1
    t_terms = (p12 * x1 * x2, (0.5 * p12 * p12 / p11) * x2 * x2,
               (0.5 * p12 * p12 / p22) * x1 * x1, 0.5 * e.q_data)
    m1, m2 = u.size, v.size
    # the per-point terms as a (m1, m2) matrix, each grid point's in its cell
    row = row.reshape(m1, m2) if outer == 0 else row.reshape(m2, m1).T
    reach_a = np.max([u.max() - w.min(), w.max() - u.min()])
    reach_b = np.max([v.max() - z.min(), z.max() - v.min()])
    top = (0.5 * p11 * reach_a * reach_a + np.max(sum(np.abs(x) for x in t_terms))  # max|a|
           + 0.5 * p22 * reach_b * reach_b  # max|b|
           + abs(p12) * np.max(np.abs(u)) * np.max(np.abs(v)) + np.max(np.abs(row)))  # max|c|
    if not np.finfo(float).eps * top <= _TENSOR_TOL:
        return None
    t = sum(t_terms)

    low = np.zeros((m1, m2), dtype=bool)
    for cols in row_blocks(n, max(m1, m2)):
        a = np.subtract(u[:, None], w[None, cols])
        a *= a
        a *= -0.5 * p11
        a += t[None, cols]
        b = np.subtract(v[:, None], z[None, cols])
        b *= b
        b *= -0.5 * p22
        shift = []
        for f in (a, b):
            top = f.max(axis=1)
            f -= top[:, None]
            exp_into(f)
            shift.append(top)
        part = np.einsum("ai,bi->ab", a, b)
        part_shift = np.add.outer(*shift)
        low |= part < _TENSOR_SUM_MIN
        if cols.start == 0:
            total, total_shift = part, part_shift
        else:
            top = np.maximum(total_shift, part_shift)
            total *= np.exp(total_shift - top)
            part *= np.exp(part_shift - top)
            total += part
            total_shift = top
    total_shift -= p12 * np.multiply.outer(u, v)
    total_shift += row
    total *= np.exp(total_shift)
    total /= n
    total[low | ~np.isfinite(total)] = np.nan
    return (total if outer == 0 else total.T).ravel()


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
