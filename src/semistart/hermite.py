"""Hermite polynomials and moment expansions around a fitted normal.

Two coefficient systems are supported.  The classic one uses the raw
standardized moments (skewness, excess kurtosis, ...); it is exact but its
sample estimates are heavy-tailed.  The robust one expands in H_j(sqrt(2) y)
weighted by exp(-y^2/2), whose empirical coefficients are bounded averages.
Either system yields a closed-form estimate of the curvature roughness of
the correction factor against the normal, which is what the moment-based
bandwidth rules consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .kernels import SQRT_PI
from .starts import _require_finite

__all__ = [
    "HermiteCoeffs",
    "hermite_poly",
    "hermite_rows",
    "classic_coeffs",
    "robust_coeffs",
    "roughness_from_coeffs",
]


@dataclass(frozen=True, eq=False)
class HermiteCoeffs:
    """Expansion coefficients around a normal of scale `scale`, indexed from 0."""

    kind: str  # "classic_gamma" | "robust_delta"
    values: np.ndarray
    scale: float

    def __post_init__(self):
        if self.kind not in ("classic_gamma", "robust_delta"):
            raise ValueError(f"unknown coefficient kind: {self.kind!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def hermite_poly(j: int, x):
    """Probabilists' Hermite H_j at x: row j of hermite_rows; a 0-d x gives a float."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    row = hermite_rows(np.asarray(x, dtype=float), j)[j]
    return row if row.ndim else float(row)


def hermite_rows(x: np.ndarray, degree: int) -> np.ndarray:
    """H_0(x), ..., H_degree(x) as the rows of one array.

    One run of the recurrence H_{k+1} = x H_k - k H_{k-1}, in place.
    """
    rows = np.empty((degree + 1,) + x.shape)
    rows[0] = 1.0
    if degree:
        rows[1] = x
    term = np.empty_like(rows[0])
    for k in range(1, degree):
        np.multiply(x, rows[k], out=rows[k + 1, ...])
        np.multiply(rows[k - 1], k, out=term)
        rows[k + 1] -= term
    return rows


def _standardize(data) -> tuple[np.ndarray, float]:
    x = np.asarray(data, dtype=float)
    _require_finite(x)
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    mu = float(x.mean())
    sd = float(x.std())  # maximum-likelihood scale (n denominator)
    if sd == 0.0:
        raise ValueError("sample variance is zero")
    return (x - mu) / sd, sd


def classic_coeffs(data) -> HermiteCoeffs:
    """Moment coefficients (1, 0, 0, g3, g4, g5) around the fitted normal.

    g3 = m3, g4 = m4 - 3, g5 = m5 - 10 m3 with m_k the k-th standardized
    sample moment; all three vanish for normal data.  (g4 is the excess
    kurtosis: the Hermite coefficient E H_4, not the raw fourth moment.)
    """
    z, sd = _standardize(data)
    if z.size < 5:
        raise ValueError("need at least 5 observations for moment coefficients")
    m3 = float(np.mean(z**3))
    m4 = float(np.mean(z**4))
    m5 = float(np.mean(z**5))
    vals = np.array([1.0, 0.0, 0.0, m3, m4 - 3.0, m5 - 10.0 * m3])
    return HermiteCoeffs("classic_gamma", vals, sd)


def robust_coeffs(data) -> HermiteCoeffs:
    """Bounded-summand coefficients d_j = mean of sqrt(2) H_j(sqrt(2) z) exp(-z^2/2), j = 0..5."""
    z, sd = _standardize(data)
    w = np.sqrt(2.0) * np.exp(-0.5 * z * z)
    rows = hermite_rows(np.sqrt(2.0) * z, 5)
    rows *= w
    vals = np.mean(rows, axis=1)
    return HermiteCoeffs("robust_delta", vals, sd)


def roughness_from_coeffs(c: HermiteCoeffs) -> float:
    """Correction-factor curvature roughness implied by the expansion.

    classic (needs degrees up to 5):
        scale^-5 (3/(8 sqrt(pi))) {(2/3)g3^2 + (1/4)g4^2 + (5/72)g5^2 - (1/3)g3 g5}
    robust (any max degree m >= 2):
        scale^-5 (2/sqrt(pi)) sum_{j=0}^{m-2} d_{j+2}^2 / j!
    """
    v = c.values
    if c.kind == "classic_gamma":
        if v.size < 6:
            raise ValueError("classic coefficients must reach degree 5")
        g3, g4, g5 = v[3], v[4], v[5]
        brace = (2.0 / 3.0) * g3**2 + 0.25 * g4**2 + (5.0 / 72.0) * g5**2 - g3 * g5 / 3.0
        return c.scale**-5 * 3.0 / (8.0 * SQRT_PI) * brace
    if v.size < 3:
        raise ValueError("robust coefficients must reach degree 2")
    js = np.arange(v.size - 2)
    fact = np.array([float(math.factorial(j)) for j in js])
    return c.scale**-5 * (2.0 / SQRT_PI) * float(np.sum(v[2:] ** 2 / fact))

