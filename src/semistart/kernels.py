# Smoothing kernels and their moment constants.
#
# Every kernel here is a symmetric probability density.  The constants
#   sigma2_K = int z^2 K(z) dz,   rough_K = int K(z)^2 dz
# drive all bandwidth formulas; rough_Kpp = int K''(z)^2 dz exists only for
# the gaussian shape (the curvature plug-in needs a smooth kernel whose
# derivatives vanish at the support edges).

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "kernel_props", "eval_scaled", "row_blocks", "SHAPES"]

SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_PI = np.sqrt(np.pi)

SHAPES = ("gaussian", "epanechnikov", "uniform")

# Elements per block of a (grid x data) sum: 2^15 float64 values, 256 KB.
BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class KernelSpec:
    """A kernel shape together with its moment constants."""

    shape: str
    sigma2_K: float
    rough_K: float
    rough_Kpp: float | None = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unsupported kernel shape: {self.shape!r}")
        if self.sigma2_K <= 0 or self.rough_K <= 0:
            raise ValueError("kernel moment constants must be positive")

    @property
    def is_smooth(self) -> bool:
        return self.rough_Kpp is not None


_SPECS = {
    # gaussian: sigma2 = 1, R(K) = 1/(2 sqrt(pi)), R(K'') = 3/(8 sqrt(pi))
    "gaussian": KernelSpec("gaussian", 1.0, float(1.0 / (2.0 * SQRT_PI)),
                           float(3.0 / (8.0 * SQRT_PI))),
    # (3/2)(1 - 4z^2) on [-1/2, 1/2]; any rescaling is equivalent up to the
    # h -> c*h relabelling, this scaling keeps the support at unit width.
    "epanechnikov": KernelSpec("epanechnikov", 0.05, 1.2, None),
    # flat on [-1/2, 1/2]; a constant start reduces the corrected estimator
    # to the plain kernel estimator, so this shape is kept for completeness.
    "uniform": KernelSpec("uniform", 1.0 / 12.0, 1.0, None),
}


def kernel_props(shape: str) -> KernelSpec:
    """Return the immutable spec (shape + exact moment constants)."""
    try:
        return _SPECS[shape]
    except KeyError:
        raise ValueError(f"unsupported kernel shape: {shape!r}") from None


def _base_pdf(shape: str, z: np.ndarray) -> np.ndarray:
    if shape == "gaussian":
        return np.exp(-0.5 * z * z) / SQRT_2PI
    if shape == "epanechnikov":
        inside = np.abs(z) <= 0.5
        return np.where(inside, 1.5 * (1.0 - 4.0 * z * z), 0.0)
    if shape == "uniform":
        return np.where(np.abs(z) <= 0.5, 1.0, 0.0)
    raise ValueError(f"unsupported kernel shape: {shape!r}")


def eval_scaled(kernel: KernelSpec, h: float, z):
    """K_h(z) = K(z/h)/h, vectorised over z.  Requires h > 0."""
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    z = np.asarray(z, dtype=float)
    out = _base_pdf(kernel.shape, z / h) / h
    return out if out.ndim else float(out)


def row_blocks(rows: int, cols: int):
    """Slices of range(rows) covering a (rows x cols) array in row blocks.

    Each block holds at most BLOCK_ELEMENTS elements, or a single row when
    one row alone is longer.  NumPy reduces each row along its last axis
    the same way whatever the number of rows, so a sum over the data
    computed block by block is bit-identical to the one over the full
    array, while the working memory stays bounded by the block size.
    """
    step = max(1, BLOCK_ELEMENTS // max(cols, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))
