# Smoothing kernels and their moment constants.
#
# Every kernel here is a symmetric probability density.  The constants
#   sigma2_K = int z^2 K(z) dz,   rough_K = int K(z)^2 dz
# drive all bandwidth formulas; rough_Kpp = int K''(z)^2 dz exists only for
# the gaussian shape (the curvature plug-in needs a smooth kernel whose
# derivatives vanish at the support edges).

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "kernel_props", "eval_scaled", "exp_into", "require_bandwidth",
           "for_blocks", "for_each_block", "SHAPES"]

SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_PI = np.sqrt(np.pi)

SHAPES = ("gaussian", "epanechnikov", "uniform")

# NumPy's SIMD exp leaves its fast loop for a whole vector when one lane is
# below about -707.7; np.exp is 0.0 at and below _EXP_ZERO (tests check it).
_EXP_FAST_MIN = -700.0
_EXP_ZERO = -746.0


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
    if shape == "epanechnikov":
        inside = np.abs(z) <= 0.5
        return np.where(inside, 1.5 * (1.0 - 4.0 * z * z), 0.0)
    if shape == "uniform":
        return np.where(np.abs(z) <= 0.5, 1.0, 0.0)
    raise ValueError(f"unsupported kernel shape: {shape!r}")


def exp_into(a: np.ndarray) -> np.ndarray:
    """Overwrite the float array a with np.exp(a), bit for bit, and return it.

    Lanes at or above _EXP_FAST_MIN go through one np.exp of the clamped
    array, which stays on NumPy's vector loop; lanes at or below _EXP_ZERO
    are 0.0, as np.exp gives there.  The band between, whose results are
    tiny or subnormal, goes through np.exp on a compacted array: take and
    put index a through a.flat, so any memory layout is read and written
    correctly.  NaN and +-inf come out as np.exp gives them.
    """
    keep = a >= _EXP_FAST_MIN
    if keep.all():
        return np.exp(a, out=a)
    tiny = ~keep
    tiny &= a > _EXP_ZERO
    idx = np.flatnonzero(tiny)
    vals = np.exp(a.take(idx))
    np.maximum(a, _EXP_FAST_MIN, out=a)
    np.exp(a, out=a)
    # a multiply, not a masked write, which branches on every lane: it zeroes
    # the clamped lanes and keeps NaN, whose keep is False too
    np.multiply(a, keep, out=a)
    np.put(a, idx, vals)
    return a


# the smallest normal float: below it 1/h, and so K(0)/h, overflows
_H_MIN = float(np.finfo(float).tiny)


def require_bandwidth(h) -> None:
    """Raise ValueError unless h, or every entry of an array h, is finite and positive
    and not below the smallest normal float _H_MIN."""
    if isinstance(h, float):  # NaN fails both comparisons
        ok, normal = 0.0 < h < math.inf, not h < _H_MIN
    else:
        h = np.asarray(h, dtype=float)
        ok = bool(np.all((h > 0.0) & (h < math.inf)))
        normal = not np.any(h < _H_MIN)
    if not ok:
        raise ValueError("bandwidth h must be finite and positive")
    if not normal:
        raise ValueError(f"bandwidth h must be at least {_H_MIN!r}, the smallest normal float: "
                         "1/h overflows below it")


def _profile(shape: str, h: float, z: np.ndarray, out: np.ndarray) -> None:
    """Write the unnormalised profile K(z/h) of a kernel shape into out, which may be z.

    The gaussian profile is exp(-(z/h)^2/2) and the compact ones are their
    densities at z/h; eval_scaled turns a profile into K_h.  At a tiny h,
    |z|/h may overflow to inf, whose weight is 0.0: that overflow raises no
    warning.
    """
    with np.errstate(over="ignore"):
        if shape == "gaussian":
            # (z/h)^2 * -0.5 is -0.5 * (z/h) * (z/h) to the bit: scaling by 0.5 is
            # exact except where the result is subnormal or overflows, and exp
            # gives 1.0 or 0.0 there either way
            np.divide(z, h, out=out)
            np.multiply(out, out, out=out)
            out *= -0.5
            exp_into(out)
        else:
            out[...] = _base_pdf(shape, z / h)


def eval_scaled(kernel: KernelSpec, h: float, z, out=None):
    """K_h(z) = K(z/h)/h, vectorised over z.  Requires a finite h > 0.

    out, a float array of z's shape, receives the values and is returned; it
    may be z itself.  The gaussian kernel then runs in place, with no
    temporary of z's size.  Without out, a 0-d z gives a float.
    """
    require_bandwidth(h)
    z = np.asarray(z, dtype=float)
    res = np.empty_like(z) if out is None else out
    _profile(kernel.shape, h, z, res)
    if kernel.shape == "gaussian":
        res /= SQRT_2PI
    res /= h
    return res if out is not None or res.ndim else float(res)


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


# At most this many blocks of a sum are in flight at once, one per thread.
MAX_BLOCK_THREADS = 4

# The blocks in flight hold at most this many float64 values together, 1 MB,
# whatever the number of CPUs: a block of a sum on one thread is as long as
# the four blocks of a sum on four.  Longer blocks pay better for the GIL
# hand-off between a block's NumPy calls.
IN_FLIGHT_ELEMENTS = 2**17

# the block executor once a parallel block sum has run; see for_blocks
_pool = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """One worker per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _drop_pool() -> None:
    # a forked child has none of its parent's threads: a task queued on the
    # inherited pool would wait forever, and the lock may be held by a thread
    # that is gone, so the child starts afresh
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _block_elements(cpus: int) -> int:
    """Elements per block with that many usable CPUs: the budget over the block threads."""
    return IN_FLIGHT_ELEMENTS // min(cpus, MAX_BLOCK_THREADS)


# Elements per block of a (grid x data) sum: 2^15 float64 values (256 KB) from
# four usable CPUs on, 2^16 at two and 2^17 at one.  No result's bits depend
# on it (see row_blocks).
BLOCK_ELEMENTS = _block_elements(_worker_count())


def _fill_each(fill, blocks) -> None:
    for rows in blocks:
        fill(rows)


def for_blocks(rows: int, cols: int, fill) -> None:
    """Call fill(block) for every slice of row_blocks(rows, cols), in parallel (for_each_block)."""
    for_each_block(list(row_blocks(rows, cols)), fill)


def for_each_block(blocks: list, fill) -> None:
    """Call fill(block) for every item of blocks, in parallel.

    The blocks, which may differ in size, run on a process-wide thread pool,
    created on first use with one thread per usable CPU up to
    MAX_BLOCK_THREADS.  They are dealt round-robin, one task per thread, each
    run in a copy of the caller's context so that np.errstate holds; NumPy
    releases the GIL inside its loops.  A single block, or a single CPU, runs
    in the calling thread.  Each fill may write only cells that no other
    block writes (its own rows, or cells such as a mirrored triangle that
    only it fills) and must leave every reduction across blocks to the
    caller, whose result then has the same bits whatever the number of
    threads.  A fill must not call for_each_block.  An exception in a fill
    skips the rest of its thread's share and reaches the caller once every
    thread has stopped.
    """
    global _pool
    threads = min(_worker_count(), MAX_BLOCK_THREADS)
    k = min(threads, len(blocks))
    if k <= 1:
        _fill_each(fill, blocks)
        return
    import contextvars
    from concurrent.futures import ThreadPoolExecutor, wait
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="semistart")
        pool = _pool
    futures = [pool.submit(contextvars.copy_context().run, _fill_each, fill, blocks[i::k])
               for i in range(k)]
    wait(futures)
    for f in futures:
        f.result()
