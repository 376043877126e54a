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
           "for_blocks", "window_sums", "SHAPES"]

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
    temporary of z's size.  Without out, a 0-d z gives a float.  The lanes
    are divided by h, unlike window_sums', which multiply by 1/h: the
    selectors evaluate their kernels here, and their bandwidths' bytes are
    pinned by stored references until those are regenerated.
    """
    require_bandwidth(h)
    z = np.asarray(z, dtype=float)
    res = np.empty_like(z) if out is None else out
    _profile(kernel.shape, h, z, res)
    if kernel.shape == "gaussian":
        res /= SQRT_2PI
    res /= h
    return res if out is not None or res.ndim else float(res)


# The blocks of a (grid x data) sum in flight hold at most this many float64
# values together, 1 MB, on every machine: a sum in the calling thread takes
# blocks of this size, and the block pool splits it over its threads.  Longer
# blocks pay better for the GIL hand-off between a block's NumPy calls.
BLOCK_ELEMENTS = 2**17

# At most this many blocks of a sum are in flight at once, one per thread.
MAX_BLOCK_THREADS = 4


def row_blocks(rows: int, cols: int, threads: int = 1):
    """Slices of range(rows) covering a (rows x cols) array in row blocks.

    threads blocks together hold at most BLOCK_ELEMENTS elements, or a
    single row each when one row alone is longer.  NumPy reduces each row
    along its last axis the same way whatever the number of rows, so a sum
    over the data computed block by block is bit-identical to the one over
    the full array, while the working memory stays bounded by the budget.
    """
    step = max(1, BLOCK_ELEMENTS // threads // max(cols, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


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


def _fill_each(fill, blocks) -> None:
    for rows in blocks:
        fill(rows)


def for_blocks(rows: int, cols: int, fill) -> None:
    """Call fill(block) for every slice of row_blocks(rows, cols, threads), in parallel.

    threads is the number of usable CPUs, up to MAX_BLOCK_THREADS, read once
    per call, so the blocks in flight share BLOCK_ELEMENTS however the CPUs
    this process may use change.  The blocks run on a process-wide thread
    pool, created on first use with MAX_BLOCK_THREADS workers; it starts a
    thread only for a task that finds none idle, so a call runs its tasks on
    at most threads of them, and a later call on more CPUs gets the threads
    its blocks were split for.  The blocks are dealt round-robin, one task
    per thread, each run in a copy of the caller's context so that
    np.errstate holds; NumPy releases the GIL inside its loops.  A single
    block, or a single CPU, runs in the calling thread.
    Each fill may write only cells that no other block writes (its own rows,
    or cells such as a mirrored triangle that only it fills) and must leave
    every reduction across blocks to the caller, whose result then has the
    same bits whatever the number of threads.  A fill must not call
    for_blocks.  An exception in a fill skips the rest of its thread's share
    and reaches the caller once every thread has stopped.
    """
    global _pool
    threads = min(_worker_count(), MAX_BLOCK_THREADS)
    blocks = list(row_blocks(rows, cols, threads))
    k = min(threads, len(blocks))
    if k <= 1:
        _fill_each(fill, blocks)
        return
    import contextvars
    from concurrent.futures import ThreadPoolExecutor, wait
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(MAX_BLOCK_THREADS, thread_name_prefix="semistart")
        pool = _pool
    futures = [pool.submit(contextvars.copy_context().run, _fill_each, fill, blocks[i::k])
               for i in range(k)]
    wait(futures)
    for f in futures:
        f.result()


# Windowed sums.  Each point x sums the kernel's profile K((x - x_i)/h) times
# a positive datum weight c_i (a column over the data, or 1/d_i for a
# divisor d) over a window of the data sorted by x, within the kernel's
# reach of x.  For the gaussian kernel, with x's nearest datum x0 at
# d = |x - x0| and t0 = d/h, data farther than
# R = hypot(d, h * sqrt(_gauss_reach(n)^2 + 2 ln(c/c0))), with c the largest
# weight and c0 x0's, each weigh below 2^-60 c0/(n c) of x0's term
# c0 exp(-t0^2/2), and are left out: together they move a sum by below
# 2^-60 of x0's term, and a ratio of two sums, the regression's value, by
# below 2^-59 of its terms' scale.  (A c0 of 0 keeps every datum.)  The
# weights take the form of squares, exp(((x - x_i) * (1/h))^2 * -0.5), with
# 1/h taken once per call, within one bandwidth of x0.  Where every column
# is None, so that the sums are the weights' own (the density's), they keep
# that form farther out while every exponent within the reach, above -(R/h)^2/2, stays above
# -_SQUARES_LIMIT/2: a squared exponent carries a rounding of a few ulps of
# t0^2/2, and so does the factor exp(-t0^2/2) that the caller puts back on
# such a sum.  A column's sum is the numerator of a ratio to the weights'
# own sum, which cancels that factor but would keep the squares' rounding:
# with the squares out to the bound, regression values 12-36 bandwidths past
# responses centred on 0 missed by up to 5e-14 of their terms' scale, and by
# below 1e-15 with the form measured from x0.  Farther out the exponent is
# measured from x0's, -(x0 - x_i)((x - x_i) + (x - x0))/(2 h^2), taken as
# ((x - x_i) + (x - x0)) * (1/h) times (x0 - x_i) * (-0.5 * (1/h)), whose
# factors are differences of the data: x0's weight is exactly 1, no exponent
# within the reach is below -R^2/(2 h^2) + t0^2/2, and nothing is lost to the
# large squares that would cancel in (x - x_i)^2 - d^2; the factor
# exp(-t0^2/2) is left to the caller, in logs.  The squares take 8 passes
# over a block and the form measured from x0 10: using the latter everywhere
# made a regression call 30-45% slower.  The data a window's rounding adds
# lie beyond the reach, and may weigh a tiny or subnormal amount, or 0.0.
def _gauss_reach(n: int) -> float:
    return math.sqrt(2.0 * math.log(n) + 120.0 * math.log(2.0))


# The bound on (R/h)^2 within which the gaussian weights' own sums take the
# form of squares: every exponent within a point's reach then stays above
# _EXP_FAST_MIN, off np.exp's slow underflow path.
_SQUARES_LIMIT = -2.0 * _EXP_FAST_MIN


@np.errstate(over="ignore", divide="ignore")
def _plan(shape: str, h: float, xs: np.ndarray, pts: np.ndarray, cols: list, divisor):
    """The blocks of points that share a window and a form, and each point's offsets.

    Each point's window [lo, hi) of the sorted data xs holds every datum
    within the kernel's reach of it for every weight of cols and divisor.  It
    is rounded outward to multiples of a granule g that depends on n alone,
    so that a grid has few distinct windows while each stays a function of
    its point.  A gaussian point takes the form of squares within one
    bandwidth of its nearest datum and, where cols holds no column, farther
    out while its squared reach in bandwidths, (R/h)^2, stays within
    _SQUARES_LIMIT (see above _gauss_reach); a point whose t0^2
    overflows gets an empty window, as each of its weights underflows.
    Returns the blocks (_blocks), each gaussian point's offset x - x0 from
    its nearest datum x0 and x0 itself (None for the compact kernels), and
    t0 as window_sums returns it.  Reaches, distances and ratios that
    overflow to inf make full or empty windows.
    """
    n = xs.size
    if shape == "gaussian":
        j = np.searchsorted(xs, pts)
        left, right = np.maximum(j - 1, 0), np.minimum(j, n - 1)
        j0 = np.where(pts - xs[left] <= xs[right] - pts, left, right)
        x0 = xs[j0]
        off = pts - x0
        dist = np.abs(off)
        widen = 0.0
        for col in cols:
            if col is not None:
                c = np.abs(col)
                top = float(c.max())
                if top > 0.0:
                    widen = np.maximum(widen, 2.0 * (math.log(top) - np.log(c[j0])))
        if divisor is not None:  # the weights 1/d_i
            widen = np.maximum(widen, 2.0 * (np.log(divisor[j0]) - math.log(divisor.min())))
        rho2 = _gauss_reach(n) ** 2 + widen
        reach = np.hypot(dist, h * np.sqrt(rho2))
        bound = _SQUARES_LIMIT if all(col is None for col in cols) else 0.0
        near = dist <= h * np.sqrt(np.maximum(1.0, bound - rho2))
        # the window holds x0 however x -+ reach rounds
        below, above = np.minimum(pts - reach, x0), np.maximum(pts + reach, x0)
        t = off / h
    else:
        # the support |x - x_i| <= h/2, widened by a few ulps of h and of x
        # so that no datum whose weight is not 0.0 falls outside
        reach = h * (0.5 + 2.0**-50) + 4.0 * np.spacing(np.abs(pts) + h)
        below, above = pts - reach, pts + reach
        off = x0 = None
        near, t = np.zeros(pts.size, dtype=bool), np.zeros(pts.size)
    # lo is the greatest multiple of g with every datum before it below the
    # reach, and hi the least multiple of g (or n) with every datum from it on
    # above
    g = max(1, math.isqrt(n))
    lo = g * np.searchsorted(xs[g - 1::g], below, side="left")
    hi = np.minimum(g * np.searchsorted(xs[::g], above, side="right"), n)
    gone = ~(t * t < np.inf)
    hi[gone] = lo[gone]
    return _blocks(lo, hi, near, n), off, x0, np.where(near, 0.0, t)


def _blocks(lo, hi, near, n: int) -> list:
    """Row blocks (rows, lo, hi, squares) of the points sharing a window and a form.

    Point k's window is [lo[k], hi[k]) and near[k] says whether its weights
    take the form of squares.  Each block holds at most BLOCK_ELEMENTS
    weights, or one row when a window alone is longer; points with an empty
    window get none.  rows is a slice where the points of a block are
    consecutive, as in a sorted grid.
    """
    key = (lo * (n + 1) + hi) * 2 + near
    rows = np.flatnonzero(hi > lo)
    if rows.size < key.size:
        key = key[rows]
    if np.any(key[1:] < key[:-1]):  # a grid out of order
        order = np.argsort(key, kind="stable")  # keeps the rows of a window in order
        key, rows = key[order], rows[order]
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    out = []
    for s, e in zip([0] + cuts, cuts + [key.size]) if key.size else ():
        r = int(rows[s])
        a, b, squares = int(lo[r]), int(hi[r]), bool(near[r])
        run = int(rows[e - 1]) - r == e - s - 1
        out += [(slice(r + k.start, r + k.stop) if run else rows[s + k.start:s + k.stop],
                 a, b, squares)
                for k in row_blocks(e - s, b - a)]
    return out


def window_sums(shape: str, h: float, xs: np.ndarray, pts: np.ndarray, cols: list,
                divisor=None):
    """Kernel-weighted sums over the sorted data xs at the points pts, one per column.

    Each point sums its window of xs (_plan), so it has the same bits alone
    as in a grid.  The blocks (_blocks) run in order in the calling thread:
    on two CPUs the block pool bought these sums no wall time and cost them
    CPU time.  The weights are the kernel's unnormalised profile
    K((x - x_i)/h), over divisor[i] where a divisor is given (d_i > 0, so
    that a weight of 0.0 stays 0.0); the gaussian's take one of the two
    forms described above _gauss_reach.  No lane is divided by h, and none
    by the divisor unless a reciprocal 1/d_i overflows.  Column k of cols
    gives the sums of the weights where it is None and of the weights times
    its values otherwise; the block takes the product with the last column
    in place.
    Returns the sums and t0, the offsets (x - x0)/h from each point's
    nearest datum x0 whose factor exp(-t0^2/2) the form measured from x0
    leaves out: 0.0 where the weights take the form of squares, and at every
    point of a compact kernel.
    """
    h = float(h)
    blocks, off, x0, t0 = _plan(shape, h, xs, pts, cols, divisor)
    # the lanes multiply by reciprocals taken once per call: 1/h, and the
    # weights 1/d_i unless one of them overflows (a d_i below 1/DBL_MAX, a
    # start's density far out in an unclipped tail), as 0.0 * inf is NaN;
    # the lanes then divide by the divisor
    rh = 1.0 / h
    weigh = scale = None
    if divisor is not None:
        with np.errstate(over="ignore"):
            recip = 1.0 / divisor
        weigh, scale = (np.divide, divisor) if np.isinf(recip).any() else (np.multiply, recip)
    sums = [np.zeros(pts.size) for _ in cols]

    with np.errstate(over="ignore"):  # a datum the granule adds may lie far out: weight 0.0
        for rows, a, b, squares in blocks:
            w = np.subtract(pts[rows, None], xs[None, a:b])
            if shape != "gaussian":
                _profile(shape, h, w, w)
            elif squares:
                w *= rh
                np.multiply(w, w, out=w)
                w *= -0.5
                np.exp(w, out=w)
            else:
                w += off[rows, None]
                w *= rh
                d = np.subtract(x0[rows, None], xs[None, a:b])
                d *= -0.5 * rh
                w *= d
                np.exp(w, out=w)
            if scale is not None:
                weigh(w, scale[None, a:b], out=w)
            for k, col in enumerate(cols):
                if col is None:
                    sums[k][rows] = w.sum(axis=1)
                elif k < len(cols) - 1:
                    sums[k][rows] = np.multiply(w, col[None, a:b]).sum(axis=1)
                else:
                    w *= col[None, a:b]
                    sums[k][rows] = w.sum(axis=1)
    return sums, t0
