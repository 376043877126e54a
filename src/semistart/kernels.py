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
           "for_blocks", "WindowSums", "SHAPES"]

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
    are divided by h, unlike WindowSums', which multiply by 1/h: the
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


# Expanded gaussian sums, the other half of Greengard and Strain's fast Gauss
# transform.  The sorted data are cut into chunks of width _CHUNK * h from
# xs[0]; with c a chunk's centre, r_i = (x_i - c)/h and S = (x - c)/h,
#   sum_i c_i exp(-(S - r_i)^2/2) = exp(-S^2/2) sum_k M_k S^k,
#   M_k = sum_i c_i exp(-r_i^2/2) r_i^k/k!,
# so a point sums P multiply-adds per chunk of its window where the direct
# fill takes one exp per datum.  Within the expansion's reach, |S| <= 2/W
# with W = _CHUNK and |r_i| <= W/2, so |S r_i| <= 1: the terms left out past
# k = P - 1 weigh below e/P! of e^{S r_i}, and so below e^2/P! of the datum's
# own term; _TERMS is the least P that puts that under 2^-60 (21).  A
# positive column's M_k S^k add up to at most e^{|S| W} <= e^2 times their
# sum, which bounds what Horner's rule loses to cancellation.  W = 1/8 is
# the widest power of two whose reach 2/W - W/2 covers the gaussian reach
# (_gauss_reach is about 10-11 up to n = 1e8).  The chunk indices and
# centres are rounded: with every datum within _CHUNK_RANGE chunks of 0 they
# miss by below 2^-7 of a chunk, so |S r_i| <= 1 + 2^-5, and the terms left
# out, below e^{2q} q^P/P! at q = |S r_i|, stay under 2^-60.
_CHUNK = 0.125
_CHUNK_REACH = 2.0 / _CHUNK
_TERMS = next(p for p in range(1, 64) if math.e**2 / math.factorial(p) < 2.0**-60)
_CHUNK_RANGE = 2.0**44
# A point takes the expansion only with this many data in its window, which
# spans at most 2 * _CHUNK_REACH / _CHUNK + 1 = 257 chunks: 32 data or more
# per chunk.  A chunk's moments cost about 2P passes over its data, against
# 7 per datum and point for the direct fill; a WindowSums object keeps them,
# so it pays them once per chunk, and later points pay only Horner's rule.
# So a point alone on a fresh object pays more than the direct fill, and
# a grid that shares its chunks less (on 161 points, windows of 4,200 data
# took 1.1 times the direct fill's time and of 7,400 0.8 times)
_DENSE_MIN = 2**13
# weights outside [2^-600, 2^600] (0.0 aside) could overflow the moments or
# lose them to the subnormal grid: the call then sums directly
_WEIGHT_RANGE = 2.0**600


def _weights_in_range(cols: list, recip) -> bool:
    """Whether every weight 1/d_i (recip) and every column value is 0.0 or within
    [1/_WEIGHT_RANGE, _WEIGHT_RANGE] in magnitude."""
    for c in ([] if recip is None else [recip]) + [c for c in cols if c is not None]:
        a = np.abs(c)
        if not np.all((a <= _WEIGHT_RANGE) & ((a >= 1.0 / _WEIGHT_RANGE) | (a == 0.0))):
            return False
    return True


class WindowSums:
    """Kernel-weighted sums over the sorted data xs, one per column, at any points.

    An object serves one kernel shape, bandwidth h, sorted data xs, list of
    columns cols and divisor (or None), whose arrays must not change under
    it; each call sums at new points (__call__).  It keeps what its calls
    find, for later calls to reuse:
      recip, divide   the weights 1/d_i, taken here (None without a
                      divisor), and whether one of them overflows, so that
                      the lanes divide by d_i instead;
      starts          the chunks' data offsets, n closing them (see above
                      _CHUNK): None until a point is dense, and empty where
                      no point may take the expansion;
      uid, centres    the chunks' indices counted from xs[0], and centres;
      run             (first, moments), moments[k, j, i] being M_k of
                      column j for chunk first + i;
      last            the last call's (points, sums, t0), read-only, or None.
    A field is replaced whole, never written in place.
    """

    def __init__(self, shape: str, h: float, xs: np.ndarray, cols: list, divisor=None):
        self.shape, self.h, self.xs, self.cols, self.divisor = shape, float(h), xs, cols, divisor
        self.recip, self.divide = None, False
        if divisor is not None:
            with np.errstate(over="ignore"):
                self.recip = 1.0 / divisor
            self.divide = bool(np.isinf(self.recip).any())
        self.starts = self.uid = self.centres = self.run = self.last = None

    def __call__(self, pts: np.ndarray):
        """The sums at the points pts, one per column, and their t0.

        Each point sums its window of xs (_plan), so it has the same bits alone
        as in a grid: datum by datum, or, for a dense gaussian window, chunk by
        chunk from the chunks' moments (_expanded_sums, see above _CHUNK), as a
        rule on the point, the data, h and the weights alone decides.  The
        direct fill's blocks (_blocks) run in order in the calling thread:
        on two CPUs the block pool bought these sums no wall time and cost them
        CPU time.  The weights are the kernel's unnormalised profile
        K((x - x_i)/h), over divisor[i] where a divisor is given (d_i > 0, so
        that a weight of 0.0 stays 0.0); the gaussian's take one of the two
        forms described above _gauss_reach.  No lane is divided by h, and none
        by the divisor unless a reciprocal 1/d_i overflows.  Column k of cols
        gives the sums of the weights where it is None and of the weights times
        its values otherwise; the block takes the product with the last column
        in place.
        Each chunk's moments read its own data alone, so a value has the same
        bits on a fresh object as on one whose earlier calls found them.  A
        call on the last call's points (-0.0 equals 0.0, with the same sums)
        returns its results without planning or filling.
        Returns the sums and t0, read-only: the offsets (x - x0)/h from each
        point's nearest datum x0 whose factor exp(-t0^2/2) the form measured
        from x0 leaves out, 0.0 where the weights take the form of squares and
        at every point of a compact kernel.
        """
        shape, h, xs, cols = self.shape, self.h, self.xs, self.cols
        # the lanes multiply by reciprocals: 1/h, taken once per call, and the
        # weights 1/d_i, once per object, unless one of them overflows (a d_i
        # below 1/DBL_MAX, a start's density far out in an unclipped tail), as
        # 0.0 * inf is NaN; the lanes then divide by the divisor
        rh = 1.0 / h
        last = self.last
        if last is not None and np.array_equal(last[0], pts):
            return list(last[1]), last[2]
        weigh = scale = None
        if self.divisor is not None:
            weigh, scale = (np.divide, self.divisor) if self.divide else (np.multiply, self.recip)
        blocks, off, x0, t0, expanded = self._plan(pts)
        sums = [np.zeros(pts.size) for _ in cols]
        if expanded is not None:
            self._expanded_sums(pts, expanded, sums)

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
        pts = pts.copy()
        for v in (pts, t0, *sums):
            v.flags.writeable = False
        self.last = (pts, tuple(sums), t0)
        return sums, t0

    @np.errstate(over="ignore", divide="ignore")
    def _plan(self, pts: np.ndarray):
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
        A gaussian point within one bandwidth of x0 whose window holds at least
        _DENSE_MIN data takes the expansion instead, where the weights 1/d_i
        and the columns lie in range and its chunks do (_chunk_plan); the
        chunks are found (_chunked) if there are none yet.
        Returns the blocks (_blocks), each gaussian point's offset x - x0 from
        its nearest datum x0 and x0 itself (None for the compact kernels), t0
        as __call__ returns it, and the expanded points' plan (None for
        none).  Reaches, distances and ratios that overflow to inf make full or
        empty windows.
        """
        shape, h, xs, cols, divisor = self.shape, self.h, self.xs, self.cols, self.divisor
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
                    top = max(float(col.max()), -float(col.min()))
                    if top > 0.0:
                        widen = np.maximum(widen, 2.0 * (math.log(top) - np.log(np.abs(col[j0]))))
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
        expanded = None
        if shape == "gaussian" and n >= _DENSE_MIN:
            dense = np.flatnonzero((dist <= h) & (hi - lo >= _DENSE_MIN))
            if dense.size:
                if self.starts is None:
                    self._chunked()
                if self.starts.size:
                    expanded = self._chunk_plan(pts, dense, below[dense], above[dense])
            if expanded is not None:
                rows = expanded[0]
                hi[rows] = lo[rows]
        return _blocks(lo, hi, near, n), off, x0, np.where(near, 0.0, t), expanded

    def _chunked(self) -> None:
        """Find the chunks of xs at h, with no moments yet; none where a weight is
        out of range or a datum lies _CHUNK_RANGE chunks or more from 0."""
        xs = self.xs
        inv = 1.0 / (_CHUNK * self.h)
        if not (max(abs(xs[0]), abs(xs[-1])) * inv < _CHUNK_RANGE  # inf and NaN too
                and _weights_in_range(self.cols, self.recip)):
            self.starts = np.empty(0, dtype=np.intp)
            return
        ids = np.floor((xs - xs[0]) * inv)
        starts = np.flatnonzero(ids[1:] != ids[:-1])
        starts += 1
        starts = np.concatenate([[0], starts, [xs.size]])
        self.uid = ids[starts[:-1]]
        self.centres = xs[0] + (self.uid + 0.5) * (_CHUNK * self.h)
        self.run = (0, np.empty((_TERMS, len(self.cols), 0)))
        self.starts = starts  # last: a thread that sees starts sees the rest

    def _chunk_plan(self, pts: np.ndarray, rows, below, above):
        """The points pts[rows] whose chunks lie within the expansion's reach, and their chunks.

        A point's window is every chunk that holds data between below and
        above, and it takes the expansion where both end chunks' centres lie
        within _CHUNK_REACH bandwidths.  Returns None where no point qualifies;
        else (rows kept, each kept point's first and past-last chunk).
        """
        h, xs = self.h, self.xs
        inv = 1.0 / (_CHUNK * h)
        a = np.searchsorted(self.uid, np.floor((below - xs[0]) * inv), side="left")
        b = np.searchsorted(self.uid, np.floor((above - xs[0]) * inv), side="right")
        p = pts[rows]
        keep = np.maximum(np.abs(p - self.centres[a]), np.abs(p - self.centres[b - 1]))
        keep *= 1.0 / h
        keep = keep <= _CHUNK_REACH
        if not keep.any():
            return None
        return rows[keep], a[keep], b[keep]

    def _chunk_moments(self, lo: int, hi: int) -> np.ndarray:
        """The moments M_k (see above _CHUNK) of chunks lo to hi, (_TERMS, len(cols),
        hi - lo), each from the chunk's data alone.

        They take runs of chunks with up to BLOCK_ELEMENTS/2 terms of all
        columns, or one chunk.
        """
        xs, cols, recip = self.xs, self.cols, self.recip
        rh = 1.0 / self.h
        counts = np.diff(self.starts[lo:hi + 1])
        centres = self.centres[lo:hi]
        out = np.empty((_TERMS, len(cols), hi - lo))
        for run, at, seg in _runs(counts, self.starts[lo:hi], BLOCK_ELEMENTS // 2 // len(cols)):
            r = np.take(xs, at)
            r -= np.repeat(centres[run], counts[run])
            r *= rh
            t = np.empty((len(cols), r.size))
            g = t[0]
            np.multiply(r, r, out=g)
            g *= -0.5
            np.exp(g, out=g)
            if recip is not None:
                g *= np.take(recip, at)
            for j in range(len(cols) - 1, -1, -1):  # row 0, g, is overwritten last
                if cols[j] is not None:
                    np.multiply(g, np.take(cols[j], at), out=t[j])
                elif j:
                    t[j] = g
            for k in range(_TERMS):
                out[k, :, run] = np.add.reduceat(t, seg, axis=1)
                if k < _TERMS - 1:
                    t *= r
        out /= np.array([math.factorial(k) for k in range(_TERMS)])[:, None, None]
        return out

    def _expanded_sums(self, pts: np.ndarray, plan, sums: list) -> None:
        """Write the expanded gaussian sums of the points of plan (_chunk_plan) into sums.

        run holds the moments of a run of chunks; the chunks from the first to
        the last that a point needs and that it lacks get theirs
        (_chunk_moments), and run takes the longer run.  Each point sums
        exp(-S^2/2) times Horner's sum_k M_k S^k over its own chunks, so no
        value depends on the other points, nor on which call found the
        moments.  The points take runs with up to BLOCK_ELEMENTS/4 lanes of
        all columns, one per chunk of a point's window and column.
        """
        rows, a, b = plan
        first, m = self.run
        end = first + m.shape[2]
        lo, hi = int(a.min()), int(b.max())
        if m.shape[2] == 0:
            first = end = lo
        if lo < first or hi > end:
            lo, hi = min(lo, first), max(hi, end)
            m = np.concatenate([self._chunk_moments(lo, first), m,
                                self._chunk_moments(end, hi)], axis=2)
            first = lo
            self.run = (first, m)
        centres = self.centres[first:first + m.shape[2]]

        rh = 1.0 / self.h
        lanes = b - a
        for run, at, seg in _runs(lanes, a - first, BLOCK_ELEMENTS // 4 // len(self.cols)):
            S = np.repeat(pts[rows[run]], lanes[run])
            S -= centres.take(at)
            S *= rh
            damp = S * S
            damp *= -0.5
            np.exp(damp, out=damp)
            # at is in range: mode="clip" only skips the bounds check
            acc = m[_TERMS - 1].take(at, axis=1, mode="clip")
            tmp = np.empty_like(acc)
            for k in range(_TERMS - 2, -1, -1):
                acc *= S
                acc += m[k].take(at, axis=1, out=tmp, mode="clip")
            acc *= damp
            for j, s in enumerate(sums):
                s[rows[run]] = np.add.reduceat(acc[j], seg)


def _runs(lens: np.ndarray, firsts: np.ndarray, budget: int):
    """Consecutive runs of the ranges [firsts[i], firsts[i] + lens[i]).

    Each run holds as many ranges as keep their lengths together within
    budget, or one range.  Yields the run's slice of the ranges, their
    indices laid end to end, and each range's offset among them.
    """
    ends = np.cumsum(lens)
    s = 0
    while s < lens.size:
        base = ends[s] - lens[s]
        e = max(s + 1, int(np.searchsorted(ends, base + budget, "right")))
        seg = ends[s:e] - lens[s:e] - base
        at = np.arange(int(ends[e - 1] - base))
        at += np.repeat(firsts[s:e] - seg, lens[s:e])
        yield slice(s, e), at, seg
        s = e


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
