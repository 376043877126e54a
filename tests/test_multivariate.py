import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistart.bandwidth import rule_delta
from semistart.densities import NormalMixture, mixture_sample
from semistart.estimator import DensityEstimate, estimate_semiparametric
from semistart import kernels
from semistart import multivariate as mv
from semistart.kernels import MAX_BLOCK_THREADS, SQRT_2PI, kernel_props
from semistart.multivariate import MvEstimate, mv_bandwidth, mv_estimate, sphere
from semistart.starts import FittedStart

from conftest import literal_mv

G = kernel_props("gaussian")


def rng_data(seed, n, d, mix=False):
    rng = np.random.Generator(np.random.Philox(seed))
    if mix:
        comp = rng.integers(0, 2, n)
        centers = np.array([[-2.0, 0.0], [2.0, 1.0]])
        return centers[comp] + rng.standard_normal((n, d))
    return rng.standard_normal((n, d))


def test_mv_estimate_reduces_to_univariate_corrected():
    x = mixture_sample(NormalMixture(weights=[0.5, 0.5], means=[-1.0, 1.5],
                                     sds=[0.8, 1.2]), 60, seed=3)
    mu, sd = float(x.mean()), float(x.std())
    h = 0.55
    e = MvEstimate.fit(x[:, None], h=h)
    uni = DensityEstimate(x, G, h * sd, FittedStart("normal", {"mu": mu, "sd": sd}))
    grid = np.linspace(-4, 4, 17)
    got = mv_estimate(e, grid[:, None])
    want = estimate_semiparametric(uni, grid)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mv_estimate_single_datum_identity():
    e = MvEstimate(np.zeros((1, 2)), np.zeros(2), np.eye(2), h=1.0)
    assert mv_estimate(e, np.zeros(2)) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)


@pytest.mark.parametrize("clip", [np.nan, 0.0, -1.0, -np.inf])
def test_mv_estimate_rejects_a_nan_or_nonpositive_clip(clip):
    # a NaN clip once gave NaN at every point, and clip = -1 the bits of
    # clip = 1.  An infinite clip caps no radius, as clip = None
    x = np.random.default_rng(3).standard_normal((40, 2))
    with pytest.raises(ValueError, match="^clip threshold must be positive$"):
        MvEstimate.fit(x, 0.5, clip=clip)
    pts = np.array([[0.0, 0.0], [3.0, -2.0]])
    assert np.array_equal(mv_estimate(MvEstimate.fit(x, 0.5, clip=np.inf), pts),
                          mv_estimate(MvEstimate.fit(x, 0.5, clip=None), pts))


def test_mv_estimate_total_mass():
    # raw formula (no clip): the determinant factor makes the mass ~1
    data = rng_data(4, 500, 2)
    e = MvEstimate.fit(data, h=0.7, clip=None)
    grid = np.linspace(-6, 6, 241)
    xx, yy = np.meshgrid(grid, grid)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = mv_estimate(e, pts).reshape(xx.shape)
    mass = np.trapezoid(np.trapezoid(vals, grid, axis=1), grid)
    assert mass == pytest.approx(1.0, abs=0.02)
    assert np.all(vals >= 0.0)


def test_sphere_round_trip_and_identity():
    data = rng_data(7, 200, 3)
    y, mean, root = sphere(data)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.T @ y / y.shape[0], np.eye(3), atol=1e-8)
    np.testing.assert_allclose(mean + y @ root.T, data, atol=1e-10)
    y2, _, _ = sphere(y)
    np.testing.assert_allclose(y2, y - y.mean(axis=0), atol=1e-10)
    with pytest.raises(ValueError):
        sphere(np.ones((5, 2)))


def test_affine_equivariance():
    data = rng_data(8, 300, 2)
    A = np.array([[2.0, 0.5], [-0.3, 1.2]])
    b = np.array([1.0, -2.0])
    e = MvEstimate.fit(data, h=0.5)
    em = MvEstimate.fit(data @ A.T + b, h=0.5)
    pts = rng_data(9, 6, 2)
    v = mv_estimate(e, pts)
    v_mapped = mv_estimate(em, pts @ A.T + b) * abs(np.linalg.det(A))
    np.testing.assert_allclose(v_mapped, v, atol=1e-8)


def test_mv_bandwidth_reduces_to_robust_rule_in_1d():
    x = mixture_sample(NormalMixture(weights=[0.5, 0.5], means=[-2.0, 2.0],
                                     sds=[1.0, 1.0]), 400, seed=10)
    ch = mv_bandwidth(x[:, None])
    # the univariate robust rule's brace (degrees 2..5) plus the d_6^2 / 4!
    # term that the d-dimensional rule's |J| <= 4 adds
    from semistart.hermite import hermite_poly
    uni = rule_delta(x, G)
    sd = float(np.std(x))
    z = (x - x.mean()) / sd
    d6 = float(np.mean(np.sqrt(2.0) * np.exp(-0.5 * z * z) * hermite_poly(6, np.sqrt(2.0) * z)))
    brace = uni.diagnostics["roughness"] * sd**5 * np.sqrt(np.pi) / 2.0 + d6**2 / 24.0
    assert d6**2 / 24.0 > 1e-3 * brace
    assert ch.diagnostics["brace"] == pytest.approx(brace, rel=1e-10)


def test_mv_bandwidth_population_degeneracy_oracle():
    # population coefficients at the d-dim standard normal: the constant one
    # is exactly 1 and every bumped sum vanishes (product gaussian integrals)
    from scipy.integrate import quad
    from semistart.hermite import hermite_poly
    from conftest import phi
    e0 = quad(lambda z: np.exp(-0.5 * z * z) * phi(z), -12, 12)[0]
    assert 2.0 * e0**2 == pytest.approx(1.0, abs=1e-10)  # d = 2 constant coefficient
    e2 = quad(lambda z: hermite_poly(2, np.sqrt(2.0) * z) * np.exp(-0.5 * z * z) * phi(z),
              -12, 12)[0]
    assert e2 == pytest.approx(0.0, abs=1e-10)
    # sampled multinormal data: the brace degenerates and the rule clamps
    ch = mv_bandwidth(rng_data(11, 2000, 2))
    assert ch.diagnostics["clamped"]
    assert ch.h == pytest.approx(1.144 * 2000 ** (-1.0 / 6.0), rel=1e-12)


def test_mv_bandwidth_mixture_data_in_range():
    ch = mv_bandwidth(rng_data(12, 2000, 2, mix=True))
    assert 0.0 < ch.h <= 1.144 * 2000 ** (-1.0 / 6.0) + 1e-15
    assert np.isfinite(ch.h)


def _grid(g1, g2, meshgrid=False):
    """The points of the tensor grid g1 x g2: column_stack(repeat(g1), tile(g2)), or
    meshgrid's ravel order, in which the first coordinate runs fastest."""
    if meshgrid:
        return np.column_stack([a.ravel() for a in np.meshgrid(g1, g2)])
    return np.column_stack([np.repeat(g1, g2.size), np.tile(g2, g1.size)])


def _shuffled(pts):
    """The rows of a grid in an order that is no tensor grid's, which keeps the direct path."""
    out = pts[np.random.default_rng(0).permutation(len(pts))]
    assert mv._tensor_axes(out) is None
    return out


def _full_mv_estimate(e, pts):
    """Unblocked corrected estimate, with distances by broadcasting (no GEMM)."""
    vals, vecs = np.linalg.eigh(e.cov)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    yd = (e.data - e.mean) @ inv_root.T
    yp = (pts - e.mean) @ inv_root.T
    q_d = np.minimum(np.sum(yd * yd, axis=1), e.clip**2)
    q_p = np.minimum(np.sum(yp * yp, axis=1), e.clip**2)
    sq = np.sum((yp[:, None, :] - yd[None, :, :]) ** 2, axis=-1)
    d = e.data.shape[1]
    kern = np.exp(-0.5 * sq / e.h**2) / (2.0 * np.pi * e.h**2) ** (d / 2.0)
    kern = kern / np.sqrt(np.linalg.det(e.cov))
    return np.mean(kern * np.exp(-0.5 * q_p[:, None] + 0.5 * q_d[None, :]), axis=1)


@pytest.mark.parametrize("n, side", [
    (2**15 + 7, 3),           # one row per block
    (2000, 23),               # 16 rows per block, 529 points: 1 left over
    # 16 rows per block, over three blocks per block thread
    pytest.param(2000, int(np.sqrt(48 * MAX_BLOCK_THREADS)) + 1, id="more_blocks_than_workers"),
])
def test_blocked_mv_estimate_matches_full_sum(n, side, monkeypatch):
    # 2^15 elements per block on the pool's threads: the geometry the cases describe
    threads = min(kernels._worker_count(), MAX_BLOCK_THREADS)
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 2**15 * threads)
    data = rng_data(11, n, 2, mix=True)
    e = MvEstimate.fit(data, h=0.3)
    pts = _shuffled(e.mean + _grid(np.linspace(-4.0, 4.0, side), np.linspace(-4.0, 4.0, side)))
    want = _full_mv_estimate(e, pts)
    got = mv_estimate(e, pts)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    assert mv_estimate(e, pts[4]) == pytest.approx(want[4], rel=1e-14)


@pytest.mark.parametrize("h, at_datum", [(1e-200, False), (1e200, False), (1e155, False),
                                         (1e-155, True)])
def test_h_squared_must_be_a_finite_normal_float(h, at_datum):
    # the sums scale by -1/(2 h^2): these raised ZeroDivisionError or
    # OverflowError, or gave nan at a datum, where the exponent is 0 * -inf
    data = np.random.default_rng(0).standard_normal((50, 2))
    point = data[0] if at_datum else np.zeros(2)
    with pytest.raises(ValueError, match=r"^bandwidth h must be from about 1\.49e-154 to "
                                         r"1\.34e\+154: h\^2 must be a finite normal float$"):
        mv_estimate(MvEstimate.fit(data, h), point)
    for h_ok in (1.5e-154, 1.34e154):  # the ends of the range build and evaluate
        assert np.isfinite(mv_estimate(MvEstimate.fit(data, h_ok), point))


@pytest.mark.parametrize("cov", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]],
                                 [[1.0, 0.0], [0.0, 1e-12]]],
                         ids=["singular", "indefinite", "ill_conditioned"])
def test_singular_covariance_is_rejected_at_construction(cov):
    x = rng_data(13, 50, 2)
    collinear = np.column_stack([x[:, 0], 2.0 * x[:, 0]])
    msg = r"^covariance is not \(numerically\) positive definite$"
    for build in (lambda: MvEstimate(x, np.zeros(2), cov, 0.4),
                  lambda: MvEstimate.fit(collinear, 0.4),
                  lambda: sphere(collinear)):
        with pytest.raises(ValueError, match=msg):
            build()


def test_mv_estimate_reuses_the_factorisation(monkeypatch):
    # on the direct path, and on a tensor grid, which takes P from inv_root
    e = MvEstimate.fit(rng_data(14, 300, 2), h=0.4, clip=1.5)
    scattered = rng_data(15, 20, 2)
    grid = _grid(np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 3.0, 4))
    assert mv._tensor_axes(scattered) is None and mv._tensor_axes(grid) is not None
    want = [mv_estimate(e, pts) for pts in (scattered, grid)]

    def refuse(*args):
        raise AssertionError("the covariance was factorised again")

    monkeypatch.setattr(mv, "_cov_factor", refuse)
    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert all(np.array_equal(mv_estimate(e, pts), w) for pts, w in zip((scattered, grid), want))


def _peak_bytes(e, pts):
    tracemalloc.start()
    try:
        mv_estimate(e, pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mv_grid_evaluation_memory_is_bounded():
    # the working set is a fixed block, not the (1681 x 1e4) matrices (about 130 MB each)
    e = MvEstimate.fit(rng_data(12, 10_000, 2), h=0.4)
    g = np.linspace(-3.0, 3.0, 41)
    assert _peak_bytes(e, _shuffled(_grid(g, g, meshgrid=True))) <= 8 * 2**20


def test_mv_tensor_grid_evaluation_memory_is_bounded(tensor_only):
    # the tensor path's working set is a block of each factor
    e = MvEstimate.fit(rng_data(12, 10_000, 2), h=0.4)
    g = np.linspace(-3.0, 3.0, 41)
    assert _peak_bytes(e, _grid(g, g, meshgrid=True)) <= 8 * 2**20


@pytest.mark.parametrize("d, x, msg", [
    (2, np.zeros(3), "evaluation points must have d = 2 coordinates, got 3$"),
    (2, np.zeros((1, 3)), "evaluation points must have d = 2 coordinates, got 3$"),
    (2, np.zeros((4, 1)), "evaluation points must have d = 2 coordinates, got 1$"),
    (1, np.array([0.1, 0.2, 0.3]),
     r"evaluation points must have d = 1 coordinates, got 3; pass several points as an "
     r"\(m, 1\) matrix$"),
    (2, 0.1, r"evaluation points must be one point of d = 2 coordinates or an \(m, 2\) "
             r"matrix, got an array of shape \(\)$"),
    (1, np.zeros((2, 3, 1)), r"evaluation points must be one point of d = 1 coordinates or "
                             r"an \(m, 1\) matrix, got an array of shape \(2, 3, 1\)$"),
])
def test_evaluation_points_of_the_wrong_dimension_are_rejected(d, x, msg):
    e = MvEstimate.fit(rng_data(16, 40, d), h=0.5)
    with pytest.raises(ValueError, match=msg):
        mv_estimate(e, x)


def _mv_case(seed, n, d, h, m, clip, far):
    """An estimate and m points; far moves a point to where its exponents reach -746..-700."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)) @ np.triu(np.ones((d, d)))
    e = MvEstimate.fit(data, h=h, clip=clip)
    pts = e.mean + rng.uniform(-4.0, 4.0, (m, d)) @ np.triu(np.ones((d, d))).T
    if far:  # 38 bandwidths from the first datum in sphered space
        step = np.zeros(d)
        step[0] = 38.0 * h
        pts[0] = e.mean + np.linalg.solve(e.inv_root, e.sphered[0] + step)
    return e, pts


@pytest.mark.parametrize("threads", [1, MAX_BLOCK_THREADS])
@pytest.mark.parametrize("n, d, h, m", [
    (2000, 2, 0.3, 101),    # 16 rows per block, over two blocks per thread and a partial one
    (2000, 2, 0.02, 101),   # most lanes far below -746, some in (-746, -700)
    (300, 3, 0.15, 40),
    (2**15 + 7, 1, 0.1, 9),  # one row per block
])
def test_in_place_mv_fill_is_the_literal_fill(threads, n, d, h, m, machine, monkeypatch):
    machine(threads)
    # 2^15 elements per block on each thread: the geometry the cases describe
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 2**15 * threads)
    for clip, far in ((2.5, False), (None, True)):
        e, pts = _mv_case(7, n, d, h, m, clip, far)
        assert np.array_equal(mv_estimate(e, pts), literal_mv(e, pts))
    if threads > 1 and h == 0.02:
        assert kernels._pool._max_workers == threads


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 300), d=st.integers(1, 3),
       m=st.integers(1, 30), log_h=st.floats(-2.0, 0.5), clip=st.sampled_from([None, 1.0, 2.5]),
       far=st.booleans())
def test_mv_fill_is_the_literal_fill_on_drawn_data(seed, n, d, m, log_h, clip, far):
    e, pts = _mv_case(seed, n, d, 10.0**log_h, m, clip, far)
    assert np.array_equal(mv_estimate(e, pts), literal_mv(e, pts))


def test_mv_estimate_bits_do_not_depend_on_the_block_rows(monkeypatch):
    e, pts = _mv_case(5, 2000, 2, 0.3, 60, 2.5, False)
    in_blocks = mv_estimate(e, pts)  # several rows per block
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 1)  # one row per block
    assert np.array_equal(mv_estimate(e, pts), in_blocks)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_lone_point_equals_its_grid_twin(d):
    e, pts = _mv_case(17, 500, d, 0.3, 60, 2.5, False)
    grid = mv_estimate(e, pts)
    assert all(mv_estimate(e, pts[k]) == grid[k] for k in range(len(pts)))


def expanded_mv(e, pts):
    """mv_estimate as first written, over all points at once.

    Sphering and the cross term are BLAS products, |y - Y|^2 is expanded as
    |y|^2 + |Y|^2 - 2 y.Y and clamped at 0, and the constants are subtracted
    one by one.
    """
    d = e.data.shape[1]
    yp = (pts - e.mean) @ e.inv_root.T
    yd = (e.data - e.mean) @ e.inv_root.T
    q_pts, q_data = np.sum(yp * yp, axis=1), np.sum(yd * yd, axis=1)
    sq = np.maximum(q_pts[:, None] + q_data[None, :] - 2.0 * yp @ yd.T, 0.0)
    if e.clip is not None:
        q_pts, q_data = np.minimum(q_pts, e.clip**2), np.minimum(q_data, e.clip**2)
    log_kern = -0.5 * sq / e.h**2 - d * np.log(SQRT_2PI * e.h) - e.half_logdet
    log_ratio = -0.5 * q_pts[:, None] + 0.5 * q_data[None, :]
    return np.exp(log_kern + log_ratio).mean(axis=1)


def mp_mv(e, pts, dps=40):
    """mv_estimate at the rows of pts in dps-digit arithmetic, from the data,
    the mean, cov^(-1/2) and the log-determinant, all taken as exact."""
    with mpmath.workdps(dps):
        inv_root = mpmath.matrix(e.inv_root.tolist())
        mean = mpmath.matrix(e.mean.tolist())

        def sphered(x):
            return inv_root * (mpmath.matrix(x.tolist()) - mean)

        def q(y):
            r = sum(v * v for v in y)
            return r if e.clip is None else min(r, mpmath.mpf(e.clip) ** 2)

        d = e.data.shape[1]
        h = mpmath.mpf(e.h)
        log_const = d * mpmath.log(mpmath.sqrt(2 * mpmath.pi) * h) + mpmath.mpf(e.half_logdet)
        data = [(y, q(y)) for y in map(sphered, e.data)]
        out = []
        for x in pts:
            y = sphered(x)
            qx = q(y)
            total = mpmath.fsum(mpmath.exp(-sum((a - b) ** 2 for a, b in zip(y, yi)) / (2 * h * h)
                                           - log_const - qx / 2 + qi / 2) for yi, qi in data)
            out.append(total / len(data))
        return np.array([float(v) for v in out])


@pytest.mark.parametrize("seed, n, h, clip", [(21, 200, 0.4, 2.5), (22, 300, 0.15, None)])
def test_mv_estimate_keeps_its_digits(seed, n, h, clip):
    # the direct differences and the folded constants against 40-digit sums,
    # and the old expanded form, at points in the bulk of the data (far out,
    # a value is a few terms of exponent -|y - Y|^2/2h^2, whose own rounding
    # is about 1e-16 |y - Y|^2/2h^2 relative)
    e, _ = _mv_case(seed, n, 2, h, 0, clip, False)
    pts = 0.5 * (e.data[:8] + e.mean)
    got = mv_estimate(e, pts)
    assert np.all(got > 1e-3)
    assert np.all(np.abs(got - mp_mv(e, pts)) <= 5e-14 * got)
    assert np.all(np.abs(got - expanded_mv(e, pts)) <= 1e-12 * got)


# ------------------------------------------------------------ the tensor path

def _bench_data(seed, n):
    """Draws shaped as the benchmark's 2-d task: two correlated normal components."""
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 2)) @ np.array([[1.0, 0.0], [0.6, 0.8]])
    return x + np.where(comp[:, None] == 0, -1.0, 1.0) * np.array([1.0, 0.5])


def _literal_rows(e, pts, rows=100):
    """literal_mv a few rows at a time, with the same bits and a small working set."""
    return np.concatenate([literal_mv(e, pts[k:k + rows]) for k in range(0, len(pts), rows)])


def _within_tensor_bound(got, want):
    """The tensor path's contract: 1e-12 relative, and 1e-300 absolute, below
    which a value's terms are subnormal."""
    return bool(np.all(np.abs(got - want) <= 1e-12 * want + 1e-300))


@pytest.fixture
def tensor_only(monkeypatch):
    """Refuse the direct sums: what runs after this took the tensor path at every point."""
    def refuse(*args):
        raise AssertionError("a point took the direct path")

    monkeypatch.setattr(mv, "_direct_sums", refuse)


BENCH_AXIS = np.linspace(-3.0, 3.0, 41)


@pytest.mark.parametrize("meshgrid", [False, True], ids=["repeat_tile", "meshgrid"])
@pytest.mark.parametrize("clip", [2.5, None])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_grid_is_within_its_bound_of_the_literal_sum(seed, clip, meshgrid, tensor_only):
    data = _bench_data(seed, 2000)
    e = MvEstimate.fit(data, h=mv_bandwidth(data).h, clip=clip)
    pts = _grid(BENCH_AXIS, BENCH_AXIS[::-1] + 0.5, meshgrid)
    want = _literal_rows(e, pts)
    got = mv_estimate(e, pts)
    assert _within_tensor_bound(got, want)
    assert np.min(want) < 1e-20  # the tails are in the check


def test_the_benchmark_grid_takes_no_block_pool(monkeypatch):
    # 10^4 draws and a 41 x 41 grid, as in the benchmark: the tensor path runs
    # in the calling thread, and agrees with the direct path
    data = _bench_data(3, 10_000)
    e = MvEstimate.fit(data, h=mv_bandwidth(data).h)
    pts = _grid(BENCH_AXIS, BENCH_AXIS)

    def refuse(*args):
        raise AssertionError("the block pool was used")

    monkeypatch.setattr(kernels, "for_blocks", refuse)
    monkeypatch.setattr(mv, "for_blocks", refuse)
    got = mv_estimate(e, pts)
    monkeypatch.undo()
    order = np.random.default_rng(0).permutation(len(pts))
    want = np.empty(len(pts))
    want[order] = mv_estimate(e, _shuffled(pts))
    assert _within_tensor_bound(got, want)


# a fresh interpreter pinned to one CPU before it imports semistart, which
# writes the estimate's bytes on the tensor grid saved with the data
_PINNED_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import numpy as np
from semistart.multivariate import MvEstimate, mv_estimate
case = np.load(sys.argv[2])
e = MvEstimate.fit(case["data"], h=float(case["h"]))
with open(sys.argv[3], "wb") as fh:
    fh.write(mv_estimate(e, case["pts"]).tobytes())
"""

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1


@pytest.mark.skipif(_CPUS < 2, reason="needs sched_setaffinity and two or more usable CPUs")
def test_the_tensor_grid_has_the_same_bits_on_one_cpu(tmp_path, tensor_only):
    # the tensor path's blocks merge through their shifts, so its bits follow
    # the block size, which must not follow the CPU count
    data = _bench_data(3, 10_000)
    h = mv_bandwidth(data).h
    pts = _grid(BENCH_AXIS, BENCH_AXIS)
    np.savez(tmp_path / "case.npz", data=data, h=h, pts=pts)
    src = str(Path(mv.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", _PINNED_CHILD, src, str(tmp_path / "case.npz"),
                    str(tmp_path / "out.bin")], check=True, timeout=300)
    want = mv_estimate(MvEstimate.fit(data, h=h), pts).tobytes()
    assert (tmp_path / "out.bin").read_bytes() == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300), rho=st.floats(-0.95, 0.95),
       log_h=st.floats(-1.5, 0.3), m1=st.integers(2, 12), m2=st.integers(2, 12),
       spread=st.floats(0.5, 6.0), clip=st.sampled_from([None, 1.0, 2.5]),
       meshgrid=st.booleans())
def test_tensor_grid_is_within_its_bound_on_drawn_data(seed, n, rho, log_h, m1, m2, spread,
                                                       clip, meshgrid):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0, 2)
    data = rng.standard_normal((n, 2)) @ np.linalg.cholesky([[1.0, rho], [rho, 1.0]]).T * scale
    e = MvEstimate.fit(data, h=10.0**log_h, clip=clip)
    g1 = e.mean[0] + scale[0] * np.linspace(-spread, spread * rng.uniform(0.2, 1.0), m1)
    g2 = e.mean[1] + scale[1] * np.linspace(-spread * rng.uniform(0.2, 1.0), spread, m2)
    pts = _grid(g1, g2, meshgrid)
    assert _within_tensor_bound(mv_estimate(e, pts), literal_mv(e, pts))


def test_tensor_grid_keeps_its_digits_in_the_tails(tensor_only):
    # against 40-digit sums at a grid whose corners lie 3-4 standard deviations out
    e, _ = _mv_case(23, 200, 2, 0.4, 0, 2.5, False)
    sd = np.sqrt(np.diag(e.cov))
    pts = _grid(e.mean[0] + sd[0] * np.array([-4.0, -1.0, 3.5]),
                e.mean[1] + sd[1] * np.array([-3.0, 0.5, 4.0]))
    got = mv_estimate(e, pts)
    exact = mp_mv(e, pts)
    assert np.min(exact) < 1e-6
    assert np.all(np.abs(got - exact) <= 1e-12 * exact)


@pytest.mark.parametrize("rho, h", [(0.95, 0.05), (0.99, 0.02), (0.999, 0.1), (0.0, 0.01)])
def test_the_guard_sends_ill_conditioned_grids_to_the_direct_path(rho, h):
    # the factored pieces grow like (range / h)^2: here their rounding would
    # cost up to the whole value, and the guard refuses before any exp, so the
    # values are the direct path's, bit for bit
    rng = np.random.default_rng(24)
    data = rng.standard_normal((5000, 2)) @ np.linalg.cholesky([[1.0, rho], [rho, 1.0]]).T
    e = MvEstimate.fit(data, h=h)
    pts = _grid(BENCH_AXIS, BENCH_AXIS)
    assert np.array_equal(mv_estimate(e, pts), _literal_rows(e, pts))


def test_points_with_underflowing_block_sums_take_the_direct_path(monkeypatch):
    # with the floor on a block's shifted sum raised to 1e-20, several hundred
    # tail points of the grid fall below it: they have the direct path's bits
    data = _bench_data(1, 2000)
    e = MvEstimate.fit(data, h=0.3)
    pts = _grid(BENCH_AXIS, BENCH_AXIS)
    want = _literal_rows(e, pts)
    monkeypatch.setattr(mv, "_TENSOR_SUM_MIN", 1e-20)
    got = mv_estimate(e, pts)
    same = got == want
    assert 100 < np.count_nonzero(same) < len(pts) - 100
    assert _within_tensor_bound(got, want)


@pytest.mark.parametrize("n, side", [
    (2**15 + 7, 3),   # 10922 data per block: three full blocks and a short one
    (2000, 23),       # 1424 data per block: one full block and a short one
])
def test_blocked_tensor_grid_matches_full_sum(n, side, monkeypatch, tensor_only):
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 2**15)
    data = rng_data(11, n, 2, mix=True)
    e = MvEstimate.fit(data, h=0.3)
    pts = e.mean + _grid(np.linspace(-4.0, 4.0, side), np.linspace(-4.0, 4.0, side), True)
    assert _within_tensor_bound(mv_estimate(e, pts), _full_mv_estimate(e, pts))


@pytest.mark.parametrize("cov, point", [
    (np.eye(2), (-1e308, 0.0)), (np.eye(2), (1e200, 1e200)), (np.eye(2), (0.0, -1e155)),
    # cov^(-1/2) has entries of about 11 and -2.9: both products of a coordinate overflow
    # with opposite signs, whose sum is inf - inf
    ([[0.0125, 0.0125], [0.0125, 0.0325]], (1.7e308, 1.7e308)),
], ids=["x_-1e308", "both_1e200", "y_-1e155", "inf_minus_inf"])
def test_a_far_point_weighs_nothing_and_warns_nothing(cov, point):
    rng = np.random.default_rng(25)
    data = rng.standard_normal((500, 2)) @ np.linalg.cholesky(cov).T
    e = MvEstimate.fit(data, h=0.3)
    g = np.linspace(-1.0, 1.0, 3)
    # a tensor grid with the far coordinates as one more value of their axes
    pts = _grid(*(np.append(g, v) if v else g for v in point))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mv_estimate(e, np.array(point)) == 0.0
        got = mv_estimate(e, pts)
    near = np.all(np.abs(pts) <= 1.0, axis=1)
    assert np.all(got[~near] == 0.0)
    assert np.array_equal(got[near], literal_mv(e, pts[near]))
