import tracemalloc

import numpy as np
import pytest

from semistart.bandwidth import rule_delta
from semistart.densities import NormalMixture, mixture_sample
from semistart.estimator import DensityEstimate, estimate_kernel, estimate_semiparametric
from semistart.kernels import BLOCK_ELEMENTS, MAX_BLOCK_THREADS, kernel_props
from semistart.multivariate import (MvEstimate, mv_bandwidth, mv_estimate,
                                    mv_kernel_estimate, sphere)
from semistart.starts import FittedStart

G = kernel_props("gaussian")


def rng_data(seed, n, d, mix=False):
    rng = np.random.Generator(np.random.Philox(seed))
    if mix:
        comp = rng.integers(0, 2, n)
        centers = np.array([[-2.0, 0.0], [2.0, 1.0]])
        return centers[comp] + rng.standard_normal((n, d))
    return rng.standard_normal((n, d))


def test_mv_kernel_reduces_to_univariate():
    x = mixture_sample(NormalMixture(weights=[1.0], means=[0.0], sds=[1.0]), 40, seed=1)
    grid = np.linspace(-2, 2, 9)
    uni = estimate_kernel(x, G, 0.4, grid)
    multi = mv_kernel_estimate(x[:, None], [0.4], grid[:, None])
    np.testing.assert_allclose(multi, uni, atol=1e-14)


def test_mv_kernel_single_datum():
    val = mv_kernel_estimate(np.zeros((1, 2)), [1.0, 1.0], np.zeros(2))
    assert val == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    with pytest.raises(ValueError):
        mv_kernel_estimate(np.zeros((1, 2)), [1.0, 0.0], np.zeros(2))


def test_mv_kernel_total_mass_2d():
    data = rng_data(2, 5, 2)
    grid = np.linspace(-8, 8, 321)
    xx, yy = np.meshgrid(grid, grid)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = mv_kernel_estimate(data, [0.8, 1.1], pts).reshape(xx.shape)
    mass = np.trapezoid(np.trapezoid(vals, grid, axis=1), grid)
    assert mass == pytest.approx(1.0, abs=1e-6)


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
    (BLOCK_ELEMENTS + 7, 3),  # one row per block
    (2000, 23),               # 16 rows per block, 529 points: 1 left over
    # 16 rows per block, over three blocks per block thread
    pytest.param(2000, int(np.sqrt(48 * MAX_BLOCK_THREADS)) + 1, id="more_blocks_than_workers"),
])
def test_blocked_mv_estimate_matches_full_sum(n, side):
    data = rng_data(11, n, 2, mix=True)
    e = MvEstimate.fit(data, h=0.3)
    g = np.linspace(-4.0, 4.0, side)
    xx, yy = np.meshgrid(g, g)
    pts = e.mean + np.column_stack([xx.ravel(), yy.ravel()])
    want = _full_mv_estimate(e, pts)
    got = mv_estimate(e, pts)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    assert mv_estimate(e, pts[4]) == pytest.approx(want[4], rel=1e-14)
    kde = mv_kernel_estimate(data, [0.5, 0.7], pts)
    hs = np.array([0.5, 0.7])
    sq = np.sum(((pts[:, None, :] - data[None, :, :]) / hs) ** 2, axis=-1)
    want_kde = np.mean(np.exp(-0.5 * sq), axis=1) / (2.0 * np.pi * hs.prod())
    assert np.max(np.abs(kde - want_kde)) <= 1e-14 * np.max(want_kde)


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
    import semistart.multivariate as mv

    e = MvEstimate.fit(rng_data(14, 300, 2), h=0.4, clip=1.5)
    pts = rng_data(15, 20, 2)
    want = mv_estimate(e, pts)

    def refuse(*args):
        raise AssertionError("the covariance was factorised again")

    monkeypatch.setattr(mv, "_cov_factor", refuse)
    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert np.array_equal(mv_estimate(e, pts), want)


def test_mv_grid_evaluation_memory_is_bounded():
    # the working set is a fixed block, not the (1681 x 1e4) matrices (about 130 MB each)
    data = rng_data(12, 10_000, 2)
    e = MvEstimate.fit(data, h=0.4)
    g = np.linspace(-3.0, 3.0, 41)
    xx, yy = np.meshgrid(g, g)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    tracemalloc.start()
    try:
        mv_estimate(e, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
