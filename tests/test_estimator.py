import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from semistart.densities import marron_wand, mixture_sample
from semistart.estimator import (DensityEstimate, correction_curve,
                                 estimate_kernel, estimate_semiparametric,
                                 integral_of_estimate)
from semistart.kernels import BLOCK_ELEMENTS, MAX_BLOCK_THREADS, eval_scaled, kernel_props
from semistart.starts import FittedStart, eval_start, fit_start

from conftest import phi, phi_scaled

G = kernel_props("gaussian")


def test_kernel_estimate_values():
    assert estimate_kernel([0.0], G, 1.0, 0.0) == pytest.approx(0.3989423, abs=5e-8)
    # two-term hand sum: both points sit one bandwidth away
    assert estimate_kernel([-1.0, 1.0], G, 1.0, 0.0) == pytest.approx(float(phi(1.0)), abs=1e-14)
    with pytest.raises(ValueError):
        estimate_kernel([0.0], G, 0.0, 0.0)


def test_kernel_estimate_total_mass():
    x = mixture_sample(marron_wand(6), 200, seed=1)
    val, _ = quad(lambda t: estimate_kernel(x, G, 0.4, t), -15, 15, limit=400)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_constant_start_reduces_to_kernel_estimator():
    x = mixture_sample(marron_wand(2), 150, seed=2)
    est = DensityEstimate(x, G, 0.35, FittedStart("constant"))
    grid = np.linspace(-3, 3, 41)
    np.testing.assert_array_equal(estimate_semiparametric(est, grid),
                                  estimate_kernel(x, G, 0.35, grid))


def test_single_datum_ratio_is_one():
    est = DensityEstimate([0.0], G, 0.5, FittedStart("normal", {"mu": 0.0, "sd": 1.0}))
    assert estimate_semiparametric(est, 0.0) == pytest.approx(0.7978846, abs=5e-8)


def test_against_literal_double_loop():
    # brute-force re-implementation of the corrected estimator, clip rule included
    x = mixture_sample(marron_wand(1), 400, seed=3)
    st = fit_start("normal", x)
    mu, sd, c = st.params["mu"], st.params["sd"], st.clip

    def fbar(t):
        z = min(abs(t - mu) / sd, c)
        return float(phi(z)) / sd

    h = 0.5
    est = DensityEstimate(x, G, h, st)
    grid = np.linspace(-4, 4, 17)
    got = estimate_semiparametric(est, grid)
    for k, t in enumerate(grid):
        acc = 0.0
        for xi in x:
            acc += float(phi_scaled(h, xi - t)) / fbar(xi)
        want = fbar(t) * acc / len(x)
        assert got[k] == pytest.approx(want, rel=1e-12)


def test_nonnegativity_random_configurations():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        data = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 2.0), n)
        h = float(rng.uniform(0.05, 2.0))
        family = rng.choice(["constant", "normal"])
        st = FittedStart("constant") if family == "constant" else fit_start("normal", data)
        est = DensityEstimate(data, G, h, st)
        xs = rng.uniform(-8, 8, 100)
        assert np.all(estimate_semiparametric(est, xs) >= 0.0)


def test_correction_curve_basics():
    # a constant start leaves nothing to correct: rhat is the kernel estimate
    x = mixture_sample(marron_wand(1), 50, seed=4)
    est = DensityEstimate(x, G, 0.4, FittedStart("constant"))
    cur = correction_curve(est, np.linspace(-2, 2, 9))
    np.testing.assert_allclose(cur.r_hat, estimate_kernel(x, G, 0.4, cur.grid), rtol=1e-14)

    st = FittedStart("normal", {"mu": 0.5, "sd": 1.1})
    single = DensityEstimate([0.5], G, 0.3, st)
    cur1 = correction_curve(single, np.array([0.5]))
    want = float(phi_scaled(0.3, 0.0)) / (float(phi(0.0)) / 1.1)
    assert cur1.r_hat[0] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        correction_curve(single, np.array([]))


def test_correction_curve_z_is_standard_normal_under_model():
    # truth inside the start family: the standardized curve should sit inside
    # +/-1.96 at about the nominal rate (loose floor, grid values correlate)
    fracs = []
    for seed in range(20):
        x = mixture_sample(marron_wand(1), 2000, seed=1000 + seed)
        est = DensityEstimate(x, G, 0.25, fit_start("normal", x))
        cur = correction_curve(est, np.linspace(-2, 2, 41))
        fracs.append(np.mean(np.abs(cur.z) <= 1.96))
    assert np.mean(fracs) >= 0.80


def test_integral_constant_start_exact():
    x = mixture_sample(marron_wand(6), 100, seed=5)
    est = DensityEstimate(x, G, 0.5, FittedStart("constant"))
    assert integral_of_estimate(est) == (1.0, None)


def test_integral_closed_form_vs_quadrature():
    x = mixture_sample(marron_wand(1), 1000, seed=6)
    st = FittedStart("normal", {"mu": float(x.mean()), "sd": float(x.std())}, clip=None)
    est = DensityEstimate(x, G, 0.3, st)
    closed, approx = integral_of_estimate(est)
    val, _ = quad(lambda t: estimate_semiparametric(est, t),
                  x.min() - 12 * 0.3, x.max() + 12 * 0.3, limit=400, epsabs=1e-12)
    assert closed == pytest.approx(val, abs=1e-8)
    assert approx is not None


def test_integral_kurtosis_approximation_decay():
    # closed form minus the kurtosis approximation shrinks like h^6
    x = mixture_sample(marron_wand(1), 500, seed=7)
    st = FittedStart("normal", {"mu": float(x.mean()), "sd": float(x.std())}, clip=None)

    def err(h):
        closed, approx = integral_of_estimate(DensityEstimate(x, G, h, st))
        return abs(closed - approx)

    assert err(0.4) / err(0.2) >= 2.0**5


def test_normalized_estimate_integrates_to_one():
    x = mixture_sample(marron_wand(2), 200, seed=8)
    st = fit_start("normal", x)
    est = DensityEstimate(x, G, 0.4, st, normalize=True)
    val, _ = quad(lambda t: estimate_semiparametric(est, t), -20, 20, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_close_to_kernel_estimator_for_small_h():
    # fixed standard-normal start: the gap (fhat - ftilde)/h^2 approaches
    # x f'(x) + (x^2 + 1) f(x) / 2 monotonically, up to monte-carlo noise
    n = 100_000
    x = mixture_sample(marron_wand(1), n, seed=42)
    st = FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None)
    c2 = 1.0 / (4.0 * np.sqrt(np.pi))   # int z^2 phi(z)^2 dz
    c4 = 3.0 / (8.0 * np.sqrt(np.pi))   # int z^4 phi(z)^2 dz
    for x0 in (0.0, 1.0, -1.0):
        f0 = float(phi(x0))
        limit = 0.5 * (1.0 - x0 * x0) * f0  # x f' + (x^2+1) f / 2 for phi
        # noise scale of the gap ratio from its two leading sample averages
        def slack(h):
            lead = abs(x0) * np.sqrt(f0 * c2) / (h**1.5 * np.sqrt(n))
            quad_term = 0.5 * abs(x0 * x0 + 1.0) * np.sqrt(f0 * c4) / (np.sqrt(h * n))
            return 3.0 * (lead + quad_term)

        errs = {}
        for h in (0.2, 0.1, 0.05):
            est = DensityEstimate(x, G, h, st)
            gap = (estimate_semiparametric(est, x0) - estimate_kernel(x, G, h, x0)) / h**2
            errs[h] = abs(gap - limit)
        assert errs[0.1] <= errs[0.2] + slack(0.1)
        assert errs[0.05] <= errs[0.1] + slack(0.05)
    # and at the origin the h = 0.2 gap is already within 10% of the limit
    est = DensityEstimate(x, G, 0.2, st)
    gap0 = (estimate_semiparametric(est, 0.0) - estimate_kernel(x, G, 0.2, 0.0)) / 0.04
    assert abs(gap0 - 0.5 * float(phi(0.0))) <= 0.1 * 0.5 * float(phi(0.0))


def test_validation():
    with pytest.raises(ValueError):
        DensityEstimate([], G, 0.5, FittedStart("constant"))
    with pytest.raises(ValueError):
        DensityEstimate([1.0], G, -0.5, FittedStart("constant"))
    # unclipped positive-family start vanishing on a datum is a domain error,
    # raised when the estimate is built
    st = FittedStart("lognormal", {"mu": 0.0, "sd": 1.0}, clip=None)
    with pytest.raises(ValueError, match="vanishes"):
        DensityEstimate([-1.0, 2.0], G, 0.5, st)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_naming_the_index(bad):
    data = np.linspace(-1.0, 1.0, 9)
    data[4] = bad
    msg = r"index 4 is not finite"
    with pytest.raises(ValueError, match=msg):
        DensityEstimate(data, G, 0.5, FittedStart("normal", {"mu": 0.0, "sd": 1.0}))
    with pytest.raises(ValueError, match=msg):
        estimate_kernel(data, G, 0.5, [0.0, 1.0])


def _full_estimate(st, data, h, x):
    """Unblocked (grid x data) expression of the corrected estimate."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_1d(x)
    vals = eval_scaled(G, h, data - pts[..., None])
    r = np.sum(vals / np.atleast_1d(eval_start(st, data)), axis=-1) / data.size
    return np.atleast_1d(eval_start(st, pts)) * r, r


@pytest.mark.parametrize("case", ["one_row_per_block", "partial_last_block",
                                  "scalar_x", "shaped_x", "clipped_gamma",
                                  "more_blocks_than_workers"])
def test_blocked_evaluation_is_bit_identical(case):
    rng = np.random.default_rng(31)
    n, x = 1000, np.linspace(-4.0, 4.0, 101)
    assert 101 % (BLOCK_ELEMENTS // n) != 0  # the last block is a partial one
    if case == "one_row_per_block":
        n, x = BLOCK_ELEMENTS + 7, np.linspace(-4.0, 4.0, 9)
    elif case == "more_blocks_than_workers":
        # three 32-row blocks per block thread and a partial one
        x = np.linspace(-4.0, 4.0, 96 * MAX_BLOCK_THREADS + 5)
    elif case == "scalar_x":
        x = np.float64(0.3)
    elif case == "shaped_x":
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    if case == "clipped_gamma":
        data = rng.gamma(2.0, 1.5, n)
        st = fit_start("gamma", data)
        x = np.linspace(0.01, 25.0, 101)
        ends = np.array([0.01, 25.0])  # both ends sit on the clip floor
        assert np.all(eval_start(st, ends) > eval_start(st.unclipped(), ends))
    else:
        data = rng.normal(0.0, 1.3, n)
        st = fit_start("normal", data)
    h = 0.4
    want, r_want = _full_estimate(st, data, h, x)
    est = DensityEstimate(data, G, h, st)
    got = estimate_semiparametric(est, x)
    assert np.shape(got) == np.shape(x)
    assert np.array_equal(np.ravel(got), want.ravel())
    kde = estimate_kernel(data, G, h, x)
    assert np.shape(kde) == np.shape(x)
    assert np.array_equal(kde, np.mean(eval_scaled(G, h, data - np.asarray(x)[..., None]),
                                       axis=-1))
    assert np.array_equal(correction_curve(est, np.ravel(x)).r_hat, r_want.ravel())


@pytest.mark.parametrize("shape", ["gaussian", "epanechnikov", "uniform"])
@pytest.mark.parametrize("x", [0.3, np.array(0.3), np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
                         ids=["float", "zero_d", "shaped"])
def test_kernel_estimate_is_the_literal_mean(shape, x):
    # n above the block size: one grid row per block
    K = kernel_props(shape)
    data = np.random.default_rng(33).normal(0.0, 1.0, BLOCK_ELEMENTS + 5)
    got = estimate_kernel(data, K, 0.4, x)
    want = np.mean(eval_scaled(K, 0.4, data - np.asarray(x)[..., None]), axis=-1)
    assert np.shape(got) == np.shape(x)
    assert np.array_equal(got, want)
    if np.ndim(x) == 0:
        assert type(got) is float


def test_grid_evaluation_memory_is_bounded():
    # the working set is a fixed block, not the (161 x 5e4) matrix (about 64 MB)
    x = mixture_sample(marron_wand(2), 50_000, seed=10)
    est = DensityEstimate(x, G, 0.1, fit_start("normal", x))
    grid = np.linspace(-3, 3, 161)
    tracemalloc.start()
    try:
        estimate_semiparametric(est, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("family", ["normal", "normal_unclipped", "lognormal", "gamma",
                                    "normal_mixture"])
def test_normalized_estimate_is_its_raw_twin_over_the_raw_mass(family):
    from semistart.densities import NormalMixture
    data = np.random.default_rng(53).gamma(3.0, 1.0, 200)
    mix = NormalMixture(weights=[0.4, 0.6], means=[1.5, 4.0], sds=[0.8, 1.5])
    st = (FittedStart("normal_mixture", {"mixture": mix}) if family == "normal_mixture"
          else fit_start("normal", data).unclipped() if family == "normal_unclipped"
          else fit_start(family, data))
    raw = DensityEstimate(data, G, 0.5, st)
    norm = DensityEstimate(data, G, 0.5, st, normalize=True)
    mass = integral_of_estimate(raw)
    assert integral_of_estimate(norm) == mass
    assert raw.divisor == 1.0 and norm.divisor == mass[0] and type(norm.divisor) is float
    assert np.array_equal(norm.den, eval_start(st, data))
    ts = np.linspace(-1.0, 15.0, 161)  # x <= 0 and both clip tails
    assert np.array_equal(estimate_semiparametric(norm, ts),
                          estimate_semiparametric(raw, ts) / mass[0])
    assert all(estimate_semiparametric(norm, float(t))
               == estimate_semiparametric(raw, float(t)) / mass[0] for t in ts)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("family", ["constant", "normal", "lognormal", "gamma",
                                    "normal_mixture"])
def test_one_point_estimate_is_bit_identical(family, normalize):
    from semistart.densities import NormalMixture
    rng = np.random.default_rng(52)
    data = rng.gamma(3.0, 1.0, 300)
    mix = NormalMixture(weights=[0.4, 0.6], means=[1.5, 4.0], sds=[0.8, 1.5])
    st = (FittedStart("normal_mixture", {"mixture": mix}) if family == "normal_mixture"
          else FittedStart("constant") if family == "constant"
          else fit_start(family, data))
    ts = np.linspace(-3.0, 20.0, 1501)  # x <= 0 and both clip tails
    for s in (st, st.unclipped()):
        est = DensityEstimate(data, G, 0.5, s, normalize=normalize)
        want = estimate_semiparametric(est, ts)
        got = [estimate_semiparametric(est, float(t)) for t in ts]
        assert all(type(g) is float for g in got)
        assert np.array_equal(got, want)
