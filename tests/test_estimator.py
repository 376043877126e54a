import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from semistart.densities import marron_wand, mixture_sample
from semistart.estimator import (DensityEstimate, _correction_at, _sums_at, correction_curve,
                                 estimate_kernel, estimate_semiparametric,
                                 integral_of_estimate)
from semistart.kernels import BLOCK_ELEMENTS, MAX_BLOCK_THREADS, eval_scaled, kernel_props
from semistart.regression import MeanStart, RegressionFit, gnw_estimate
from semistart.starts import FittedStart, eval_start, fit_start

from conftest import (SQRT_2PI, check_correction, literal_correction, literal_window_weight,
                      mp_log_correction, phi, phi_scaled, split_quad_mass)

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


def test_correction_curve_rejects_a_grid_where_the_start_vanishes():
    # the unclipped standard normal is subnormal beyond |x| = 37.5 and 0 beyond
    # 38.6, where z's variance R(K)/(n h fbar(x)) is infinite; the first such
    # point is named
    est = DensityEstimate(np.linspace(-1.0, 1.0, 20), G, 0.3,
                          FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None))
    for x, fbar in ((-379.0, "0.0"), (38.0, r"1\.\d+e-314")):
        assert eval_start(est.start, x) < 1e-300
        with pytest.raises(ValueError, match=rf"^start density is too small at x={x} "
                                             rf"\(fbar = {fbar}\) for z's variance"):
            correction_curve(est, np.array([0.0, 30.0, x, 400.0]))
    assert not np.any(np.isnan(correction_curve(est, np.array([0.0, 30.0, -37.0])).z))


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
    assert integral_of_estimate(est) == 1.0


def test_integral_closed_form_vs_quadrature():
    x = mixture_sample(marron_wand(1), 1000, seed=6)
    st = FittedStart("normal", {"mu": float(x.mean()), "sd": float(x.std())}, clip=None)
    est = DensityEstimate(x, G, 0.3, st)
    closed = integral_of_estimate(est)
    val, _ = quad(lambda t: estimate_semiparametric(est, t),
                  x.min() - 12 * 0.3, x.max() + 12 * 0.3, limit=400, epsabs=1e-12)
    assert closed == pytest.approx(val, abs=1e-8)


def test_integral_kurtosis_approximation_decay():
    # closed form minus the small-h approximation 1 + g4 h^4/(8 sd^4), g4 the
    # sample excess kurtosis, shrinks like h^6
    x = mixture_sample(marron_wand(1), 500, seed=7)
    mu, sd = float(x.mean()), float(x.std())
    st = FittedStart("normal", {"mu": mu, "sd": sd}, clip=None)
    g4 = float(np.mean(((x - mu) / sd) ** 4)) - 3.0

    def err(h):
        closed = integral_of_estimate(DensityEstimate(x, G, h, st))
        return abs(closed - (1.0 + g4 * (h / sd) ** 4 / 8.0))

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
    """Unblocked (grid x data) expression of the corrected estimate, summing every datum."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_1d(x)
    vals = literal_window_weight(h, data - pts[..., None]) / SQRT_2PI / h
    r = np.sum(vals / np.atleast_1d(eval_start(st, data)), axis=-1) / data.size
    return np.atleast_1d(eval_start(st, pts)) * r, r


def _near(got, want):
    """got is within 1e-14 of want: the terms are positive, so the value is their scale."""
    return bool(np.all(np.abs(np.ravel(got) - np.ravel(want)) <= 1e-14 * np.ravel(want)))


@pytest.mark.parametrize("case", ["one_row_per_block", "partial_last_block",
                                  "scalar_x", "shaped_x", "clipped_gamma",
                                  "more_blocks_than_workers"])
def test_blocked_evaluation_is_bit_identical(case):
    # each point sums its own window of the sorted data, so it has the same
    # bits alone as in the blocked grid, and stays within 1e-14 of the full row
    rng = np.random.default_rng(31)
    n, x = 1000, np.linspace(-4.0, 4.0, 101)
    assert 101 % (BLOCK_ELEMENTS // n) != 0  # the last block is a partial one
    if case == "one_row_per_block":
        n, x = BLOCK_ELEMENTS + 7, np.linspace(-4.0, 4.0, 9)
    elif case == "more_blocks_than_workers":
        # several blocks and a partial one at any block size (the full
        # 1000-datum rows take 32 per block of 2^15 elements)
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
    assert _near(got, want)
    assert all(estimate_semiparametric(est, float(p)) == g
               for p, g in zip(np.ravel(x), np.ravel(got)))
    kde = estimate_kernel(data, G, h, x)
    assert np.shape(kde) == np.shape(x)
    assert _near(kde, _full_estimate(FittedStart("constant"), data, h, x)[1])
    # a fresh estimate: est keeps the sums of x, and would not compute them
    fresh = DensityEstimate(data, G, h, st)
    r_hat = correction_curve(fresh, np.ravel(x)).r_hat
    assert _near(r_hat, r_want)
    assert np.array_equal(np.ravel(got), np.atleast_1d(eval_start(st, np.ravel(x))) * r_hat)


@pytest.mark.parametrize("shape", ["gaussian", "epanechnikov", "uniform"])
@pytest.mark.parametrize("x", [0.3, np.array(0.3), np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
                         ids=["float", "zero_d", "shaped"])
def test_kernel_estimate_is_the_literal_mean(shape, x):
    # n above the block size: one grid row per block; within 1e-14 of the
    # mean over every datum
    K = kernel_props(shape)
    data = np.random.default_rng(33).normal(0.0, 1.0, BLOCK_ELEMENTS + 5)
    got = estimate_kernel(data, K, 0.4, x)
    want = np.mean(eval_scaled(K, 0.4, data - np.asarray(x)[..., None]), axis=-1)
    assert np.shape(got) == np.shape(x)
    assert _near(got, want)
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
    assert raw.divisor == 1.0 and norm.divisor == mass and type(norm.divisor) is float
    # both keep the data sorted, and the start density there
    for est in (raw, norm):
        assert np.array_equal(est.data, np.sort(data))
        assert np.array_equal(est.den, eval_start(st, np.sort(data)))
    ts = np.linspace(-1.0, 15.0, 161)  # x <= 0 and both clip tails
    assert np.array_equal(estimate_semiparametric(norm, ts),
                          estimate_semiparametric(raw, ts) / mass)
    assert all(estimate_semiparametric(norm, float(t))
               == estimate_semiparametric(raw, float(t)) / mass for t in ts)


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


def _band_share(h, data, x):
    """Share of the (point, datum) lanes whose exponent lies in (-746, -700)."""
    expo = -0.5 * ((data - np.ravel(x)[:, None]) / h) ** 2
    return float(np.mean((expo > -746.0) & (expo < -700.0)))


def _shaped(x, shape):
    return {"0-d": x[:1].reshape(()), "1-d": x, "2-d": x[:x.size // 2 * 2].reshape(2, -1)}[shape]


@settings(max_examples=100, deadline=None)
@given(band=st.sampled_from(["none", "few", "most", "outlier"]),
       start=st.sampled_from(["constant", "normal", "normal_unclipped"]),
       shape=st.sampled_from(["0-d", "1-d", "2-d"]),
       n=st.integers(2, 400), m=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 1.0))
# fbar(x) = 6.9e-314 is positive, but R(K)/(n h fbar(x)) overflows
@example(band="most", start="normal_unclipped", shape="0-d", n=2, m=2, seed=0, scale=0.75)
def test_in_place_correction_sum_is_the_literal_sum(band, start, shape, n, m, seed, scale):
    # rows with no lanes in the band, a few percent, most of them, or an
    # outlier whose 1/fbar weight of about e^90 lifts band lanes into the sum:
    # within 1e-14 of the full-row sum near the data, and of the 40-digit sum
    # where the full-row terms are tiny or subnormal (check_correction)
    rng = np.random.default_rng(seed)
    if band == "none":
        h = 0.5 + 1.5 * scale
        data, x = rng.normal(0.0, 1.0, n), rng.uniform(-3.0, 3.0, m)
    elif band == "few":
        h = 0.02 + 0.06 * scale
        data, x = rng.normal(0.0, 1.0, n), np.linspace(-4.0, 4.0, m)
    elif band == "most":  # every |x - X| / h lies in (37.45, 38.55)
        h = 10.0 ** (-3.0 + 4.0 * scale)
        data = h * rng.uniform(-0.5, 0.5, n)
        x = h * rng.choice([-1.0, 1.0], m) * rng.uniform(37.95, 38.05, m)
    else:
        h = 0.03 + 0.05 * scale
        data = np.append(rng.normal(0.0, 1.0, n), 13.4)
        x = rng.uniform(11.0, 16.0, m)
    if band in ("few", "outlier"):  # one lane in the band at least
        x[0] = data[-1] + 38.0 * h
    x = _shaped(x, shape)
    share = _band_share(h, data, x)
    assert share == 0.0 if band == "none" else share > (0.5 if band == "most" else 0.0)
    st0 = (FittedStart("constant") if start == "constant"
           else FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None) if band == "outlier"
           or start == "normal_unclipped" else fit_start("normal", data))
    est = DensityEstimate(data, G, h, st0)
    if band == "outlier" and start != "constant":
        assert 1.0 / est.den[-1] > np.exp(89.0)
    r, log_r = (arr.copy() for arr in _sums_at(est, np.ravel(x)))
    check_correction(est, x, r, log_r)
    with np.errstate(divide="ignore", over="ignore"):
        v = G.rough_K / (est.n * h * eval_start(st0, np.ravel(x)))
    if np.all(np.isfinite(v)):
        assert np.array_equal(correction_curve(est, np.ravel(x)).r_hat, r)
    else:  # z's variance overflows at a point, where z is undefined
        with pytest.raises(ValueError, match=r"^start density is too small at x="):
            correction_curve(est, np.ravel(x))
        assert np.array_equal(_correction_at(est, np.ravel(x)), r)
    # a fresh estimate: est keeps the sums of x, and would not compute them
    got = estimate_semiparametric(DensityEstimate(data, G, h, st0), x)
    assert np.shape(got) == np.shape(x)
    assert np.array_equal(np.ravel(got), np.atleast_1d(eval_start(st0, np.ravel(x))) * r)
    flat = DensityEstimate(data, G, h, FittedStart("constant"))
    kde = estimate_kernel(data, G, h, x)
    check_correction(flat, x, np.ravel(kde))


_STARTS = ["constant", "normal", "normal_unclipped", "lognormal", "gamma", "normal_mixture"]


@settings(max_examples=60, deadline=None)
@given(start=st.sampled_from(_STARTS), shape=st.sampled_from(["gaussian", "epanechnikov",
                                                              "uniform"]),
       log_h=st.floats(-3.0, 1.0), n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1),
       outlier=st.booleans(), far=st.floats(60.0, 1e4))
def test_windowed_sums_match_the_full_row_and_mpmath_oracles(start, shape, log_h, n, seed,
                                                              outlier, far):
    # every start family, every kernel and bandwidths from 1e-3 to 10, with
    # or without a datum 13.4 sds above the normal fit, whose unclipped 1/fbar
    # weight is about e^90 sd: at data, across the data, around the outlier where
    # its kernel lanes are tiny or subnormal, and `far` bandwidths beyond the
    # data.  Each value is held to its oracle (check_correction), and has the
    # same bits alone as in the grid.
    from semistart.densities import NormalMixture
    rng = np.random.default_rng(seed)
    h = 10.0**log_h
    data = rng.gamma(3.0, 1.0, n)
    normal = fit_start("normal", data)
    if outlier:
        data = np.append(data, normal.params["mu"] + 13.4 * normal.params["sd"])
    mix = NormalMixture(weights=[0.4, 0.6], means=[1.5, 4.0], sds=[0.8, 1.5])
    st0 = (FittedStart("constant") if start == "constant"
           else FittedStart("normal_mixture", {"mixture": mix}) if start == "normal_mixture"
           else normal if start == "normal" else normal.unclipped() if start == "normal_unclipped"
           else fit_start(start, data))
    est = DensityEstimate(data, kernel_props(shape), h, st0)
    if outlier and start == "normal_unclipped":  # 1/fbar is e^89.8 sqrt(2 pi) sd
        assert -np.log(est.den[-1] * normal.params["sd"]) > 89.0
    top = float(data.max())
    pts = np.concatenate([data[:5], np.linspace(data.min() - 3.0 * h, top + 3.0 * h, 40),
                          top + h * rng.uniform(35.0, 40.0, 6), [top + far * h]])
    r, log_r = (arr.copy() for arr in _sums_at(est, pts))
    check_correction(est, pts, r, log_r if shape == "gaussian" else None)
    if shape == "gaussian":
        assert np.all(np.isfinite(log_r))  # the far point keeps its nearest datum's window
    fresh = DensityEstimate(data, kernel_props(shape), h, st0)
    for k in rng.choice(pts.size, 5, replace=False):
        assert _sums_at(fresh, pts[k:k + 1])[0][0] == r[k]
    assert np.array_equal(estimate_semiparametric(fresh, pts), eval_start(st0, pts) * r)


@settings(max_examples=60, deadline=None)
@example(start="normal", shape="gaussian", log_h=-0.6, n=3000, decimals=1, seed=53, perm_seed=1)
# the normal start's --normalize mass depended on the order of the data here
@example(start="normal", shape="gaussian", log_h=-0.5, n=200, decimals=1, seed=0, perm_seed=1)
@example(start="gamma", shape="epanechnikov", log_h=-0.5, n=200, decimals=1, seed=1, perm_seed=1)
@example(start="lognormal", shape="uniform", log_h=-0.5, n=200, decimals=1, seed=0, perm_seed=1)
@given(start=st.sampled_from(["constant", "normal", "lognormal", "gamma"]),
       shape=st.sampled_from(["gaussian", "epanechnikov", "uniform"]),
       log_h=st.floats(-2.5, 0.5), n=st.integers(2, 3000), decimals=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_the_data_keeps_every_bit(start, shape, log_h, n, decimals, seed, perm_seed):
    # an estimate keeps the data sorted, and tied data sort to the same
    # values with the same start densities, so the order of the data is
    # immaterial: to each point's windowed sum, and to the normal start's
    # closed-form --normalize mass, a sum over the data.  The starts are
    # fitted once, on the original order
    rng = np.random.default_rng(seed)
    data = 0.5 + np.round(rng.gamma(3.0, 1.0, n), decimals)  # rounded: ties
    if np.unique(data).size < 2:
        return  # no start fits a single value
    moved = data[np.random.default_rng(perm_seed).permutation(n)]
    st0 = fit_start(start, data)
    kernel, h = kernel_props(shape), 10.0**log_h
    pts = np.concatenate([data[:5], np.linspace(data.min() - 3.0 * h, data.max() + 3.0 * h, 41)])
    want, got = (estimate_semiparametric(DensityEstimate(d, kernel, h, st0), pts)
                 for d in (data, moved))
    assert got.tobytes() == want.tobytes()
    assert estimate_kernel(moved, kernel, h, pts).tobytes() == \
        estimate_kernel(data, kernel, h, pts).tobytes()
    want, got = (correction_curve(DensityEstimate(d, kernel, h, st0), pts) for d in (data, moved))
    for name in ("r_hat", "log_r", "z"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    normal = fit_start("normal", data)
    want, got = (DensityEstimate(d, kernel, h, normal, normalize=True) for d in (data, moved))
    assert got.divisor.hex() == want.divisor.hex()
    assert estimate_semiparametric(got, pts).tobytes() == \
        estimate_semiparametric(want, pts).tobytes()


def test_an_estimate_sums_its_correction_once_per_grid(monkeypatch):
    from semistart import estimator
    sizes = []  # the points of each windowed pass
    inner = estimator.window_sums

    def counted(*args, **kwargs):
        sizes.append(args[3].size)
        return inner(*args, **kwargs)

    monkeypatch.setattr(estimator, "window_sums", counted)
    x = mixture_sample(marron_wand(2), 3000, seed=11)
    st = fit_start("normal", x)
    grid = np.linspace(-3.0, 3.0, 161)
    est = DensityEstimate(x, G, 0.2, st)
    f_hat = estimate_semiparametric(est, grid)
    assert sum(sizes) == 161
    cur = correction_curve(est, grid)
    assert sum(sizes) == 161  # the curve on the same grid sums nothing
    assert np.array_equal(f_hat, eval_start(st, grid) * cur.r_hat)
    assert np.array_equal(estimate_semiparametric(est, grid.reshape(7, 23)).ravel(), f_hat)
    assert sum(sizes) == 161  # the same points in another shape
    # a reordered grid, another grid and a new estimate each sum again, to the same bits
    assert np.array_equal(correction_curve(est, grid[::-1]).r_hat, cur.r_hat[::-1])
    assert sum(sizes) == 2 * 161
    assert np.array_equal(correction_curve(est, grid[:80]).r_hat, cur.r_hat[:80])
    assert sum(sizes) == 2 * 161 + 80
    assert np.array_equal(correction_curve(est, grid).r_hat, cur.r_hat)
    assert sum(sizes) == 3 * 161 + 80
    fresh = DensityEstimate(x, G, 0.2, st)
    assert np.array_equal(correction_curve(fresh, grid).r_hat, cur.r_hat)
    assert sum(sizes) == 4 * 161 + 80


def test_returned_arrays_are_the_callers_own():
    x = mixture_sample(marron_wand(1), 500, seed=12)
    st = fit_start("normal", x)
    grid = np.linspace(-2.0, 2.0, 41)
    fresh = DensityEstimate(x, G, 0.3, st)
    want_r = correction_curve(fresh, grid).r_hat
    want_f = estimate_semiparametric(DensityEstimate(x, G, 0.3, st), grid)
    est = DensityEstimate(x, G, 0.3, st)
    cur = correction_curve(est, grid)  # sums and keeps
    cur.r_hat[:] = -1.0
    f_hat = estimate_semiparametric(est, grid)  # from the kept sums
    assert np.array_equal(f_hat, want_f)
    f_hat[:] = -1.0
    again = correction_curve(est, grid)
    assert np.array_equal(again.r_hat, want_r)
    again.r_hat[:] = -1.0
    assert np.array_equal(estimate_semiparametric(est, grid), want_f)
    grid[:] = 0.0  # the caller's grid, written after the evaluations
    assert np.array_equal(correction_curve(est, grid).r_hat,
                          correction_curve(DensityEstimate(x, G, 0.3, st), np.zeros(41)).r_hat)


def test_an_estimate_keeps_its_own_read_only_data():
    x = mixture_sample(marron_wand(1), 400, seed=13)
    st = fit_start("normal", x)
    est = DensityEstimate(x, G, 0.3, st)
    grid = np.linspace(-2.0, 2.0, 21)
    want = estimate_semiparametric(est, grid)
    want_r = correction_curve(DensityEstimate(x.copy(), G, 0.3, st), grid[::-1]).r_hat
    x[:] = 5.0  # the caller's array, written after construction
    assert np.array_equal(estimate_semiparametric(est, grid), want)
    assert np.array_equal(correction_curve(est, grid[::-1]).r_hat, want_r)
    assert not est.data.flags.writeable and not est.den.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        est.data[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        est.den[0] = 1.0


@pytest.mark.parametrize("h", [1e300, 2.2250738585072014e-308])
def test_closed_form_mass_is_finite_at_extreme_bandwidths(h):
    # h*h overflows at 1e300 and underflows at the smallest normal float;
    # neither may reach the closed form, whose mass is finite and positive
    x = np.random.default_rng(14).standard_normal(200)
    st = FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mass = integral_of_estimate(DensityEstimate(x, G, h, st))
        assert 0.0 < mass < np.inf
        norm = DensityEstimate(x, G, h, st, normalize=True)
    assert norm.divisor == mass
    z = x * x / 2.0
    want = float(np.mean(np.exp(z))) / h if h > 1.0 else 1.0
    assert mass == pytest.approx(want, rel=1e-14)


def _normal_start_with_an_outlier(clip):
    """80 gamma(3) draws and a normal start at the moments of the first 79.

    The last datum sits 9 of the start's sds above its mean.
    """
    x = np.random.default_rng(52).gamma(3.0, 1.0, 80)
    mu, sd = float(x[:-1].mean()), float(x[:-1].std())
    x[-1] = mu + 9.0 * sd
    return x, FittedStart("normal", {"mu": mu, "sd": sd}, clip=clip)


@pytest.mark.parametrize("h", [0.05, 0.6, 3.0])
@pytest.mark.parametrize("clip", [2.5, 1.0, None])
@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov", "uniform"])
def test_normal_start_mass_matches_quad_split_at_every_kink(kernel, clip, h):
    x, st = _normal_start_with_an_outlier(clip)
    e = DensityEstimate(x, kernel_props(kernel), h, st)
    assert integral_of_estimate(e) == pytest.approx(split_quad_mass(e), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("clip", [2.5, None])
@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov", "uniform"])
def test_normal_start_mass_at_extreme_bandwidths(kernel, clip):
    # as h -> 0, M_i -> fbar(X_i) and the mass -> 1; as h -> inf, M_i -> K(0)/h
    # unclipped, and clipped it tends to half of each floor, the kernel's mass
    # beyond each edge times the floor
    x, st = _normal_start_with_an_outlier(clip)
    k = kernel_props(kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = DensityEstimate(x, k, 2.2250738585072014e-308, st, normalize=True).divisor
        big = DensityEstimate(x, k, 1e300, st, normalize=True)
    assert tiny == pytest.approx(1.0, rel=1e-14)
    if clip is None:
        k0 = {"gaussian": 1.0 / np.sqrt(2.0 * np.pi), "epanechnikov": 1.5, "uniform": 1.0}
        want = k0[kernel] / 1e300 * float(np.mean(1.0 / big.den))
    else:
        _, _, flo, fhi = st.floor
        want = float(np.mean(0.5 * (flo + fhi) / big.den))
    assert 0.0 < big.divisor < np.inf
    assert big.divisor == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("start", ["normal", "constant", "outlier"])
def test_log_correction_stays_finite_where_rhat_underflows(start):
    # past the data, rhat is normal, then subnormal, then 0.0; log rhat is
    # finite throughout, and where rhat is normal log_r is np.log(r_hat)
    x = np.random.default_rng(0).standard_normal(200)
    grid = np.linspace(2.5, 8.0, 56)
    st = FittedStart("constant") if start == "constant" else fit_start("normal", x)
    if start == "outlier":  # a 1/fbar weight of about e^90 on the datum 13.4
        x = np.append(x, 13.4)
        st = FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None)
        grid = np.linspace(12.5, 16.5, 201)
    est = DensityEstimate(x, G, 0.05, st)
    cur = correction_curve(est, grid)
    check_correction(est, grid, cur.r_hat)
    normal = cur.r_hat >= np.finfo(float).tiny
    assert np.any(normal) and np.any(cur.r_hat == 0.0)
    # the outlier's weight lifts its terms before any rounding: r_hat falls
    # from about e^-650 through the subnormal range to 0.0, as it does
    # without the outlier
    assert np.any((cur.r_hat > 0.0) & ~normal)
    assert np.array_equal(cur.log_r[normal], np.log(cur.r_hat[normal]))
    assert np.all(np.isfinite(cur.log_r)) and np.all(np.isfinite(cur.z))
    # the rows summed in logs against the 40-digit sum of the same terms
    np.testing.assert_allclose(cur.log_r[~normal], mp_log_correction(est, grid[~normal]),
                               rtol=1e-13, atol=0)


def test_rhat_keeps_its_digits_where_an_outliers_weight_lifts_a_subnormal_lane():
    # the full-row sum rounds the outlier's kernel lane on the subnormal grid,
    # or to 0.0, before its 1/fbar weight of about e^90 lifts it: 6.1913e-283
    # against 6.1966e-283 at 15.32, and 0.0 against 1.2208e-289 at 15.34
    x = np.append(np.random.default_rng(0).standard_normal(200), 13.4)
    est = DensityEstimate(x, G, 0.05, FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None))
    pts = np.array([15.32, 15.34])
    want = np.exp(mp_log_correction(est, pts, dps=40))
    assert literal_correction(est, pts)[1] == 0.0
    np.testing.assert_allclose(correction_curve(est, pts).r_hat, want, rtol=1e-12, atol=0)


def test_log_correction_on_gaussian_draws():
    # 200 standard normal draws, a fitted normal start and h = 0.05: at x = 3
    # rhat is about e^-199, at 4.5 and 6 it underflows to 0.0
    x = np.random.default_rng(0).standard_normal(200)
    cur = correction_curve(DensityEstimate(x, G, 0.05, fit_start("normal", x)),
                           np.array([3.0, 4.5, 6.0]))
    assert cur.r_hat[0] > 0.0 and cur.log_r[0] == np.log(cur.r_hat[0])
    assert np.array_equal(cur.r_hat[1:], [0.0, 0.0])
    np.testing.assert_allclose(cur.log_r, [-199.249245144, -1247.813694989, -3196.378144802],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape", ["epanechnikov", "uniform"])
def test_compact_kernel_log_correction_is_minus_inf_beyond_its_reach(shape):
    x = np.random.default_rng(15).standard_normal(100)
    cur = correction_curve(DensityEstimate(x, kernel_props(shape), 0.3, fit_start("normal", x)),
                           np.array([0.0, 9.0]))
    assert cur.r_hat[1] == 0.0 and cur.log_r[1] == -np.inf and cur.z[1] == -np.inf
    assert np.isfinite(cur.log_r[0])


def test_log_correction_is_minus_inf_where_every_distance_overflows():
    # at h = 1e-300, |x - X_i|/h overflows to inf off the data: every term is
    # -inf and so is log rhat, with no warning; at a datum it is finite
    x = np.random.default_rng(16).standard_normal(50)
    cur = correction_curve(DensityEstimate(x, G, 1e-300, fit_start("normal", x)),
                           np.array([x[0], 0.5]))
    assert np.isfinite(cur.log_r[0]) and cur.log_r[1] == -np.inf


def test_a_start_density_whose_reciprocal_overflows_keeps_the_other_sums():
    # the unclipped start's density at the datum 37.7 is 9.4e-310, below
    # 1/DBL_MAX: its weight 1/fbar overflows, and the lanes that do not reach
    # it, with weight 0.0, must not turn to NaN.  The sums across the other
    # data are finite and within 1e-14 of the full row
    x = np.append(np.random.default_rng(0).standard_normal(500), 37.7)
    est = DensityEstimate(x, G, 0.3, FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None))
    assert 0.0 < est.den[-1] < 1.0 / np.finfo(float).max
    pts = np.array([-3.0, -1.0, 0.0, 1.0, 3.0, 5.0])
    r, log_r = _sums_at(est, pts)
    assert np.all(np.isfinite(r)) and np.all(np.isfinite(log_r))
    check_correction(est, pts, r)


_EPS = np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(["semiparametric", "kernel", "regression"]),
       n=st.integers(20, 300), h=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1),
       c=st.sampled_from([1e-6, 1.0, 1e6]), shift=st.floats(-1e3, 1e3))
def test_windowed_paths_are_translation_and_scale_equivariant(which, n, h, seed, c, shift):
    # the data, the points and h mapped by c x + b, |b| up to 1e3 times the
    # mapped data's spread: the densities scale by 1/c and the smoother not
    # at all.  Mapping rounds each input by up to eps |c x + b|, s = |b|/(c h)
    # eps bandwidths, which moves a weight t bandwidths out by about t s eps,
    # and the exponent itself rounds by a few ulps of t^2; t is the point's
    # distance to its nearest datum in bandwidths.  The densities reach 37
    # bandwidths past the data, where the weights are measured from the
    # nearest datum, and the smoother 20, as far as its weights stay above
    # 1e-300.  The smoother's linear mean start, 10 + x/10 at unit scale, is
    # mapped with the data and stays above 7 at every point
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n)
    y = 10.0 + 0.1 * data + 3.0 * np.sin(3.0 * data) + 0.3 * rng.standard_normal(n)
    beta = (10.0, 0.1)
    far = 20.0 if which == "regression" else 37.0
    pts = np.concatenate([np.linspace(data.min() - 5.0 * h, data.max() + 5.0 * h, 41),
                          [data.min() - far * h, data.max() + far * h]])
    b = shift * c * float(np.ptp(data))

    def mapped(c, b):
        xs, ps, hs = c * data + b, c * pts + b, c * h
        if which == "semiparametric":
            est = DensityEstimate(xs, G, hs, fit_start("normal", xs))
            return estimate_semiparametric(est, ps) * c
        if which == "kernel":
            return estimate_kernel(xs, G, hs, ps) * c
        start = MeanStart("linear", np.array([beta[0] - beta[1] * b / c, beta[1] / c]))
        return gnw_estimate(RegressionFit(xs, y, G, hs, start), ps)

    unit, got = mapped(1.0, 0.0), mapped(c, b)
    t = np.min(np.abs(pts[:, None] - data[None, :]), axis=1) / h
    s = abs(b) / (c * h)
    assert np.all(unit > 0.0)
    assert np.all(np.abs(got - unit) <= (1e-14 + 16.0 * _EPS * (1.0 + t) * (1.0 + t + s)) * unit)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(20, 300), h=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1),
       c=st.sampled_from([1e-6, 1.0, 1e6]), shift=st.floats(-1e3, 1e3))
# np.linalg.lstsq dropped the slope here: a design [1, x] with x about 6e9
@example(n=200, h=0.5, seed=1, c=1e6, shift=1e3)
def test_a_fitted_linear_start_is_mapped_with_the_data(n, h, seed, c, shift):
    # as above for the smoother out to 5 bandwidths, with its linear mean
    # start fitted on the mapped pairs: the slope maps to slope/c, and the
    # smoother keeps its values within the same bound plus the mapped line's
    # rounding, a few ulps of beta1 b/c next to the start's value
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n)
    y = 10.0 + 0.1 * data + 0.3 * np.sin(3.0 * data) + 0.3 * rng.standard_normal(n)
    pts = np.linspace(data.min() - 5.0 * h, data.max() + 5.0 * h, 41)
    b = shift * c * float(np.ptp(data))
    unit = RegressionFit.fit(data, y, G, h)
    got = RegressionFit.fit(c * data + b, y, G, c * h)
    beta = unit.mean_start.beta
    assert abs(got.mean_start.beta[1] * c - beta[1]) <= 1e-9 * abs(beta[1])
    want = gnw_estimate(unit, pts)
    t = np.min(np.abs(pts[:, None] - data[None, :]), axis=1) / h
    s = abs(b) / (c * h)
    line = 64.0 * _EPS * abs(beta[1]) * (1.0 + abs(b / c)) / np.min(unit.mean_start(pts))
    assert np.all(want > 0.0) and np.min(unit.mean_start(pts)) > 0.0
    assert np.all(np.abs(gnw_estimate(got, c * pts + b) - want)
                  <= (1e-14 + line + 16.0 * _EPS * (1.0 + t) * (1.0 + t + s)) * want)
