import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistart.kernels import BLOCK_ELEMENTS, MAX_BLOCK_THREADS, eval_scaled, kernel_props
from semistart.regression import (MeanStart, RegressionFit, _clipped_mean, fit_mean_start,
                                  gnw_estimate, nw_estimate)

from conftest import literal_gnw

G = kernel_props("gaussian")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pairs_are_rejected_naming_the_index(bad, capfd):
    x = np.linspace(0.0, 1.0, 12)
    y = 1.0 + x
    bad_x, bad_y = x.copy(), y.copy()
    bad_x[5] = bad
    bad_y[7] = bad
    for xs, ys, i in ((bad_x, y, 5), (x, bad_y, 7)):
        with pytest.raises(ValueError, match=rf"index {i} is not finite"):
            RegressionFit.fit(xs, ys, G, 0.2)
        with pytest.raises(ValueError, match=rf"index {i} is not finite"):
            RegressionFit(xs, ys, G, 0.2, fit_mean_start(x, y))
    assert capfd.readouterr().err == ""  # LAPACK never sees the bad value


def test_fit_exact_line():
    x = np.linspace(0, 1, 20)
    ms = fit_mean_start(x, 2.0 * x + 1.0, "linear")
    np.testing.assert_allclose(ms.beta, [1.0, 2.0], atol=1e-12)


def test_fit_constant_is_mean():
    y = np.array([1.0, 3.0, 5.0])
    ms = fit_mean_start(np.arange(3.0), y, "constant")
    assert ms.beta[0] == pytest.approx(3.0, abs=1e-15)


def test_fit_residual_orthogonality():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, 200)
    y = rng.normal(0, 1, 200) + 0.5 * x
    ms = fit_mean_start(x, y, "linear")
    res = y - ms(x)
    assert abs(res.sum()) < 1e-10 * len(x)
    assert abs((res * x).sum()) < 1e-10 * len(x)
    with pytest.raises(ValueError):
        fit_mean_start(np.ones(5), np.arange(5.0), "linear")


def test_constant_start_equals_classic():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 50)
    y = np.sin(3 * x) + rng.normal(0, 0.1, 50)
    fit = RegressionFit.fit(x, y, G, 0.15, kind="constant")
    grid = np.linspace(0.1, 0.9, 17)
    np.testing.assert_array_equal(gnw_estimate(fit, grid), nw_estimate(fit, grid))


def test_classic_smoother_at_one_pair():
    fit = RegressionFit([0.5], [2.0], G, 0.2, fit_mean_start([0.0, 1.0], [1.0, 3.0]))
    assert nw_estimate(fit, 0.6) == 2.0
    assert gnw_estimate(fit, 0.5) == 2.0


def test_constant_mean_start_fits_one_pair():
    fit = RegressionFit.fit([0.5], [2.0], G, 0.2, kind="constant")
    assert gnw_estimate(fit, 0.6) == nw_estimate(fit, 0.6) == 2.0
    with pytest.raises(ValueError, match="linear mean start needs at least 2"):
        RegressionFit.fit([0.5], [2.0], G, 0.2, kind="linear")


def test_exact_mean_responses_are_reproduced():
    # when responses already equal the fitted line, the ratios collapse
    x = np.linspace(0.5, 2.5, 40)
    fit0 = fit_mean_start(x, 3.0 + 0.7 * x, "linear")
    y = fit0(x)
    fit = RegressionFit(x, y, G, 0.3, fit0)
    grid = np.linspace(0.7, 2.3, 9)
    np.testing.assert_allclose(gnw_estimate(fit, grid), fit0(grid), rtol=1e-12)


def test_weights_sum_to_one():
    x = np.linspace(0, 1, 30)
    y = np.full_like(x, 2.5)
    fit = RegressionFit.fit(x, y, G, 0.2, kind="constant")
    np.testing.assert_allclose(gnw_estimate(fit, np.linspace(0, 1, 7)), 2.5, rtol=1e-14)


def test_no_local_data_error():
    fit = RegressionFit.fit(np.array([0.0, 0.1]), np.array([1.0, 2.0]),
                            kernel_props("epanechnikov"), 0.05, kind="constant")
    # the point prints as a plain float, not as a NumPy scalar's repr
    with pytest.raises(ValueError, match=r"^no local data: every kernel weight vanishes at x=0\.5$"):
        gnw_estimate(fit, 0.5)


def test_linear_truth_beats_classic_smoother():
    # straight-line truth: the corrected smoother should (almost) always win
    wins = 0
    grid = np.linspace(0.2, 0.8, 31)
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(7000 + seed))
        x = rng.uniform(0, 1, 2000)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.3, 2000)
        fit = RegressionFit.fit(x, y, G, 0.2, kind="linear")
        e_corrected = np.max(np.abs(gnw_estimate(fit, grid) - (2 * grid + 1)))
        e_classic = np.max(np.abs(nw_estimate(fit, grid) - (2 * grid + 1)))
        wins += e_corrected <= e_classic
    assert wins >= 16


@pytest.mark.parametrize("h", [0.1, 0.2])
def test_exponential_truth_bias_reduction(h):
    # exp mean with a linear start on a sloped design: the corrected
    # smoother's bias at 0.5 is below the classic smoother's, beyond noise
    reps = 1000
    target = float(np.exp(0.5))
    gv = np.empty(reps)
    cv = np.empty(reps)
    for r in range(reps):
        rng = np.random.Generator(np.random.Philox(8000 + r))
        x = np.sqrt(rng.uniform(0, 1, 400))
        y = np.exp(x) + rng.normal(0, 0.15, 400)
        fit = RegressionFit.fit(x, y, G, h, kind="linear")
        gv[r] = gnw_estimate(fit, 0.5)
        cv[r] = nw_estimate(fit, 0.5)
    se_pair = (gv - cv).std(ddof=1) / np.sqrt(reps)
    assert abs(gv.mean() - target) < abs(cv.mean() - target) - 3.0 * se_pair


@pytest.mark.parametrize("n, x", [
    (BLOCK_ELEMENTS + 7, np.linspace(0.05, 0.95, 9)),  # one row per block
    (1000, np.linspace(0.0, 1.0, 101)),                # 32 rows per block, 5 left over
    (1000, np.float64(0.37)),                          # scalar
    # three 32-row blocks per block thread and a partial one
    pytest.param(1000, np.linspace(0.0, 1.0, 96 * MAX_BLOCK_THREADS + 5),
                 id="more_blocks_than_workers"),
])
def test_blocked_smoothers_are_bit_identical(n, x):
    rng = np.random.default_rng(41)
    xs = rng.uniform(0, 1, n)
    ys = 3.0 + xs + np.sin(5 * xs) + rng.normal(0, 0.2, n)
    fit = RegressionFit.fit(xs, ys, G, 0.08, kind="linear")
    # the fitted line stays near 3..4, far above the small-mean floor, so the
    # literal expression may use it unclipped
    assert np.abs(fit.mean_start(xs)).min() > 2.0
    pts = np.atleast_1d(x)
    z = (pts[:, None] - xs[None, :]) / 0.08
    w = np.exp(-0.5 * z * z)  # the unnormalised profile: its factor cancels
    col = ys / fit.mean_start(xs)
    want_g = (w * col[None, :]).sum(axis=1) / w.sum(axis=1) * fit.mean_start(pts)
    want_nw = (w * ys[None, :]).sum(axis=1) / w.sum(axis=1)
    got_g, got_nw = gnw_estimate(fit, x), nw_estimate(fit, x)
    assert np.shape(got_g) == np.shape(got_nw) == np.shape(x)
    assert np.array_equal(np.ravel(got_g), want_g)
    assert np.array_equal(np.ravel(got_nw), want_nw)


@settings(max_examples=100, deadline=None)
@given(band=st.sampled_from(["none", "few", "most"]), kind=st.sampled_from(["constant", "linear"]),
       shape=st.sampled_from(["0-d", "1-d", "2-d"]), sign=st.sampled_from([-1.0, 1.0]),
       n=st.integers(2, 150), m=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 1.0))
def test_in_place_smoother_is_the_literal_smoother(band, kind, shape, sign, n, m, seed, scale):
    # a first row with no lanes in (-746, -700), a few, or only those: then
    # its sums are made of band lanes alone.  The design is mirrored about 0.5
    # with mirrored responses, so the fitted line crosses zero there, and
    # x[1:3] sit just either side of it: means of both signs fall under the
    # clip floor.  The other points are data too, so none lacks local data.
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, m)
    x[1:3] = 0.5 + np.array([-1e-9, 1e-9])
    if band == "most":  # a cluster 37.5..38.5 h away from the first point
        h = 10.0 ** (-12.0 + 3.0 * scale)
        half = 0.5 + h * rng.uniform(-0.5, 0.5, n + 4 * m)
        x[0] = 0.5 + 38.0 * h
    else:
        h = 0.3 + scale if band == "none" else 0.01 + 0.02 * scale
        half = rng.uniform(0.0, 0.5, n)
        if band == "few":
            x[0] = half[0] + 38.0 * h
    half = np.concatenate([half, [0.0], x[1:] if band == "most" else x])
    xs = np.concatenate([half, 1.0 - half])
    noise = 0.1 * rng.standard_normal(half.size)
    ys = sign * (xs - 0.5) + np.concatenate([noise, -noise])
    fit = RegressionFit.fit(xs, ys, G, h, kind=kind)
    if kind == "linear":
        m_pts = _clipped_mean(fit, x[1:3])
        assert np.all(np.abs(m_pts) == 0.05 * float(fit.y.std())) and m_pts[0] * m_pts[1] < 0
    expo = -0.5 * ((x[0] - xs) / h) ** 2  # the first point's row
    share = float(np.mean((expo > -746.0) & (expo < -700.0)))
    assert share == 0.0 if band == "none" else share > (0.5 if band == "most" else 0.0)
    x = {"0-d": x[:1].reshape(()), "1-d": x, "2-d": x[:m // 2 * 2].reshape(2, -1)}[shape]
    got = gnw_estimate(fit, x)
    assert np.shape(got) == np.shape(x)
    assert np.array_equal(np.ravel(got), literal_gnw(fit, x))
    classic = nw_estimate(fit, x)
    assert np.shape(classic) == np.shape(x)
    flat = RegressionFit.fit(xs, ys, G, h, kind="constant")
    assert np.array_equal(np.ravel(classic), literal_gnw(flat, x))


def expanded_gnw(fit, pts):
    """The smoother as first written, and its scale, at the points pts.

    Normalised kernel weights w_i times the ratio m(x)/m(x_i) times y_i,
    summed and divided by the summed weights.  The scale is the same mean
    of the terms' magnitudes, which is the value's magnitude when nothing
    cancels.
    """
    w = eval_scaled(fit.kernel, fit.h, pts[:, None] - fit.x[None, :])
    terms = w
    if fit.mean_start.kind != "constant":
        terms = terms * (_clipped_mean(fit, pts)[:, None] / _clipped_mean(fit, fit.x)[None, :])
    terms = terms * fit.y[None, :]
    return terms.sum(axis=1) / w.sum(axis=1), np.abs(terms).sum(axis=1) / w.sum(axis=1)


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(["gaussian", "epanechnikov", "uniform"]),
       kind=st.sampled_from(["constant", "linear"]), n=st.integers(2, 300),
       seed=st.integers(0, 2**32 - 1), cross=st.floats(0.2, 0.8),
       sign=st.sampled_from([-1.0, 0.0, 1.0]), slope=st.floats(0.1, 5.0),
       noise=st.just(0.0) | st.floats(0.01, 1.0), log_h=st.floats(-2.0, 0.0))
def test_smoother_keeps_the_expanded_smoothers_values(shape, kind, n, seed, cross, sign, slope,
                                                        noise, log_h):
    # profile weights, a column weight y_i/m(x_i) and a row factor m(x) round
    # otherwise than the expanded terms, by a few ulps of each term.  The mean
    # line is 0 at the datum `cross`, so the data near it take the clipped
    # floor and their terms can cancel: the bound is on the terms' scale.
    # Every point is a datum, so each has local data under every kernel.  The
    # responses are normal doubles or 0: subnormal ones would round on their
    # own absolute scale.
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, n)
    xs[0] = cross
    slope *= sign
    ys = slope * (xs - cross) + noise * rng.standard_normal(n)
    beta = [float(ys.mean())] if kind == "constant" else [-slope * cross, slope]
    fit = RegressionFit(xs, ys, kernel_props(shape), 10.0**log_h, MeanStart(kind, np.array(beta)))
    if kind == "linear":
        floor = 0.05 * float(fit.y.std()) or 0.05
        assert abs(_clipped_mean(fit, xs[:1])[0]) == floor
    old, scale = expanded_gnw(fit, xs)
    got = gnw_estimate(fit, xs)
    assert np.all(np.abs(got - old) <= 1e-14 * scale)


def test_far_point_has_no_local_data_under_the_gaussian_kernel():
    # every profile weight at x = 60 underflows to 0.0 (exponents below -746),
    # and the smoother reports the point as the compact kernels do
    fit = RegressionFit.fit(np.array([0.0, 0.1, 0.3]), np.array([1.0, 2.0, 4.0]), G, 1.5,
                            kind="linear")
    assert np.all(eval_scaled(G, 1.5, 60.0 - fit.x) == 0.0)
    for smoother in (gnw_estimate, nw_estimate):
        with pytest.raises(ValueError,
                           match=r"^no local data: every kernel weight vanishes at x=60\.0$"):
            smoother(fit, np.array([0.2, 60.0, 70.0]))


@pytest.mark.parametrize("kind", ["constant", "linear"])
def test_smoother_takes_a_grid_of_any_shape(kind):
    rng = np.random.default_rng(45)
    xs = rng.uniform(0.0, 1.0, 200)
    fit = RegressionFit.fit(xs, 1.0 + xs + rng.normal(0.0, 0.2, 200), G, 0.1, kind=kind)
    x = np.full((2, 3), 0.5)
    x[1] = [0.1, 0.7, 0.9]
    for smoother in (gnw_estimate, nw_estimate):
        got = smoother(fit, x)
        assert got.shape == (2, 3)
        assert np.array_equal(got, smoother(fit, x.ravel()).reshape(2, 3))
