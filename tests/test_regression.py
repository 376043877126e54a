import numpy as np
import pytest

from semistart.kernels import BLOCK_ELEMENTS, eval_scaled, kernel_props
from semistart.regression import (RegressionFit, fit_mean_start, gnw_estimate,
                                  nw_estimate)

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
    with pytest.raises(ValueError, match="no local data"):
        gnw_estimate(fit, 5.0)


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
    w = eval_scaled(G, 0.08, pts[:, None] - xs[None, :])
    ratio = fit.mean_start(pts)[:, None] / fit.mean_start(xs)[None, :]
    want_g = (w * ratio * ys[None, :]).sum(axis=1) / w.sum(axis=1)
    want_nw = (w * ys[None, :]).sum(axis=1) / w.sum(axis=1)
    got_g, got_nw = gnw_estimate(fit, x), nw_estimate(fit, x)
    assert np.shape(got_g) == np.shape(got_nw) == np.shape(x)
    assert np.array_equal(np.ravel(got_g), want_g)
    assert np.array_equal(np.ravel(got_nw), want_nw)
