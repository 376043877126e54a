import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semistart import kernels
from semistart.kernels import MAX_BLOCK_THREADS, eval_scaled, kernel_props
from semistart.regression import (MeanStart, RegressionFit, _clipped_mean, fit_mean_start,
                                  gnw_estimate, nw_estimate)

from conftest import literal_gnw, mp_gnw

G = kernel_props("gaussian")
EPS = np.finfo(float).eps
# the ulps of expanded_gnw's rounding scale that the smoother may miss by
ULPS = 8.0


def _refit(fit):
    """A fresh fit on fit's pairs: it keeps no sums, so its first evaluation sums."""
    return RegressionFit(fit.x, fit.y, fit.kernel, fit.h, fit.mean_start)


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
    assert capfd.readouterr().err == ""  # nothing reaches stderr


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
    (2**15 + 7, np.linspace(0.05, 0.95, 9)),           # one row per block
    (1000, np.linspace(0.0, 1.0, 101)),                # many rows per window
    (1000, np.float64(0.37)),                          # scalar
    # several blocks of a window's rows, and a partial one
    pytest.param(1000, np.linspace(0.0, 1.0, 96 * MAX_BLOCK_THREADS + 5),
                 id="more_blocks_than_workers"),
])
def test_blocked_smoothers_are_bit_identical(n, x, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 2**15)  # the geometry the cases describe
    # each point sums over its own window of the sorted data, so it has the
    # same bits alone as in the grid, and stays within 1e-14 of the full-row
    # sum on the terms' scale
    rng = np.random.default_rng(41)
    xs = rng.uniform(0, 1, n)
    ys = 3.0 + xs + np.sin(5 * xs) + rng.normal(0, 0.2, n)
    fit = RegressionFit.fit(xs, ys, G, 0.08, kind="linear")
    flat = RegressionFit(xs, ys, G, 0.08, MeanStart("constant", np.array([float(ys.mean())])))
    got_g, got_nw = gnw_estimate(fit, x), nw_estimate(fit, x)
    assert np.shape(got_g) == np.shape(got_nw) == np.shape(x)
    for got, f in ((got_g, fit), (got_nw, flat)):
        assert _near(np.ravel(got), *literal_gnw(f, x))
    pts = np.atleast_1d(x)
    for k in range(pts.size):
        assert gnw_estimate(_refit(fit), pts[k]) == np.ravel(got_g)[k]
        assert nw_estimate(_refit(fit), pts[k]) == np.ravel(got_nw)[k]


def test_a_grid_with_far_points_keeps_the_bits_of_its_near_ones():
    # alone, or in a grid of points near the data, a point's window is all
    # the data and its weights are squares; far points add windows and forms
    # of their own to the grid, which leave the near points' bits as they are
    rng = np.random.default_rng(43)
    xs = np.sort(rng.uniform(0.0, 1.0, 60))
    fit = RegressionFit.fit(xs, 1.0 + xs + rng.normal(0.0, 0.2, 60), G, 0.2)
    near = np.linspace(xs[0] - 0.15, xs[-1] + 0.15, 57)
    for smoother in (gnw_estimate, nw_estimate):
        grid = smoother(fit, near)
        wide = smoother(fit, np.concatenate([near, [-3.0, 4.0]]))
        assert np.array_equal(wide[:-2], grid)
        assert all(smoother(fit, p) == g for p, g in zip(near, grid))


def _near(got, want, scale):
    """got is within 1e-14 of want on the terms' scale."""
    return bool(np.all(np.abs(got - want) <= 1e-14 * scale))


def _pairs(shape, kind, layout, ties, sign, n, seed, log_h):
    """A fit on pairs mirrored about 0.5, so that a linear mean crosses zero there.

    The data are spread over [0, 1] or clustered within h of 0.5; with ties,
    half of them repeat the other half's x values with other responses.
    0.5 -+ 1e-9 are data, whose linear means fall under the clip floor with
    both signs, and 0 and 1 are data, which anchor a fitted line.
    """
    rng = np.random.default_rng(seed)
    h = 10.0**log_h
    half = (0.5 + h * rng.uniform(-0.5, 0.5, n) if layout == "cluster"
            else rng.uniform(0.0, 0.5, n))
    if ties:
        half[n // 2:] = half[:n - n // 2]
    half = np.concatenate([half, [0.0, 0.5 - 1e-9]])
    xs = np.concatenate([half, 1.0 - half])
    noise = 0.1 * rng.standard_normal(half.size)
    ys = sign * (xs - 0.5) + np.concatenate([noise, -noise])
    return RegressionFit.fit(xs, ys, kernel_props(shape), h, kind=kind)


def _spread(x, m):
    """m of the sorted data x, spread from the first to the last."""
    return x[np.linspace(0, x.size - 1, m).round().astype(int)]


_PAIRS = dict(shape=st.sampled_from(["gaussian", "epanechnikov", "uniform"]),
              kind=st.sampled_from(["constant", "linear"]),
              layout=st.sampled_from(["spread", "cluster"]), ties=st.booleans(),
              sign=st.sampled_from([-1.0, 1.0]), n=st.integers(2, 150),
              seed=st.integers(0, 2**32 - 1), log_h=st.floats(-12.0, -0.5))


@settings(max_examples=100, deadline=None)
@given(far=st.floats(35.0, 38.6), m=st.integers(3, 40), **_PAIRS)
# the far point's value keeps a rounding of t0^2/2 where the regression's
# weights take the form of squares out to the density's bound
@example(far=36.0, m=12, shape="gaussian", kind="linear", layout="spread", ties=False, sign=1.0,
         n=40, seed=0, log_h=-1.5)
def test_in_place_smoother_is_the_literal_smoother(far, m, shape, kind, layout, ties, sign, n,
                                                   seed, log_h):
    # within 1e-14 of the full-row sum on the terms' scale, at data points
    # (each has local data under every kernel) and, for the gaussian kernel,
    # at a point `far` bandwidths beyond the data.  That point's full-row
    # weights are below e^-612, tiny or subnormal, and the float sum loses
    # digits there, so its oracle is a 40-digit mpmath sum.
    fit = _pairs(shape, kind, layout, ties, sign, n, seed, log_h)
    if kind == "linear":
        m_pts = _clipped_mean(fit, np.array([0.5 - 1e-9, 0.5 + 1e-9]))
        assert np.all(np.abs(m_pts) == fit.floor) and m_pts[0] * m_pts[1] < 0
    pts = np.concatenate([_spread(fit.x, m), [0.5 - 1e-9, 0.5 + 1e-9]])
    flat = RegressionFit(fit.x, fit.y, fit.kernel, fit.h,
                         MeanStart("constant", np.array([float(fit.y.mean())])))
    for smoother, f in ((gnw_estimate, fit), (nw_estimate, flat)):
        assert _near(smoother(f, pts), *literal_gnw(f, pts))
        if shape == "gaussian":
            x_far = float(fit.x.max()) + far * fit.h
            assert np.max(-0.5 * ((x_far - fit.x) / fit.h) ** 2) < -612.0
            *oracle, (mass,) = mp_gnw(f, [x_far])
            if mass < -300.0 - 1e-9:  # the normalised weights sum below 1e-300
                with pytest.raises(ValueError, match="^no local data"):
                    smoother(f, x_far)
            elif mass > -300.0 + 1e-9:
                assert _near(smoother(f, [x_far]), *oracle)


@pytest.mark.parametrize("seed", range(4))
def test_values_far_past_the_data_keep_their_digits(seed):
    # a value is a ratio of two sums, which cancels the factor exp(-t0^2/2)
    # of weights measured from the nearest datum, and keeps no rounding of
    # t0^2/2.  Weights in the form of squares would keep a few ulps of it:
    # with responses centred on 0, whose terms cancel, they missed the
    # 40-digit values 12-36 bandwidths out by up to 5e-14 of the terms' scale
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0.0, 1.0, 200), rng.standard_normal(200)
    h = 0.02
    fit = RegressionFit.fit(xs, ys, G, h)
    flat = RegressionFit(xs, ys, G, h, MeanStart("constant", np.array([float(ys.mean())])))
    far = np.array([12.0, 24.0, 36.0]) * h
    pts = np.concatenate([xs.min() - far, xs.max() + far])
    for smoother, f in ((gnw_estimate, fit), (nw_estimate, flat)):
        *oracle, _ = mp_gnw(f, pts)
        assert _near(smoother(f, pts), *oracle)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 30), block=st.sampled_from([1, 7, 2**15]), **_PAIRS)
def test_a_point_has_the_same_bits_alone_in_a_grid_and_at_any_block_size(
        m, block, shape, kind, layout, ties, sign, n, seed, log_h):
    fit = _pairs(shape, kind, layout, ties, sign, n, seed, log_h)
    pts = np.concatenate([_spread(fit.x, m),
                          [fit.x[-1] + 36.0 * fit.h] if shape == "gaussian" else []])
    for smoother in (gnw_estimate, nw_estimate):
        grid = smoother(_refit(fit), pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_ELEMENTS", block)
            assert np.array_equal(smoother(_refit(fit), pts), grid)
        for k in range(pts.size):
            assert smoother(_refit(fit), pts[k]) == grid[k]


@settings(max_examples=60, deadline=None)
@given(perm_seed=st.integers(0, 2**32 - 1), **_PAIRS)
# the values depended on the order of tied pairs here, and on that of
# distinct ones through the fitted line
@example(perm_seed=0, shape="gaussian", kind="constant", layout="spread", ties=True, sign=1.0,
         n=40, seed=0, log_h=-1.0)
@example(perm_seed=0, shape="gaussian", kind="linear", layout="spread", ties=False, sign=1.0,
         n=40, seed=0, log_h=-1.0)
def test_permuting_the_pairs_keeps_every_bit(perm_seed, shape, kind, layout, ties, sign, n,
                                             seed, log_h):
    # a fit keeps the pairs sorted by x, and by y among tied x, and fits its
    # mean start and takes its clip floor there, so the order of the input
    # pairs is immaterial, with a given mean start or a fitted one
    fit = _pairs(shape, kind, layout, ties, sign, n, seed, log_h)
    p = np.random.default_rng(perm_seed).permutation(fit.x.size)
    x, y = fit.x[p], fit.y[p]
    fitted = RegressionFit.fit(x, y, fit.kernel, fit.h, kind=kind)
    assert fitted.mean_start.beta.tobytes() == fit.mean_start.beta.tobytes()
    pts = np.concatenate([fit.x, [0.25, 0.75]])
    for moved in (fitted, RegressionFit(x, y, fit.kernel, fit.h, fit.mean_start)):
        assert moved.x.tobytes() == fit.x.tobytes() and moved.y.tobytes() == fit.y.tobytes()
        assert moved.floor == fit.floor
        for smoother in (gnw_estimate, nw_estimate):
            try:
                want = smoother(fit, pts)
            except ValueError:  # a compact kernel with no data by 0.25 or 0.75
                with pytest.raises(ValueError, match="^no local data"):
                    smoother(moved, pts)
                continue
            assert smoother(moved, pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("ties", [False, True])
def test_a_fit_sorts_its_pairs_once(ties, monkeypatch):
    # RegressionFit.fit sorts the pairs (argsort, then lexsort where x has
    # ties) and builds the fit from the sorted pairs, which are only copied:
    # any sort after that raises
    rng = np.random.default_rng(72)
    x = rng.uniform(0.0, 1.0, 500)
    if ties:
        x = np.round(x, 2)
    y = 1.0 + x + rng.normal(0.0, 0.1, x.size)
    calls = []

    def once(name, real):
        def sort(*args, **kwargs):
            if "lexsort" in calls or name in calls:
                raise AssertionError(f"np.{name} sorts the pairs again")
            calls.append(name)
            return real(*args, **kwargs)
        return sort

    monkeypatch.setattr(np, "argsort", once("argsort", np.argsort))
    monkeypatch.setattr(np, "lexsort", once("lexsort", np.lexsort))
    fit = RegressionFit.fit(x, y, G, 0.1)
    assert calls == (["argsort", "lexsort"] if ties else ["argsort"])
    monkeypatch.undo()
    order = np.lexsort((y, x))
    assert fit.x.tobytes() == x[order].tobytes() and fit.y.tobytes() == y[order].tobytes()


def expanded_gnw(fit, pts):
    """The smoother as first written, its scale and its rounding scale, at the points pts.

    Normalised kernel weights w_i times the ratio m(x)/m(x_i) times y_i,
    summed and divided by the summed weights.  The scale is the same mean
    of the terms' magnitudes, which is the value's magnitude when nothing
    cancels.  The rounding scale weighs each term, and each weight times
    the value (the division by the summed weights), by 1 + t^2/2, with t the
    term's distance in bandwidths: a gaussian weight's exponent t^2/2 carries
    a few ulps of itself into the weight, so a weight 10 bandwidths out may
    round by some 50 ulps in either smoother.
    """
    z = pts[:, None] - fit.x[None, :]
    w = eval_scaled(fit.kernel, fit.h, z)
    ratio = np.ones((pts.size, 1))
    if fit.mean_start.kind != "constant":
        ratio = _clipped_mean(fit, pts)[:, None] / _clipped_mean(fit, fit.x)[None, :]
    terms = w * ratio * fit.y[None, :]
    wsum = w.sum(axis=1)
    value = terms.sum(axis=1) / wsum
    grow = 1.0 + 0.5 * (z / fit.h) ** 2
    rounding = ((np.abs(terms) + w * np.abs(value)[:, None]) * grow).sum(axis=1) / wsum
    return value, np.abs(terms).sum(axis=1) / wsum, rounding


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(["gaussian", "epanechnikov", "uniform"]),
       kind=st.sampled_from(["constant", "linear"]), n=st.integers(2, 300),
       seed=st.integers(0, 2**32 - 1), cross=st.floats(0.2, 0.8),
       sign=st.sampled_from([-1.0, 0.0, 1.0]), slope=st.floats(0.1, 5.0),
       noise=st.just(0.0) | st.floats(0.01, 1.0), log_h=st.floats(-2.0, 0.0))
# the value at the datum `cross` is -1.137e-315, one term of weight e^-724.65
@example(shape="gaussian", kind="constant", n=2, seed=162777, cross=0.203125, sign=-1.0,
         slope=1.0, noise=0.0, log_h=-1.8125)
# one term from a datum 10.16 bandwidths away: its exponent, about -51.6, carries
# a few ulps of rounding into the weight, 1.41e-14 of the terms' scale
@example(shape="gaussian", kind="constant", n=2, seed=16, cross=0.25, sign=-1.0, slope=1.0,
         noise=0.0, log_h=-1.75)
def test_smoother_keeps_the_expanded_smoothers_values(shape, kind, n, seed, cross, sign, slope,
                                                        noise, log_h):
    # profile weights, a column weight y_i/m(x_i) and a row factor m(x) round
    # otherwise than the expanded terms, by a few ulps of each term.  The mean
    # line is 0 at the datum `cross`, so the data near it take the clipped
    # floor and their terms can cancel: the bound is on the terms' scale.
    # Every point is a datum, so each has local data under every kernel.  The
    # responses are normal doubles or 0: subnormal ones would round on their
    # own absolute scale.  So does a value whose scale is subnormal, and the
    # float expanded smoother with it: such a value is held to mp_gnw's
    # 40-digit sum instead, with one subnormal spacing 2^-1074 per term.
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, n)
    xs[0] = cross
    slope *= sign
    ys = slope * (xs - cross) + noise * rng.standard_normal(n)
    beta = [float(ys.mean())] if kind == "constant" else [-slope * cross, slope]
    fit = RegressionFit(xs, ys, kernel_props(shape), 10.0**log_h, MeanStart(kind, np.array(beta)))
    if kind == "linear":
        assert fit.floor == pytest.approx(0.05 * float(fit.y.std()) or 0.05, rel=1e-14)
        assert abs(_clipped_mean(fit, xs[:1])[0]) == fit.floor
    got = gnw_estimate(fit, xs)
    want, scale, rounding = expanded_gnw(fit, xs)
    sub = (scale > 0.0) & (scale < np.finfo(float).tiny)
    if np.any(sub):
        mp_want, mp_scale, _ = mp_gnw(fit, xs[sub])
        assert np.all(np.abs(got[sub] - mp_want) <= 1e-14 * mp_scale + n * 2.0**-1074)
    assert np.all(np.abs(got[~sub] - want[~sub]) <= ULPS * EPS * rounding[~sub])


@pytest.mark.parametrize("tiny", [1e-20, 0.0])
def test_window_widens_where_the_nearest_responses_are_small(tiny):
    # responses of 1 from x = 0.5 on and `tiny` before.  10.5-20 bandwidths
    # before 0.5, beyond the kernel's plain reach sqrt(2 ln n + 120 ln 2) h,
    # about 9.9 h, the data from 0.5 on still carry much of the value, or
    # all of it, so the window must take them in
    x = np.linspace(0.0, 1.0, 1001)
    fit = RegressionFit(x, np.where(x < 0.5, tiny, 1.0), G, 0.01,
                        MeanStart("constant", np.array([0.5])))
    pts = 0.5 - 0.01 * np.linspace(10.5, 20.0, 20)
    want, scale = literal_gnw(fit, pts)
    assert np.all(want > 0.0)
    assert _near(gnw_estimate(fit, pts), want, scale)


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
        assert np.array_equal(got, smoother(_refit(fit), x.ravel()).reshape(2, 3))


@pytest.mark.parametrize("shape", ["gaussian", "epanechnikov", "uniform"])
def test_extreme_bandwidths_smooth_without_warnings(shape):
    # at a tiny h the window holds the point's own datum; at a huge one every
    # weight is 1.  No scaled distance, square or reach may overflow, divide
    # by zero or warn
    x = np.linspace(0.0, 1.0, 50)
    pts = x[[3, 10]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (2.3e-308, 1e-200, 1e200, 1e300):
            fit = RegressionFit.fit(x, 1.0 + x, kernel_props(shape), h)
            np.testing.assert_allclose(gnw_estimate(fit, pts), 1.0 + pts, rtol=1e-12)
            want = 1.0 + (pts if h < 1.0 else x.mean())  # the classic smoother's mean
            np.testing.assert_allclose(nw_estimate(fit, pts), want, rtol=1e-12)
        # the normalised weights, about n/(sqrt(2 pi) h), sum below 1e-300
        fit = RegressionFit.fit(x, 1.0 + x, kernel_props(shape), 1.7e308)
        with pytest.raises(ValueError, match="^no local data"):
            gnw_estimate(fit, pts)


def test_smoother_has_the_same_bits_on_any_number_of_block_threads(machine):
    # the windowed sums run every block in the calling thread, so the result
    # cannot depend on the number of CPUs, and no windowed sum starts the pool
    import sys
    from semistart import (DensityEstimate, correction_curve, estimate_kernel,
                           estimate_semiparametric, fit_start)
    rng = np.random.default_rng(47)
    xs = rng.uniform(0.0, 1.0, 3000)
    fit = RegressionFit.fit(xs, 1.0 + xs + rng.normal(0.0, 0.2, 3000), G, 0.01)
    pts = np.linspace(-0.2, 1.2, 20001)  # both forms of the weights: off the data too
    machine(1)
    want = gnw_estimate(fit, pts)
    old = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (2, 8):
            machine(cpus)
            assert np.array_equal(gnw_estimate(_refit(fit), pts), want)
    finally:
        sys.setswitchinterval(old)
    # many blocks each at n = 5e4: f_hat, f_tilde, the correction curve
    # (on a fresh estimate, which sums again) and both smoothers
    data = rng.normal(0.0, 1.0, 50_000)
    grid = np.linspace(-4.0, 4.0, 161)
    est = DensityEstimate(data, G, 0.1, fit_start("normal", data))
    estimate_semiparametric(est, grid)
    estimate_kernel(data, G, 0.1, grid)
    correction_curve(DensityEstimate(data, G, 0.1, est.start), grid)
    big = RegressionFit.fit(data, 1.0 + data + rng.normal(0.0, 0.2, data.size), G, 0.1)
    gnw_estimate(big, grid)
    nw_estimate(big, grid)
    assert kernels._pool is None


@pytest.mark.parametrize("kind", ["constant", "linear"])
def test_a_fit_smooths_once_per_grid(kind, monkeypatch):
    passes = []  # one windowed pass over a grid per plan, then its fill
    inner = kernels._plan

    def counted(*args, **kwargs):
        passes.append(args[3].size)
        return inner(*args, **kwargs)

    monkeypatch.setattr(kernels, "_plan", counted)
    rng = np.random.default_rng(49)
    xs = rng.uniform(0.0, 1.0, 3000)
    ys = 2.0 + xs + 0.5 * np.sin(2.0 * np.pi * xs) + rng.normal(0.0, 0.3, 3000)
    grid = np.linspace(0.0, 1.0, 161)
    fit = RegressionFit.fit(xs, ys, G, 0.02, kind=kind)
    m_hat = gnw_estimate(fit, grid)
    m_classic = nw_estimate(fit, grid)
    assert len(passes) == 1  # the classic smoother on the same grid sums nothing
    if kind == "constant":
        assert np.array_equal(m_hat, m_classic)
    # a fresh fit, with either smoother first, gives the same bits
    assert np.array_equal(gnw_estimate(_refit(fit), grid), m_hat)
    assert np.array_equal(nw_estimate(_refit(fit), grid), m_classic)
    assert len(passes) == 3
    got = nw_estimate(fit, grid.reshape(7, 23))  # the same points in another shape
    assert len(passes) == 3
    assert np.array_equal(got.ravel(), m_classic)
    got[:] = 0.0  # the returned array is the caller's own
    assert np.array_equal(gnw_estimate(fit, grid), m_hat)
    assert len(passes) == 3
    # a reordered grid and another grid each sum again, to the same bits
    assert np.array_equal(gnw_estimate(fit, grid[::-1]), m_hat[::-1])
    assert len(passes) == 4
    assert np.array_equal(nw_estimate(fit, grid[:80]), m_classic[:80])
    assert len(passes) == 5
    assert np.array_equal(nw_estimate(fit, grid), m_classic)
    assert len(passes) == 6
    # the sorted pairs and the mean the sums were taken with cannot change under them
    assert np.all(np.diff(fit.x) >= 0.0)
    for kept in (fit.x, fit.y, fit.mean_start.beta):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
