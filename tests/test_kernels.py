import concurrent.futures
import contextlib
import math
import multiprocessing
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from semistart import (DensityEstimate, FittedStart, MvEstimate, RegressionFit, bcv,
                       correction_curve, estimate_semiparametric, eval_start, fit_start,
                       gnw_estimate, marron_wand, mise_kernel, mise_new, mv_estimate,
                       nw_estimate, plugin_roughness, ucv)
from semistart import kernels
from semistart.kernels import (MAX_BLOCK_THREADS, SHAPES,
                               eval_scaled, exp_into, for_blocks, kernel_props, row_blocks,
                               window_sums)

from conftest import (check_correction, literal_gaussian, literal_window_exponent,
                      mp_gnw, mp_log_correction, phi)


def quad_moment(shape, power, lo, hi):
    k = kernel_props(shape)
    val, _ = quad(lambda z: z**power * eval_scaled(k, 1.0, z), lo, hi,
                  limit=200, epsabs=1e-13)
    return val


SUPPORT = {"gaussian": (-10.0, 10.0), "epanechnikov": (-0.5, 0.5), "uniform": (-0.5, 0.5)}


@pytest.mark.parametrize("shape", SHAPES)
def test_constants_match_quadrature(shape):
    k = kernel_props(shape)
    lo, hi = SUPPORT[shape]
    assert quad_moment(shape, 0, lo, hi) == pytest.approx(1.0, abs=1e-10)
    assert quad_moment(shape, 2, lo, hi) == pytest.approx(k.sigma2_K, abs=1e-12)
    r_quad, _ = quad(lambda z: eval_scaled(k, 1.0, z) ** 2, lo, hi, epsabs=1e-13)
    assert r_quad == pytest.approx(k.rough_K, abs=1e-12)


def test_gaussian_rough_kpp_quadrature():
    # oracle: numeric integral of the squared second derivative of phi
    val, _ = quad(lambda z: ((z * z - 1.0) * phi(z)) ** 2, -10, 10, epsabs=1e-13)
    k = kernel_props("gaussian")
    assert k.rough_Kpp == pytest.approx(val, abs=1e-12)
    assert k.rough_Kpp == pytest.approx(3.0 / (8.0 * np.sqrt(np.pi)), abs=1e-15)


def test_exact_constant_values():
    g = kernel_props("gaussian")
    assert g.sigma2_K == 1.0
    assert g.rough_K == pytest.approx(0.2820948, abs=5e-8)
    e = kernel_props("epanechnikov")
    assert e.sigma2_K == pytest.approx(0.05, abs=1e-15)
    assert e.rough_K == pytest.approx(1.2, abs=1e-15)
    assert e.rough_Kpp is None
    assert kernel_props("uniform").rough_Kpp is None


def test_eval_scaled_values():
    g = kernel_props("gaussian")
    assert eval_scaled(g, 1.0, 0.0) == pytest.approx(0.3989423, abs=5e-8)
    assert eval_scaled(g, 2.0, 0.0) == pytest.approx(0.1994711, abs=5e-8)
    assert eval_scaled(kernel_props("epanechnikov"), 1.0, 0.6) == 0.0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("h", [0.1, 1.0, 5.0])
def test_unit_mass_any_bandwidth(shape, h):
    lo, hi = SUPPORT[shape]
    val, _ = quad(lambda z: eval_scaled(kernel_props(shape), h, z), lo * h, hi * h,
                  limit=400, epsabs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_symmetry(shape):
    rng = np.random.default_rng(0)
    z = rng.uniform(-3, 3, 100)
    k = kernel_props(shape)
    np.testing.assert_array_equal(eval_scaled(k, 1.3, z), eval_scaled(k, 1.3, -z))


def test_errors():
    with pytest.raises(ValueError):
        eval_scaled(kernel_props("gaussian"), 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_scaled(kernel_props("gaussian"), -1.0, 1.0)
    with pytest.raises(ValueError):
        kernel_props("triangular")


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# one lane from each region exp_into treats apart: the vector loop's range, the
# band just below it where NumPy's SIMD exp already leaves its fast path, the
# subnormal band, the lanes np.exp rounds to 0.0, and the non-finite values
_EXP_LANES = st.one_of(
    st.floats(-700.0, 800.0),
    st.floats(-707.7, -700.0, exclude_max=True),
    st.floats(-745.2, -707.7, exclude_max=True),
    st.floats(-1e308, -746.0),
    st.sampled_from([np.inf, -np.inf, np.nan, -np.nan, -700.0, -746.0]),
)


@settings(max_examples=300, deadline=None)
@given(lanes=st.lists(_EXP_LANES, min_size=2, max_size=60),
       layout=st.sampled_from(["0-d", "1-d", "2-d", "strided", "transposed"]))
def test_exp_into_is_np_exp_bit_for_bit(lanes, layout):
    base = a = np.array(lanes)
    if layout == "0-d":
        base = a = base[:1].reshape(())
    elif layout == "2-d" and base.size % 2 == 0:
        base = a = base.reshape(2, -1)
    elif layout == "strided":  # every other lane of a longer array
        base = np.repeat(base, 2)
        a = base[::2]
    elif layout == "transposed":
        base = np.tile(base, (3, 1))
        a = base.T
    assert layout not in ("strided", "transposed") or not a.flags.c_contiguous
    with np.errstate(over="ignore"):
        want = np.exp(a)
        got = exp_into(a)
    assert got is a
    assert np.array_equal(_bits(got), _bits(want))
    if layout == "strided":  # the lanes between the view's stay as they were
        assert np.array_equal(_bits(base[1::2]), _bits(np.array(lanes)))


def test_np_exp_is_zero_at_and_below_the_cut():
    # exp_into writes 0.0 for every lane at or below kernels._EXP_ZERO without
    # calling np.exp; a NumPy build whose exp is not 0.0 there must fail here
    grid = np.linspace(-1000.0, kernels._EXP_ZERO, 2_000_001)
    assert grid[-1] == kernels._EXP_ZERO
    assert np.all(np.exp(grid) == 0.0)


@pytest.mark.parametrize("h", [1.0, 0.05, 1e-3, 1e-200])
def test_gaussian_eval_scaled_is_the_literal_expression(h):
    # +-60 bandwidths: the exponents run down to -1800, through every region
    # of exp_into, on rows and on a 2-d block
    rng = np.random.default_rng(41)
    z = h * np.concatenate([np.linspace(-60.0, 60.0, 24_001), rng.uniform(-40.0, 40.0, 999)])
    want = literal_gaussian(h, z)
    expo = -0.5 * (z / h) * (z / h)
    assert np.any((expo < -700.0) & (expo > -746.0) & (want > 0.0))  # the tiny band is hit
    assert np.array_equal(eval_scaled(G, h, z), want)
    block = z.reshape(25, 1000)
    assert np.array_equal(eval_scaled(G, h, block), want.reshape(25, 1000))
    out = np.empty_like(block)
    assert eval_scaled(G, h, block, out=out) is out
    assert np.array_equal(out, want.reshape(25, 1000))
    same = block.copy()
    assert eval_scaled(G, h, same, out=same) is same
    assert np.array_equal(same, out)
    # exp_into puts the band lanes back through out's flat index: a transposed
    # view, and every other column of a wider array, whose other lanes stay
    wide = np.full((25, 2000), 7.0)
    for view in (np.empty((1000, 25)).T, wide[:, ::2]):
        assert not view.flags.c_contiguous
        assert eval_scaled(G, h, block, out=view) is view
        assert np.array_equal(view, out)
    assert np.all(wide[:, 1::2] == 7.0)


@pytest.mark.parametrize("shape", ["epanechnikov", "uniform"])
def test_compact_eval_scaled_writes_out(shape):
    K = kernel_props(shape)
    z = np.linspace(-1.0, 1.0, 41).reshape(41, 1)
    out = z.copy()
    assert eval_scaled(K, 0.7, out, out=out) is out
    assert np.array_equal(out, eval_scaled(K, 0.7, z))


def test_outlier_weight_keeps_tiny_kernel_terms():
    # X = 13.4 sits where the start is about e^-90, so its 1/fbar weight is
    # about e^90 and lifts kernel terms of e^-700..e^-745 into the sum; near
    # it no other point contributes.  Zeroing the lanes below -700 would zero
    # those rows; the windowed sums weigh them before any rounding.
    data = np.append(np.random.default_rng(43).normal(0.0, 1.0, 300), 13.4)
    st0 = FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None)
    h = 0.05
    x = np.linspace(11.0, 16.0, 501)
    est = DensityEstimate(data, G, h, st0)
    den = eval_start(st0, data)
    assert 1.0 / den[-1] > np.exp(89.0)
    z = data - x[:, None]
    r_full = np.sum(literal_gaussian(h, z) / den, axis=-1) / data.size
    expo = -0.5 * (z[:, -1] / h) ** 2
    thin = (expo < -700.0) & (expo > -745.0)
    assert np.any(thin & (r_full > 0.0))
    r_hat = correction_curve(est, x).r_hat
    check_correction(est, x, r_hat)
    assert np.all(r_hat[thin] > 0.0)
    # a fresh estimate: est keeps the sums of x, and would not compute them
    assert np.array_equal(estimate_semiparametric(DensityEstimate(data, G, h, st0), x),
                          eval_start(st0, x) * r_hat)


def _full_row_log_sums(shape, h, xs, pts, col, divisor):
    """log sum_i K((x - x_i)/h) c_i / d_i over every datum, for positive c_i,
    16 points at a time."""
    logc = np.zeros(xs.size) if col is None else np.log(col)
    if divisor is not None:
        logc = logc - np.log(divisor)
    out = []
    for p in np.array_split(pts, -(-pts.size // 16)):
        z = p[:, None] - xs[None, :]
        if shape == "gaussian":
            a = literal_window_exponent(h, z) + logc
            top = a.max(axis=1)
            out.append(top + np.log(np.exp(a - top[:, None]).sum(axis=1)))
        else:
            with np.errstate(divide="ignore"):
                out.append(np.log((eval_scaled(kernel_props(shape), 1.0, z / h)
                                   * np.exp(logc)).sum(axis=1)))
    return np.concatenate(out)


@contextlib.contextmanager
def expanded_rows():
    """Yield a list that takes the number of points each window_sums call expands."""
    seen = []
    real = kernels._expanded_sums

    def spy(h, xs, pts, cols, plan, sums, memo):
        seen.append(plan[0].size)
        return real(h, xs, pts, cols, plan, sums, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_expanded_sums", spy)
        yield seen


def _direct_window_sums(*args, **kwargs):
    """window_sums with every point on the direct fill, the expansion's oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_DENSE_MIN", 2**62)
        return window_sums(*args, **kwargs)


@pytest.mark.parametrize("style", ["density", "regression"])
@pytest.mark.parametrize("shape", SHAPES)
def test_window_sums_keep_each_points_bits_and_the_full_row_sums(shape, style):
    _check_window_sums_against_full_rows(shape, style, 400, 0.05)


@pytest.mark.parametrize("style", ["density", "regression"])
def test_expanded_window_sums_keep_each_points_bits_and_the_full_row_sums(style):
    # the same check at a size where the points near the data take the
    # expansion: 2^14 data and h = 0.2, so that a window holds most of them
    with expanded_rows() as rows:
        _check_window_sums_against_full_rows("gaussian", style, 2**14, 0.2)
    assert rows and max(rows) >= 40  # of the 241 points


def _check_window_sums_against_full_rows(shape, style, n, h):
    # a density call weighs the data by 1/d_i; a regression call sums the plain
    # weights and a column of them.  Each point of a shuffled grid reaching 40
    # bandwidths past the data has the same bits alone, and its sums, with the
    # factor exp(-t0^2/2) put back in logs, are within 1e-14 of the full-row
    # sums on the log's scale
    rng = np.random.default_rng(61)
    xs = np.sort(rng.standard_normal(n))
    weights = np.exp(rng.uniform(-8.0, 8.0, n))  # widens the gaussian reach
    cols, divisor = ([None], weights) if style == "density" else ([None, weights], None)
    pts = rng.permutation(np.linspace(xs[0] - 40.0 * h, xs[-1] + 40.0 * h, 241))
    sums, t0 = window_sums(shape, h, xs, pts, cols, divisor)
    assert t0.shape == pts.shape
    for k in range(pts.size):
        alone, t0_alone = window_sums(shape, h, xs, pts[k:k + 1], cols, divisor)
        assert t0_alone[0] == t0[k]
        assert all(a[0] == s[k] for a, s in zip(alone, sums))
    for col, s in zip(cols, sums):
        want = _full_row_log_sums(shape, h, xs, pts, col, divisor)
        with np.errstate(divide="ignore"):
            got = np.log(s) - 0.5 * t0 * t0
        live = want > -np.inf
        assert np.array_equal(got > -np.inf, live)
        got, want = got[live], want[live]
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    if shape != "gaussian":
        assert np.all(t0 == 0.0)
    else:  # the form measured from x0 takes over short of 40 bandwidths out
        assert t0[np.argmax(pts)] > 0.0 and t0[np.argmin(pts)] < 0.0


def test_the_expansion_takes_p_terms_from_its_stated_bound():
    # |S r_i| <= 1 within the reach: the terms left out weigh below e^2/P! of
    # each datum's own term, under 2^-60 at P = 21 and not at 20; Horner's
    # cancellation factor e^{|S| W} is e^2 at the reach's edge
    P = kernels._TERMS
    assert P == 21
    assert np.e**2 / math.factorial(P) < 2.0**-60 <= np.e**2 / math.factorial(P - 1)
    # with the chunks' rounding, |S r_i| <= q = 1 + 2^-5: still under 2^-60
    q = 1.0 + 2.0**-5
    assert np.exp(2.0 * q) * q**P / math.factorial(P) < 2.0**-60
    assert kernels._CHUNK_REACH * kernels._CHUNK / 2.0 == 1.0
    # the reach covers the gaussian reach up to n = 1e8, a chunk's half width beyond
    assert kernels._gauss_reach(10**8) < kernels._CHUNK_REACH - kernels._CHUNK / 2.0


_N_DENSE = 2**14


@settings(max_examples=40, deadline=None)
@given(style=st.sampled_from(["clipped", "unclipped", "plain", "regression"]),
       c=st.sampled_from([1e-6, 1.0, 1e6]), h=st.floats(0.1, 1.0),
       shift=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1),
       past=st.floats(0.0, 1.5))
def test_expanded_sums_are_the_direct_sums(style, c, h, shift, seed, past):
    # 2^14 data mapped by c z + b, |b| up to 1e3 times their spread, weighed
    # by a fitted normal start's 1/fbar, clipped or not, by nothing, or by a
    # regression's signed columns; points at data and just past both ends.
    # The expanded sums are within 1e-14 of the direct fill's: relative for
    # positive weights, and on the scale of the terms' magnitudes, the direct
    # sum of |column| weights, for a signed one
    rng = np.random.default_rng(seed)
    z = np.sort(rng.standard_normal(_N_DENSE))
    xs = c * z + shift * c * float(np.ptp(z))
    h *= c
    cols, divisor = [None], None
    if style in ("clipped", "unclipped"):
        start = fit_start("normal", xs)
        divisor = eval_start(start if style == "clipped" else start.unclipped(), xs)
    elif style == "regression":
        y = np.sin(3.0 * z) + 0.3 * rng.standard_normal(xs.size)
        cols = [None, y, y / (1.5 + z)]
    pts = np.concatenate([xs[rng.integers(0, xs.size, 24)],
                          [xs[0] - past * h, xs[-1] + past * h]])
    with expanded_rows() as rows:
        got, t0 = window_sums("gaussian", h, xs, pts, cols, divisor)
    assert rows and rows[0] >= 6  # of the 24 points at data
    want, t0_direct = _direct_window_sums("gaussian", h, xs, pts, cols, divisor)
    assert np.array_equal(t0, t0_direct)
    for col, g, w in zip(cols, got, want):
        if col is None:
            scale = w
        else:
            scale = _direct_window_sums("gaussian", h, xs, pts, [np.abs(col)], divisor)[0][0]
        assert np.all(np.abs(g - w) <= 1e-14 * scale)


def test_data_too_far_from_zero_next_to_h_sum_directly():
    # chunks are counted in floating point: from 2^44 chunk widths h/8 out,
    # |x| >= 2^41 h, the chunk indices and centres could round by a sizable
    # part of a chunk, and every point sums directly.  Just inside, the
    # points expand and keep their digits
    z = np.sort(np.random.default_rng(66).standard_normal(_N_DENSE))
    h = 0.25
    pts = np.linspace(-1.5, 1.5, 7)
    for b, expands in ((2.0**41 * h, False), (2.0**40 * h, True)):
        xs = z + b
        with expanded_rows() as rows:
            got, _ = window_sums("gaussian", h, xs, pts + b, [None])
        assert rows == ([pts.size] if expands else [])
        want, _ = _direct_window_sums("gaussian", h, xs, pts + b, [None])
        assert np.all(np.abs(got[0] - want[0]) <= 1e-14 * want[0])


@contextlib.contextmanager
def found_chunks():
    """Yield a list that takes the number of chunks whose moments each call finds."""
    seen = []
    real = kernels._chunk_moments

    def spy(h, xs, cols, recip, chunks, lo, hi):
        seen.append(hi - lo)
        return real(h, xs, cols, recip, chunks, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_chunk_moments", spy)
        yield seen


def test_a_fit_keeps_the_moments_its_calls_find():
    # a fit pays each chunk's moments once: points evaluated one at a time
    # find the moments of their chunks that earlier points lacked, and a grid
    # over the same range then finds none, and takes the weights 1/fbar and
    # the chunks from the memo too.  Every value has the bits of a fresh
    # fit's, whichever call found the moments
    x = np.random.default_rng(67).standard_normal(50_000)
    y = 1.0 + x * x
    h = 1.06 * x.size**-0.2
    K = kernel_props("gaussian")
    start = fit_start("normal", x)
    grid = np.linspace(-2.0, 2.0, 21)
    for fresh, value in ((lambda: DensityEstimate(x, K, h, start), estimate_semiparametric),
                         (lambda: RegressionFit.fit(x, y, K, h), gnw_estimate)):
        alone = np.array([value(fresh(), float(t)) for t in grid])
        fit = fresh()
        with found_chunks() as found:
            one_by_one = np.array([value(fit, float(t)) for t in grid[::-1]])[::-1]
        assert max(found) > 0 and sum(found) == fit._memo[0].moments.shape[2]
        with found_chunks() as found, pytest.MonkeyPatch.context() as mp:
            for kept in ("_reciprocals", "_chunked"):
                mp.setattr(kernels, kept, lambda *args: pytest.fail("not kept"))
            on_a_grid = value(fit, grid)
        assert sum(found) == 0
        assert np.array_equal(one_by_one, alone) and np.array_equal(on_a_grid, alone)


def test_the_expansion_keeps_its_digits_where_far_chunks_weigh_most():
    # 2^14 data spread over 12 bandwidths and weighed by e^(6 x/h): at x = 0
    # the terms peak six bandwidths out, at e^18 times the nearest datum's,
    # where |S r_i| reaches 3/8; ten terms would miss there by about 3e-11
    h = 0.25
    xs = np.linspace(0.0, 12.0 * h, 2**14)
    divisor = np.exp(-6.0 * xs / h)
    pts = np.array([0.0, 0.5 * h, 3.0 * h, 6.0 * h, 12.0 * h])
    with expanded_rows() as rows:
        got, _ = window_sums("gaussian", h, xs, pts, [None], divisor)
    assert rows == [pts.size]
    want, _ = _direct_window_sums("gaussian", h, xs, pts, [None], divisor)
    assert np.all(np.abs(got[0] - want[0]) <= 1e-14 * want[0])


@settings(max_examples=6, deadline=None)
@given(u=st.floats(-2.5, 2.5), which=st.sampled_from(["density", "regression"]))
def test_expanded_sums_meet_a_40_digit_sum(u, which):
    # 2^13 + 1000 standard normal data at h = 0.5: every point takes the
    # expansion, and meets the mpmath sum of its terms within 1e-14, of log
    # rhat for the density and of the terms' scale for the smoother
    rng = np.random.default_rng(64)
    x = rng.standard_normal(2**13 + 1000)
    pts = np.array([u, x[np.argmin(np.abs(x - u))]])
    with expanded_rows() as rows:
        if which == "density":
            est = DensityEstimate(x, kernel_props("gaussian"), 0.5, fit_start("normal", x))
            got = correction_curve(est, pts).log_r
        else:
            fit = RegressionFit.fit(x, np.sin(2.0 * x) + 0.5 * x, kernel_props("gaussian"), 0.5)
            got = gnw_estimate(fit, pts)
    assert rows == [2]
    if which == "density":
        want = mp_log_correction(est, pts)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    else:
        want, scale, _ = mp_gnw(fit, pts)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("shape", SHAPES)
def test_a_dense_fit_takes_the_expansion_and_a_sparse_one_does_not(shape):
    # at n = 5e4 the gaussian density and smoother expand the grid points
    # within one bandwidth of the data and with 2^13 data in their window; at
    # n = 1000 no window holds that many, and a compact kernel never expands
    K = kernel_props(shape)
    grid = np.linspace(-2.0, 2.0, 161)
    for n in (1000, 50_000):
        x = np.random.default_rng(65).standard_normal(n)
        h = 1.06 * n**-0.2
        with expanded_rows() as rows:
            estimate_semiparametric(DensityEstimate(x, K, h, fit_start("normal", x)), grid)
            gnw_estimate(RegressionFit.fit(x, 1.0 + x * x, K, h), grid)
        if shape != "gaussian" or n == 1000:
            assert rows == []
        else:
            assert rows == [161, 161]


@pytest.mark.parametrize("shape", SHAPES)
def test_only_the_weights_own_sums_take_the_squares_past_one_bandwidth(shape):
    # five bandwidths past the data, the gaussian weights' own sums (a
    # density call) keep the form of squares, t0 = 0.0, while sums with a
    # column (a regression call, whose ratio cancels exp(-t0^2/2)) measure
    # their weights from the nearest datum; a compact kernel's t0 is 0.0
    rng = np.random.default_rng(62)
    h = 0.1
    xs = np.sort(rng.uniform(0.0, 1.0, 300))
    ys = 1.0 + xs + rng.normal(0.0, 0.2, 300)
    pts = np.array([xs[0] - 5.0 * h, xs[-1] + 5.0 * h])
    _, plain = window_sums(shape, h, xs, pts, [None])
    _, weighted = window_sums(shape, h, xs, pts, [None, ys])
    assert np.array_equal(plain, [0.0, 0.0])
    if shape == "gaussian":
        assert list(weighted) == pytest.approx([-5.0, 5.0], rel=1e-12)
    else:
        assert np.array_equal(weighted, [0.0, 0.0])


@pytest.mark.parametrize("shape", SHAPES)
def test_a_point_where_every_offset_overflows_warns_of_nothing(shape):
    # (x - x0)/h overflows to -inf at x = -1e308: the sums are empty and t0^2
    # is inf, with no warning.  f_hat is 0.0, log r_hat is -inf, and neither
    # smoother finds local data
    K = kernel_props(shape)
    rng = np.random.default_rng(63)
    x = rng.standard_normal(200)
    pts = np.array([-1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = DensityEstimate(x, K, 0.3, fit_start("normal", x))
        assert estimate_semiparametric(est, pts[0]) == 0.0
        cur = correction_curve(DensityEstimate(x, K, 0.3, fit_start("normal", x)), pts)
        assert cur.r_hat[0] == 0.0 and cur.log_r[0] == -np.inf and np.isfinite(cur.log_r[1])
        fit = RegressionFit.fit(x, 2.0 + x, K, 0.3)
        for smoother in (gnw_estimate, nw_estimate):
            with pytest.raises(ValueError, match="no local data"):
                smoother(fit, pts)


G = kernel_props("gaussian")
_X = np.linspace(-2.0, 2.0, 20)
_FLAT = FittedStart("constant")
BANDWIDTH_USERS = {
    "eval_scaled": lambda h: eval_scaled(G, h, _X),
    "DensityEstimate": lambda h: DensityEstimate(_X, G, h, _FLAT),
    "RegressionFit": lambda h: RegressionFit.fit(_X, _X**2, G, h),
    "MvEstimate": lambda h: MvEstimate.fit(np.column_stack([_X, np.sin(_X)]), h),
    "plugin_roughness": lambda h: plugin_roughness(_X, _FLAT, G, h),
    "bcv": lambda h: bcv(_X, _FLAT, G, [0.3, h]),
    "ucv": lambda h: ucv(_X, _FLAT, G, [0.3, h]),
    "mise_kernel": lambda h: mise_kernel(marron_wand(1), h, 50),
    "mise_new": lambda h: mise_new(marron_wand(1), 0.0, 1.0, h, 50),
}


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1e-310])
@pytest.mark.parametrize("user", sorted(BANDWIDTH_USERS))
def test_every_bandwidth_must_be_finite_and_positive(user, h):
    # a subnormal h is positive, but 1/h overflows: the message names the bound
    message = ("^bandwidth h must be at least 2.2250738585072014e-308, the smallest normal "
               "float: 1/h overflows below it$" if 0.0 < h < 1.0
               else "^bandwidth h must be finite and positive$")
    with pytest.raises(ValueError, match=message):
        BANDWIDTH_USERS[user](h)
    BANDWIDTH_USERS[user](0.5)


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("rows, cols", [
    # the geometry at four block threads, 2^15 elements per block
    (0, 10),                  # no block: fill is never called
    (1, 10),                  # one block
    (1000, 1000),             # 31 blocks of 32 rows and one of 8
    (7, 2**15 + 1),           # one row per block (three at one CPU)
    (1029, 2**9),             # four blocks per block thread and a partial one
])
def test_for_blocks_visits_every_block_once(rows, cols, cpus, machine):
    machine(cpus)
    lock = threading.Lock()
    seen, threads, in_flight, peak = [], set(), [0], [0]

    def fill(block):
        with lock:
            seen.append(block)
            threads.add(threading.get_ident())
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        time.sleep(1e-4)  # let the threads overlap
        with lock:
            in_flight[0] -= 1

    for_blocks(rows, cols, fill)
    want = list(row_blocks(rows, cols, min(cpus, MAX_BLOCK_THREADS)))
    assert sorted(seen, key=lambda b: b.start) == want
    # the working memory is at most MAX_BLOCK_THREADS blocks, whatever the CPU count
    assert len(threads) <= min(cpus, MAX_BLOCK_THREADS)
    assert peak[0] <= min(cpus, MAX_BLOCK_THREADS)
    if cpus == 1 or len(seen) <= 1:
        assert threads <= {threading.get_ident()}
        assert kernels._pool is None


@pytest.mark.parametrize("cpus, block", [
    (1, 2**17), (2, 2**16), (3, 43690), (4, 2**15), (8, 2**15), (64, 2**15)])
def test_blocks_in_flight_hold_at_most_two_to_the_17_elements(cpus, block):
    # one block per block thread is in flight: together they hold at most
    # 2^17 elements, or one row each where a row alone is longer.  From four
    # usable CPUs on the block is 2^15 elements, as with four threads before
    assert kernels.BLOCK_ELEMENTS == 2**17
    threads = min(cpus, MAX_BLOCK_THREADS)
    assert max(b.stop - b.start for b in row_blocks(3 * 2**17, 1, threads)) == block
    for cols in (1, 7, 1000, 2**9 + 3, 2**15, 2**15 + 1, 2**17, 2**17 + 1, 10**6):
        rows = max(b.stop - b.start for b in row_blocks(3 * 2**17, cols, threads))
        assert rows == 1 or threads * rows * cols <= kernels.BLOCK_ELEMENTS


@pytest.mark.parametrize("block, most", [(2**17, 1), (2**16, 2), (43690, 3), (2**15, 4)])
def test_blocks_in_flight_keep_the_budget_when_more_cpus_come_later(block, most, machine):
    # blocks were once sized at import from the CPUs the process could use
    # then, so a process whose affinity widened later ran more threads than
    # its blocks were split for.  for_blocks now reads the CPU count once per
    # call and sizes its blocks from that same count: a call on `most` CPUs
    # runs blocks of at most `block` elements on at most `most` threads, and a
    # later call on eight CPUs blocks of 2^15 on four, each within BLOCK_ELEMENTS
    cols = 2**10
    lock = threading.Lock()
    in_flight, peak, largest, threads = [0], [0], [0], set()

    def fill(rows):
        size = (rows.stop - rows.start) * cols
        with lock:
            in_flight[0] += size
            peak[0] = max(peak[0], in_flight[0])
            largest[0] = max(largest[0], size)
            threads.add(threading.get_ident())
        time.sleep(2e-3)  # let the threads overlap
        with lock:
            in_flight[0] -= size

    for cpus, size, at_most in ((most, block, most), (8, 2**15, 4)):
        machine(cpus)
        peak[0], largest[0] = 0, 0
        threads.clear()
        for_blocks(400, cols, fill)
        assert largest[0] <= size
        assert peak[0] <= kernels.BLOCK_ELEMENTS
        assert len(threads) <= at_most
    assert len(threads) > 1  # the later call does run on several threads


def test_a_later_call_on_more_cpus_runs_as_many_blocks_at_once(machine, monkeypatch):
    # the pool is built once, by a first call on two CPUs; a later call on
    # eight splits its blocks for four threads and must run four at once.
    # Each thread's first block waits, at most 10 s, for the other three
    machine(2)
    first = set()
    for_blocks(1000, 1000, lambda rows: first.add(threading.current_thread().name))
    assert 1 <= len(first) <= 2
    monkeypatch.setattr(kernels, "_worker_count", lambda: 8)
    ready = threading.Barrier(MAX_BLOCK_THREADS)
    lock = threading.Lock()
    names, stuck = set(), []

    def fill(rows):
        name = threading.current_thread().name
        with lock:
            new = name not in names
            names.add(name)
        if new:
            try:
                ready.wait(timeout=10)
            except threading.BrokenBarrierError:
                stuck.append(name)

    for_blocks(1000, 1000, fill)
    assert not stuck
    assert len(names) == MAX_BLOCK_THREADS
    assert all(name.startswith("semistart") for name in names)


def test_for_blocks_raises_the_fills_exception_and_keeps_working(machine):
    machine(8)  # four block threads: a block of 32 rows at row 64
    out = np.zeros(1000)

    def failing(block):
        if block.start == 64:
            raise KeyError("block at row 64")
        out[block] = 1.0

    with pytest.raises(KeyError, match="block at row 64"):
        for_blocks(out.size, 1000, failing)
    assert np.all(out[64:96] == 0.0)

    def fill(block):
        out[block] = 2.0

    for_blocks(out.size, 1000, fill)
    assert np.all(out == 2.0)


def test_for_blocks_fills_keep_the_callers_error_state(machine):
    machine(8)  # four block threads

    def fill(block):
        np.exp(np.full(block.stop - block.start, 1000.0))  # overflows

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        for_blocks(1000, 1000, fill)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for_blocks(1000, 1000, fill)
    assert kernels._pool is not None  # the fills ran on the pool


def test_concurrent_callers_share_one_pool(monkeypatch):
    monkeypatch.setattr(kernels, "_worker_count", lambda: 2)
    made = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    rows, rounds = 2 * 128 + 5, 20  # two blocks of 128 rows and one of 5
    outs = [np.zeros(rows) for _ in range(8)]

    def caller(out, ready):
        def fill(block):
            out[block] += 1.0

        ready.wait(timeout=60)
        for_blocks(rows, 2**9, fill)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            monkeypatch.setattr(kernels, "_pool", None)  # the callers race to create it
            ready = threading.Barrier(len(outs))
            threads = [threading.Thread(target=caller, args=(out, ready)) for out in outs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown(wait=False)
    assert len(made) == rounds  # one pool per round
    assert all(np.all(out == rounds) for out in outs)  # each block once per call


_FORK_DATA = np.random.default_rng(5).normal(0.0, 1.0, (1000, 2))
# two blocks on two CPUs, 65 rows and 36
_FORK_GRID = np.random.default_rng(6).normal(0.0, 1.0, (101, 2))


def _estimate_in_child(conn):
    conn.send(mv_estimate(MvEstimate.fit(_FORK_DATA, 0.3), _FORK_GRID).tobytes())
    conn.close()


def test_a_forked_child_runs_block_sums(machine):
    # the parent's pool is running: a child forked now has none of its
    # worker threads and must build its own, or wait forever on the first sum
    machine(2)
    want = mv_estimate(MvEstimate.fit(_FORK_DATA, 0.3), _FORK_GRID).tobytes()
    assert kernels._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_estimate_in_child, args=(send,))
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a multi-threaded process may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        child.join(timeout=30)
        assert child.exitcode == 0, "the forked child hung or failed"
        assert recv.recv() == want
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        recv.close()
