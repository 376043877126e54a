import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistart import starts
from semistart.densities import NormalMixture, marron_wand, mixture_sample
from semistart.special import gamma_quantile, ndtr
from semistart.starts import (FittedStart, _clip_edges, _em_once, em_fit_mixture, eval_start,
                              fit_start)

from conftest import literal_em, phi, quantile_miss


def test_fit_normal_two_points():
    s = fit_start("normal", [-1.0, 1.0])
    assert s.params["mu"] == 0.0
    assert s.params["sd"] == 1.0  # maximum-likelihood scale


def test_fit_gamma_moment_identities():
    s = fit_start("gamma", [1.0, 1.0, 3.0, 3.0])  # mean 2, ml-variance 1
    assert s.params["alpha"] == pytest.approx(4.0, abs=1e-12)
    assert s.params["beta"] == pytest.approx(2.0, abs=1e-12)


def test_fit_lognormal_log_scale():
    s = fit_start("lognormal", [np.exp(-1.0), np.exp(1.0)])
    assert s.params["mu"] == pytest.approx(0.0, abs=1e-15)
    assert s.params["sd"] == pytest.approx(1.0, abs=1e-15)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_start("normal", [1.0])
    with pytest.raises(ValueError):
        fit_start("gamma", [-1.0, 2.0])
    with pytest.raises(ValueError):
        fit_start("lognormal", [0.0, 2.0])
    with pytest.raises(ValueError):
        fit_start("normal", [2.0, 2.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_data_naming_the_index(bad):
    x = [1.0, 2.0, 0.5, bad, 3.0, np.nan]
    for fit in (lambda: fit_start("normal", x), lambda: fit_start("gamma", x),
                lambda: em_fit_mixture(x * 10, k=1, seed=0)):
        with pytest.raises(ValueError, match=r"index 3 is not finite \(-?(nan|inf)\)"):
            fit()


def test_fit_normal_equivariance():
    rng = np.random.default_rng(0)
    x = rng.normal(1.3, 0.7, 200)
    base = fit_start("normal", x)
    for c, b in [(2.5, -1.0), (-0.6, 4.0)]:
        s = fit_start("normal", c * x + b)
        assert s.params["mu"] == pytest.approx(c * base.params["mu"] + b, rel=1e-12)
        assert s.params["sd"] == pytest.approx(abs(c) * base.params["sd"], rel=1e-12)


def test_eval_start_values_and_clip():
    s = FittedStart("normal", {"mu": 0.0, "sd": 1.0})
    assert eval_start(s, 0.0) == pytest.approx(0.3989423, abs=5e-8)
    # outside the 2.5-sigma region the density is pinned at the edge value
    assert eval_start(s, 4.0) == pytest.approx(0.0175283, abs=5e-8)
    assert eval_start(s, 4.0) == pytest.approx(float(phi(2.5)), abs=1e-12)
    assert eval_start(FittedStart("constant"), 123.4) == 1.0
    raw = FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=None)
    assert eval_start(raw, 4.0) == pytest.approx(float(phi(4.0)), abs=1e-15)


@pytest.mark.parametrize("clip", [np.nan, 0.0, -1.0, -np.inf])
def test_a_nan_or_nonpositive_clip_is_rejected(clip):
    # a NaN clip fails clip <= 0 too: it once made the floor (nan, nan, nan,
    # nan) and left every estimate unclipped.  An infinite clip clips nothing
    for family, params in (("normal", {"mu": 0.0, "sd": 1.0}), ("constant", {})):
        with pytest.raises(ValueError, match="^clip threshold must be positive$"):
            FittedStart(family, params, clip=clip)
    s = FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=np.inf)
    x = np.linspace(-6.0, 6.0, 13)
    assert np.array_equal(eval_start(s, x), eval_start(s.unclipped(), x))


def test_clip_continuity_and_floor():
    for s in (FittedStart("normal", {"mu": 0.3, "sd": 1.4}),
              FittedStart("lognormal", {"mu": 0.1, "sd": 0.6}),
              FittedStart("gamma", {"alpha": 3.0, "beta": 1.5})):
        if s.family == "normal":
            mu, sd = s.params["mu"], s.params["sd"]
            grid = np.linspace(mu - 10 * sd, mu + 10 * sd, 20001)
        else:
            grid = np.linspace(-1.0, 25.0, 20001)
        vals = eval_start(s, grid)
        assert np.all(vals > 0.0)
        # no jump anywhere: steps shrink with the grid spacing
        assert np.max(np.abs(np.diff(vals))) < 0.01


def test_em_single_component_matches_normal_fit():
    x = mixture_sample(NormalMixture(weights=[1.0], means=[0.0], sds=[1.0]), 500, seed=21)
    em = em_fit_mixture(x, k=1, seed=0)
    mx = em.params["mixture"]
    normal = fit_start("normal", x)
    assert mx.means[0] == pytest.approx(normal.params["mu"], abs=1e-9)
    assert mx.sds[0] == pytest.approx(normal.params["sd"], abs=1e-9)


def test_em_separated_bimodal():
    truth = NormalMixture(weights=[0.5, 0.5], means=[-5.0, 5.0], sds=[1.0, 1.0])
    for seed in range(20):
        x = mixture_sample(truth, 1000, seed=100 + seed)
        em = em_fit_mixture(x, k=2, seed=seed)
        means = np.sort(em.params["mixture"].means)
        assert abs(means[0] + 5.0) < 0.2
        assert abs(means[1] - 5.0) < 0.2


def test_em_deterministic_and_validated():
    x = mixture_sample(NormalMixture(weights=[0.5, 0.5], means=[-2.0, 2.0],
                                     sds=[1.0, 1.0]), 200, seed=5)
    a = em_fit_mixture(x, k=2, seed=9)
    b = em_fit_mixture(x, k=2, seed=9)
    np.testing.assert_array_equal(a.params["mixture"].means, b.params["mixture"].means)
    np.testing.assert_array_equal(a.params["mixture"].weights, b.params["mixture"].weights)
    with pytest.raises(ValueError):
        em_fit_mixture(x[:15], k=2, seed=0)  # fewer than 10 per component


def _bimodal_draws(input_set):
    """The benchmark's two-humped sample: 1000 draws of Marron-Wand case 6 from PCG64."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([input_set, 4])))
    idx = rng.choice(2, size=1000, p=[0.5, 0.5])
    return np.array([-1.0, 1.0])[idx] + (2.0 / 3.0) * rng.standard_normal(1000)


def _em_samples():
    """(sample, components, seed, benchmark's): the benchmark's 8 samples with
    k = 1, 2 and 3, and the samples of the EM tests above with their k."""
    out = [(_bimodal_draws(s), k, s, True) for s in range(8) for k in (1, 2, 3)]
    out.append((mixture_sample(NormalMixture(weights=[1.0], means=[0.0], sds=[1.0]), 500,
                               seed=21), 1, 0, False))
    far = NormalMixture(weights=[0.5, 0.5], means=[-5.0, 5.0], sds=[1.0, 1.0])
    out += [(mixture_sample(far, 1000, seed=100 + s), 2, s, False) for s in range(20)]
    near = NormalMixture(weights=[0.5, 0.5], means=[-2.0, 2.0], sds=[1.0, 1.0])
    out += [(mixture_sample(near, 200, seed=5), k, 9, False) for k in (2, 3)]
    return out


def test_em_once_matches_the_literal_em():
    # the in-place (k, n) rows sum in another order than the (n, k) expressions,
    # so the parameters agree to 1e-12 relative, not to the bit
    def params(mix):
        return np.concatenate([mix.weights, mix.means, mix.sds])

    for x, k, seed, benchmarks in _em_samples():
        fitted, got_decreased = _em_once(x, k, np.random.Generator(np.random.Philox(seed)))
        want, want_decreased, iterations, converged = literal_em(
            x, k, np.random.Generator(np.random.Philox(seed)))
        assert got_decreased == want_decreased
        assert (fitted is None) == (want is None)
        if want is None:
            continue
        got = fitted["mixture"]
        assert fitted["iterations"] == iterations
        assert fitted["converged"] == converged
        scale = np.abs(params(want))
        assert np.all(np.abs(params(got) - params(want)) <= 1e-12 * scale), (k, seed)
        if benchmarks and k > 1:
            # the benchmark's samples converge slowly: one iteration fewer moves
            # the parameters by more than the bound, so it pins the iteration count
            early, *_ = literal_em(x, k, np.random.Generator(np.random.Philox(seed)),
                                   max_iter=iterations - 1)
            assert np.any(np.abs(params(got) - params(early)) > 1e-12 * scale), (k, seed)


@pytest.mark.parametrize("k, converged", [(2, True), (3, False)])
def test_em_reports_its_iterations_and_convergence(k, converged):
    # the benchmark's bimodal set 0 meets EM_TOL with two components; with
    # three, every run stops at EM_MAX_ITER still moving its parameters
    start = em_fit_mixture(_bimodal_draws(0), k=k, seed=0)
    assert start.params["converged"] is converged
    if converged:
        assert 1 < start.params["iterations"] < starts.EM_MAX_ITER
    else:
        assert start.params["iterations"] == starts.EM_MAX_ITER


def test_mixture_clip_edges_use_the_mixture_moments():
    # the edges equal the inline moment formula they replaced, bit for bit
    for case in range(1, 16):
        mx = marron_wand(case)
        mu0 = float(np.sum(mx.weights * mx.means))
        sd0 = float(np.sqrt(np.sum(mx.weights * (mx.sds**2 + (mx.means - mu0) ** 2))))
        s = FittedStart("normal_mixture", {"mixture": mx})
        assert _clip_edges(s) == (mu0 - 2.5 * sd0, mu0 + 2.5 * sd0)


def _one_point_starts():
    mix = NormalMixture(weights=[0.3, 0.7], means=[-1.0, 2.0], sds=[0.5, 1.0])
    fitted = [FittedStart("constant"),
              FittedStart("normal", {"mu": 0.3, "sd": 1.4}),
              FittedStart("lognormal", {"mu": 0.1, "sd": 0.6}),
              FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}),
              FittedStart("normal_mixture", {"mixture": mix})]
    return fitted + [s.unclipped() for s in fitted]


@pytest.mark.parametrize("s", _one_point_starts(),
                         ids=lambda s: f"{s.family}-{'clip' if s.clip else 'raw'}")
def test_one_point_eval_start_is_bit_identical(s):
    # x <= 0, the central region and beyond both clip edges
    ts = np.linspace(-8.0, 30.0, 20001)
    if s.clip is not None and s.family != "constant":
        lo, hi = _clip_edges(s)
        assert ts[0] < lo < hi < ts[-1]
        ts = np.concatenate([ts, [0.0, lo, hi]])
    want = eval_start(s, ts)
    got = [eval_start(s, float(t)) for t in ts]
    assert all(type(g) is float for g in got)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("s", _one_point_starts(),
                         ids=lambda s: f"{s.family}-{'clip' if s.clip else 'raw'}")
def test_floor_is_built_with_the_start(s):
    if s.clip is None or s.family == "constant":
        assert s.floor is None
        return
    lo, hi = _clip_edges(s)
    assert s.floor == (lo, hi, eval_start(s.unclipped(), lo), eval_start(s.unclipped(), hi))
    assert s.unclipped().floor is None
    assert FittedStart(s.family, s.params, clip=1.0).floor[0] > lo


def test_clip_edges_are_computed_once_per_start(monkeypatch):
    calls = []
    quantile = starts.gamma_quantile

    def counted(*args, **kwargs):
        calls.append(args)
        return quantile(*args, **kwargs)

    monkeypatch.setattr(starts, "gamma_quantile", counted)
    s = FittedStart("gamma", {"alpha": 3.0, "beta": 1.5})
    first = [eval_start(s, t) for t in (0.5, 2.0, 9.0)]
    grid = eval_start(s, np.array([0.5, 2.0, 9.0]))
    assert len(calls) == 2  # the two quantiles, on the first call only
    assert np.array_equal(first, grid)
    eval_start(s.unclipped(), 2.0)
    eval_start(FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}), 2.0)
    assert len(calls) == 4  # a new start computes its own edges


@pytest.mark.parametrize("clip", [0.5, 1.0, 2.5, 4.0])
def test_gamma_clip_edges_hold_the_normal_tail_mass(clip):
    # the lower edge has lower tail mass Phi(-c), the upper edge upper tail
    # mass Phi(-c), each within a few rounding errors of the fitted gamma
    p = ndtr(-clip)
    for alpha in (0.3, 1.0, 2.7, 15.0, 400.0):
        lo, hi = gamma_quantile(alpha, p), gamma_quantile(alpha, p, upper=True)
        assert quantile_miss(alpha, p, lo, upper=False) <= 1.0
        assert quantile_miss(alpha, p, hi, upper=True) <= 1.0
        for beta in (0.01, 0.5, 1.0, 3.0, 250.0):
            s = FittedStart("gamma", {"alpha": alpha, "beta": beta}, clip=clip)
            assert _clip_edges(s) == (lo * (1.0 / beta), hi * (1.0 / beta))


def test_gamma_floor_is_finite_at_a_wide_clip():
    # 1 - Phi(-9) rounds to 1, so an upper edge from P = 1 - Phi(-c) was inf
    s = FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}, clip=9.0)
    assert np.all(np.isfinite(s.floor)) and 0.0 < s.floor[0] < s.floor[1]


def test_gamma_start_rejects_a_clip_whose_tail_mass_underflows():
    # Phi(-37.6) is subnormal and its edges finite; Phi(-37.7) is 0, which
    # would put the upper edge at inf and the density there at nan
    s = FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}, clip=37.6)
    assert ndtr(-37.6) > 0.0 and np.all(np.isfinite(s.floor))
    for clip in (37.7, 38.0, 1e6):
        with pytest.raises(ValueError, match=rf"^clip {clip} is too large for the gamma start: "
                                             r"its tail mass Phi\(-clip\) underflows to 0"):
            FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}, clip=clip)
    # the other families' edges are mu -/+ clip sd, finite at any finite clip
    assert np.all(np.isfinite(FittedStart("normal", {"mu": 0.0, "sd": 1.0}, clip=38.0).floor))


def _gamma_sample(shape, n, seed):
    return np.random.default_rng(seed).gamma(shape, 1.0, n)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 50.0), st.integers(10, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 1e6]))
def test_gamma_clip_edges_scale_with_the_data(shape, n, seed, scale):
    x = _gamma_sample(shape, n, seed)
    lo, hi = fit_start("gamma", x).floor[:2]
    lo_c, hi_c = fit_start("gamma", scale * x).floor[:2]
    assert lo_c == pytest.approx(scale * lo, rel=1e-13, abs=0)
    assert hi_c == pytest.approx(scale * hi, rel=1e-13, abs=0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 50.0), st.integers(10, 300), st.integers(0, 2**32 - 1))
def test_gamma_clip_edges_ignore_the_data_order(shape, n, seed):
    x = _gamma_sample(shape, n, seed)
    lo, hi = fit_start("gamma", x).floor[:2]
    lo_p, hi_p = fit_start("gamma", np.random.default_rng(seed + 1).permutation(x)).floor[:2]
    assert lo_p == pytest.approx(lo, rel=1e-13, abs=0)
    assert hi_p == pytest.approx(hi, rel=1e-13, abs=0)


def test_gamma_log_density_keeps_its_digits_at_large_shape():
    # 500 points at 1000 (1 + cv N(0, 1)) with cv = 1e-5, so alpha is about 1e10
    x = 1000.0 * (1.0 + 1e-5 * np.random.default_rng(8).standard_normal(500))
    s = fit_start("gamma", x).unclipped()
    a, b = s.params["alpha"], s.params["beta"]
    got = eval_start(s, x)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(a * mpmath.log(b) + (a - 1) * mpmath.log(v)
                                          - b * mpmath.mpf(v) - mpmath.loggamma(a)))
                         for v in x.tolist()])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 40.0])
def test_gamma_density_matches_mpmath_from_subnormal_to_overflowing_points(alpha):
    # shapes on both sides of a = 1; points from a subnormal x, where b x keeps
    # few digits, through both sides of the mean to an x where b x overflows,
    # whose density is 0.0 with no warning
    beta = 1.5
    s = FittedStart("gamma", {"alpha": alpha, "beta": beta}, clip=None)
    mean = alpha / beta
    x = np.array([1e-320, 1e-300, 1e-8, 0.1, 0.5 * mean, mean, 1.5 * mean, 4.0 * mean + 5.0,
                  300.0, 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_start(s, x)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        want = np.array([float(mpmath.exp(a * mpmath.log(b) + (a - 1) * mpmath.log(v) - b * v
                                          - mpmath.loggamma(a)))
                         for v in map(mpmath.mpf, x.tolist())])
    assert want[-1] == 0.0
    # log f sums terms up to |log x| ~ 737 in size, a few roundings of each
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
