import numpy as np
import pytest
from scipy import stats

from semistart.densities import NormalMixture, marron_wand, mixture_sample
from semistart.starts import (FittedStart, _clip_edges, em_fit_mixture, eval_start,
                              fit_start, score)

from conftest import phi


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


def test_score_normal_values():
    s = FittedStart("normal", {"mu": 0.0, "sd": 1.0})
    np.testing.assert_allclose(score(s, np.array(1.0)), [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(score(s, np.array(0.0)), [0.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("start", [
    FittedStart("normal", {"mu": 0.4, "sd": 1.2}),
    FittedStart("lognormal", {"mu": 0.2, "sd": 0.5}),
    FittedStart("gamma", {"alpha": 2.5, "beta": 1.3}),
])
def test_score_finite_difference_oracle(start):
    xs = np.array([0.8, 1.7, 3.1])
    grads = score(start, xs)
    names = list(start.params)
    eps = 1e-6
    for i, name in enumerate(names):
        up = dict(start.params); up[name] += eps
        dn = dict(start.params); dn[name] -= eps
        s_up = FittedStart(start.family, up, clip=None)
        s_dn = FittedStart(start.family, dn, clip=None)
        fd = (np.log(eval_start(s_up, xs)) - np.log(eval_start(s_dn, xs))) / (2 * eps)
        np.testing.assert_allclose(grads[:, i], fd, atol=1e-6)


def test_score_mixture_responsibilities():
    mix = NormalMixture(weights=[0.4, 0.6], means=[-1.0, 2.0], sds=[0.8, 1.1])
    s = FittedStart("normal_mixture", {"mixture": mix})
    xs = np.array([0.3, 1.5])
    g = score(s, xs)
    eps = 1e-6
    # finite differences in one mean and one scale
    for idx, (field, comp) in enumerate([("means", 0), ("sds", 1)]):
        def shifted(sign):
            kw = {"weights": mix.weights.copy(), "means": mix.means.copy(),
                  "sds": mix.sds.copy()}
            kw[field] = kw[field].copy()
            kw[field][comp] += sign * eps
            alt = NormalMixture(weights=kw["weights"], means=kw["means"], sds=kw["sds"])
            return np.log(eval_start(FittedStart("normal_mixture", {"mixture": alt},
                                                 clip=None), xs))
        fd = (shifted(+1) - shifted(-1)) / (2 * eps)
        col = 2 + comp if field == "means" else 4 + comp
        np.testing.assert_allclose(g[:, col], fd, atol=1e-6)
    with pytest.raises(ValueError):
        score(FittedStart("constant"), 1.0)


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
    import scipy.special

    calls = []
    inv = scipy.special.gammaincinv

    def counted(*args, **kwargs):
        calls.append(args)
        return inv(*args, **kwargs)

    monkeypatch.setattr(scipy.special, "gammaincinv", counted)
    s = FittedStart("gamma", {"alpha": 3.0, "beta": 1.5})
    first = [eval_start(s, t) for t in (0.5, 2.0, 9.0)]
    grid = eval_start(s, np.array([0.5, 2.0, 9.0]))
    assert len(calls) == 2  # the two quantiles, on the first call only
    assert np.array_equal(first, grid)
    eval_start(s.unclipped(), 2.0)
    eval_start(FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}), 2.0)
    assert len(calls) == 4  # a new start computes its own edges


@pytest.mark.parametrize("clip", [0.5, 1.0, 2.5, 4.0])
def test_gamma_clip_edges_match_scipy_stats_quantiles(clip):
    # the edges are the N(0,1) tail mass quantiles of the fitted gamma
    p_lo = stats.norm.cdf(-clip)
    for alpha in (0.3, 1.0, 2.7, 15.0, 400.0):
        for beta in (0.01, 0.5, 1.0, 3.0, 250.0):
            s = FittedStart("gamma", {"alpha": alpha, "beta": beta}, clip=clip)
            want = (stats.gamma.ppf(p_lo, alpha, scale=1.0 / beta),
                    stats.gamma.ppf(1.0 - p_lo, alpha, scale=1.0 / beta))
            assert _clip_edges(s) == want
