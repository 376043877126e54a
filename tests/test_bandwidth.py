import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from semistart.bandwidth import (DegenerateRoughness, _loo_params, amise_h, bcv,
                                 h_oversmoothed, plugin_roughness, rule_delta,
                                 rule_gamma, rule_plugin, select, ucv)
from semistart.densities import marron_wand, mixture_sample
from semistart.estimator import DensityEstimate, estimate_semiparametric
from semistart.exact_mise import ise_new, mise_new
from semistart.hermite import HermiteCoeffs, roughness_from_coeffs
from semistart.kernels import MAX_BLOCK_THREADS, eval_scaled, kernel_props, row_blocks
from semistart.multivariate import MvEstimate, mv_bandwidth, mv_kernel_estimate, sphere
from semistart.starts import FittedStart, em_fit_mixture, eval_start, fit_start

from conftest import phi, phi_scaled

G = kernel_props("gaussian")
RKPP = 3.0 / (8.0 * np.sqrt(np.pi))


def test_amise_h_normal_reference():
    # substitution oracle: with the normal's own curvature this is the
    # classic (4/3)^(1/5) sigma n^(-1/5) reference rule
    h, amise = amise_h(G, RKPP, 100)
    want = (4.0 / 3.0) ** 0.2 * 100 ** -0.2
    assert h == pytest.approx(want, rel=1e-12)
    assert h == pytest.approx(0.4216846, abs=5e-7)
    assert amise == pytest.approx(1.25 * G.rough_K**0.8 * RKPP**0.2 * 100**-0.8, rel=1e-12)


def test_amise_h_power_laws():
    h1, _ = amise_h(G, 1.0, 100)
    h2, _ = amise_h(G, 2.0, 100)
    assert h2 / h1 == pytest.approx(2.0 ** -0.2, rel=1e-12)
    h3, _ = amise_h(G, 1.0, 3200)
    assert h1 / h3 == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DegenerateRoughness):
        amise_h(G, 0.0, 100)


def test_amise_h_minimises_the_curve():
    # grid search over the explicit bias^2 + variance target never beats it
    for r_new, n in [(0.3, 50), (2.0, 400)]:
        h, best = amise_h(G, r_new, n)
        hs = np.linspace(h / 4, 4 * h, 4001)
        curve = 0.25 * G.sigma2_K**2 * hs**4 * r_new + G.rough_K / (n * hs)
        assert np.min(curve) >= best - 1e-12


def test_rule_gamma_substitution():
    # pure-kurtosis coefficients, unit scale, n = 100
    cf = HermiteCoeffs("classic_gamma", [1, 0, 0, 0.0, 1.0, 0.0], 1.0)
    h, _ = amise_h(G, roughness_from_coeffs(cf), 100)
    assert h == pytest.approx((4.0 / 3.0) ** 0.2 * 4.0**0.2 * 100**-0.2, rel=1e-12)
    assert h == pytest.approx(0.5564162, abs=5e-7)


def test_rule_delta_substitution():
    cf = HermiteCoeffs("robust_delta", [0.0, 0.0, 0.1, 0.0, 0.0, 0.0], 1.0)
    h, _ = amise_h(G, roughness_from_coeffs(cf), 100)
    assert h == pytest.approx(0.25**0.2 * 0.01**-0.2 * 100**-0.2, rel=1e-12)
    assert h == pytest.approx(0.7578583, abs=5e-7)


def test_rules_clamp_on_normal_data():
    x = mixture_sample(marron_wand(1), 400, seed=4001)
    for rule in (rule_gamma, rule_delta):
        ch = rule(x, G)
        h_os = h_oversmoothed(float(np.std(x)), 400, G)
        assert 0.0 < ch.h <= h_os + 1e-15
        assert ch.diagnostics["clamped"]
        assert ch.h == pytest.approx(h_os, rel=1e-12)


@pytest.mark.parametrize("rule", [rule_gamma, rule_delta])
def test_moment_rules_scale_equivariant(rule, mw_sample=None):
    x = mixture_sample(marron_wand(8), 300, seed=77)
    base = rule(x, G).h
    for c in (0.2, 5.0):
        assert rule(c * x, G).h == pytest.approx(c * base, rel=1e-9)


def test_h_oversmoothed_constant():
    # gaussian-kernel constant is the familiar 1.144
    assert h_oversmoothed(1.0, 1, G) == pytest.approx(1.144, abs=1e-3)


def test_plugin_roughness_constant_start_recovers_curvature():
    # flat start turns the statistic into the classic curvature estimate;
    # its 20-seed average lands well within 50% of the normal's 3/(8 sqrt pi)
    vals = []
    for seed in range(20):
        x = mixture_sample(marron_wand(1), 500, seed=2000 + seed)
        _, deb = plugin_roughness(x, FittedStart("constant"), G, 0.3)
        vals.append(deb)
    assert abs(np.mean(vals) - RKPP) <= 0.5 * RKPP


def test_plugin_roughness_overshoot_size():
    # on normal truth the corrected-curvature target is 0, so the raw
    # statistic should average to the fixed overshoot R(K'')/(n h^5)
    n, h = 400, 0.3
    raws = []
    for seed in range(100):
        x = mixture_sample(marron_wand(1), n, seed=3000 + seed)
        raw, _ = plugin_roughness(x, fit_start("normal", x), G, h)
        raws.append(raw)
    raws = np.array(raws)
    target = G.rough_Kpp / (n * h**5)
    se = raws.std(ddof=1) / np.sqrt(raws.size)
    assert abs(raws.mean() - target) <= 3.0 * se


def test_plugin_roughness_brute_force_oracle():
    # 2000-point trapezoid of the squared curvature of the corrected fit
    x = mixture_sample(marron_wand(6), 20, seed=31)
    st = fit_start("normal", x)
    mu, sd = st.params["mu"], st.params["sd"]
    h = 0.45
    grid = np.linspace(x.min() - 8, x.max() + 8, 2000)
    den = phi_scaled(sd, x - mu)
    z = (grid[:, None] - x[None, :]) / h
    rpp = np.sum((z * z - 1.0) * phi(z) / den[None, :], axis=1) / (x.size * h**3)
    f0 = phi_scaled(sd, grid - mu)
    brute = np.trapezoid((f0 * rpp) ** 2, grid)
    raw, _ = plugin_roughness(x, st, G, h)
    assert raw == pytest.approx(float(brute), rel=1e-6)
    with pytest.raises(ValueError):
        plugin_roughness(x, st, kernel_props("epanechnikov"), h)


def test_bcv_compositional_identity():
    x = mixture_sample(marron_wand(2), 120, seed=32)
    st = fit_start("normal", x)
    grid = np.linspace(0.15, 0.8, 7)
    ch = bcv(x, st, G, grid)
    n = x.size
    for h, val in zip(ch.diagnostics["h_grid"], ch.diagnostics["curve"]):
        raw, _ = plugin_roughness(x, st, G, h)
        want = 0.25 * h**4 * (raw - G.rough_Kpp / (n * h**5)) + G.rough_K / (n * h)
        assert val == pytest.approx(want, rel=1e-12)
    # the variance leg of the curve decreases in h by construction
    assert np.all(np.diff(G.rough_K / (n * grid)) < 0)


def test_bcv_sane_selection_on_normal_data():
    hits = 0
    for seed in range(20):
        x = mixture_sample(marron_wand(1), 500, seed=5000 + seed)
        sd = float(np.std(x))
        h_os = h_oversmoothed(sd, 500, G)
        ch = bcv(x, fit_start("normal", x), G, np.linspace(0.05 * h_os, h_os, 24))
        ref = sd * 500**-0.2 * (4.0 / 3.0) ** 0.2
        hits += 0.3 * ref <= ch.h <= 1.3 * ref
    assert hits >= 16
    with pytest.raises(ValueError):
        bcv([1.0, 2.0], FittedStart("constant"), G, [])


def test_ucv_constant_start_is_textbook_lscv():
    x = mixture_sample(marron_wand(6), 15, seed=33)
    n = x.size
    grid = np.array([0.25, 0.4, 0.6])
    ch = ucv(x, FittedStart("constant"), G, grid)
    for h, val in zip(grid, ch.diagnostics["curve"]):
        # independent direct implementation
        term1 = 0.0
        term2 = 0.0
        for i in range(n):
            for j in range(n):
                term1 += float(phi_scaled(np.sqrt(2.0) * h, x[i] - x[j]))
                if i != j:
                    term2 += float(phi_scaled(h, x[i] - x[j]))
        want = term1 / n**2 - 2.0 * term2 / (n * (n - 1))
        assert val == pytest.approx(want, rel=1e-12)


def test_ucv_integral_term_vs_trapezoid():
    x = mixture_sample(marron_wand(1), 40, seed=34)
    st = fit_start("normal", x)
    mu, sd = st.params["mu"], st.params["sd"]
    h = 0.35
    grid = np.linspace(x.min() - 8, x.max() + 8, 2000)
    fh = np.zeros_like(grid)
    for xi in x:
        fh += phi_scaled(h, xi - grid) * float(phi_scaled(sd, xi - mu)) ** -1
    fh *= phi_scaled(sd, grid - mu) / x.size
    brute = float(np.trapezoid(fh**2, grid))
    from semistart.bandwidth import _ucv_integral_term
    assert _ucv_integral_term(x, st, h) == pytest.approx(brute, abs=1e-8)


def test_ucv_validation():
    with pytest.raises(ValueError):
        ucv([1.0, 2.0], FittedStart("constant"), G, [0.3])
    with pytest.raises(ValueError):
        ucv(np.arange(10.0), FittedStart("constant"), kernel_props("uniform"), [0.3])


def test_rule_plugin_runs_and_caps():
    x = mixture_sample(marron_wand(6), 400, seed=35)
    ch = rule_plugin(x, fit_start("normal", x), G)
    h_os = h_oversmoothed(float(np.std(x)), 400, G)
    assert 0.0 < ch.h <= h_os + 1e-15


@pytest.mark.parametrize("method", [None, "rule_delta", "rule_gamma", "plugin", "bcv", "ucv"])
def test_select_matches_the_direct_rule(method):
    x = mixture_sample(marron_wand(2), 200, seed=42)
    st = fit_start("normal", x)
    h_os = h_oversmoothed(float(np.std(x)), x.size, G)
    grid = np.linspace(0.05 * h_os, h_os, 32)
    direct = {None: lambda: rule_delta(x, G),
              "rule_delta": lambda: rule_delta(x, G),
              "rule_gamma": lambda: rule_gamma(x, G),
              "plugin": lambda: rule_plugin(x, st, G),
              "bcv": lambda: bcv(x, st, G, grid),
              "ucv": lambda: ucv(x, st, G, grid)}[method]()
    got = select(method, x, st, G)
    assert (got.h, got.method) == (direct.h, direct.method)
    assert got.diagnostics.keys() == direct.diagnostics.keys()
    for key, want in direct.diagnostics.items():
        assert np.array_equal(got.diagnostics[key], want), key


def test_select_rejects_an_unknown_method():
    x = mixture_sample(marron_wand(2), 50, seed=43)
    with pytest.raises(ValueError, match="'lscv'"):
        select("lscv", x, fit_start("normal", x), G)


def _bad_column(bad):
    x = np.linspace(-2.0, 2.0, 40)
    x[7] = bad
    return x


def _bad_matrix(bad):
    x = np.column_stack([np.linspace(-2.0, 2.0, 40), np.sin(np.arange(40.0))])
    x[7, 1] = bad
    return x


NORMAL = FittedStart("normal", {"mu": 0.0, "sd": 1.0})
SELECTOR_CALLS = {
    "rule_delta": lambda x: rule_delta(x, G),
    "rule_gamma": lambda x: rule_gamma(x, G),
    "select_bcv": lambda x: select("bcv", x, NORMAL, G),
    "bcv": lambda x: bcv(x, NORMAL, G, [0.3, 0.6]),
    "ucv": lambda x: ucv(x, NORMAL, G, [0.3, 0.6]),
    "plugin_roughness": lambda x: plugin_roughness(x, NORMAL, G, 0.3),
    "ise_new": lambda x: ise_new(x, 0.0, 1.0, 0.3, marron_wand(2)),
}
MATRIX_CALLS = {
    "sphere": sphere,
    "mv_bandwidth": mv_bandwidth,
    "MvEstimate": lambda x: MvEstimate(x, np.zeros(2), np.eye(2), 0.4),
    "MvEstimate.fit": lambda x: MvEstimate.fit(x, 0.4),
    "mv_kernel_estimate": lambda x: mv_kernel_estimate(x, 0.4, np.zeros(2)),
}
# a non-finite start parameter (or scale), and the message that names it
PARAMETER_CALLS = {
    "ise_new.mu_hat": (lambda v: ise_new(_bad_column(0.0), v, 1.0, 0.3, marron_wand(2)),
                       "start location must be finite"),
    "ise_new.sd_hat": (lambda v: ise_new(_bad_column(0.0), 0.0, v, 0.3, marron_wand(2)),
                       "start scale must be finite"),
    "mise_new.mu0": (lambda v: mise_new(marron_wand(2), v, 1.0, 0.3, 100),
                     "start location must be finite"),
    "mise_new.sd0": (lambda v: mise_new(marron_wand(2), 0.0, v, 0.3, 100),
                     "start scale must be finite"),
    "h_oversmoothed": (lambda v: h_oversmoothed(v, 100, G), "finite positive scale"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", list(SELECTOR_CALLS) + list(MATRIX_CALLS)
                         + list(PARAMETER_CALLS))
def test_selectors_and_mv_path_reject_non_finite_data(name, bad):
    if name in SELECTOR_CALLS:
        call, data, msg = SELECTOR_CALLS[name], _bad_column(bad), r"index 7 is not finite"
    elif name in MATRIX_CALLS:
        call, data, msg = MATRIX_CALLS[name], _bad_matrix(bad), r"index 7, 1 is not finite"
    else:
        (call, msg), data = PARAMETER_CALLS[name], bad
    with pytest.raises(ValueError, match=msg):
        call(data)


@pytest.mark.parametrize("method", ["plugin", "bcv", "ucv"])
def test_data_driven_rules_scale_equivariant(method):
    x = mixture_sample(marron_wand(6), 150, seed=36)
    c = 3.0

    def run(data):
        st = fit_start("normal", data)
        sd = float(np.std(data))
        grid = np.linspace(0.1 * sd, 1.1446 * sd * 150**-0.2, 16)
        if method == "plugin":
            return rule_plugin(data, st, G).h
        if method == "bcv":
            return bcv(data, st, G, grid).h
        return ucv(data, st, G, grid).h

    assert run(c * x) == pytest.approx(c * run(x), rel=1e-9)


# Full-matrix oracles: the unblocked expressions the selectors used before
# their pair sums were filled in row blocks.  Blocking must not change a bit.

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _full_plugin_raw(x, start, h):
    n = x.size
    if start.family == "constant":
        t = (x[:, None] - x[None, :]) / (h * np.sqrt(2.0))
        val = (t**4 - 6.0 * t**2 + 3.0) * np.exp(-0.5 * t * t) / SQRT_2PI
        return float(np.sum(val)) / (4.0 * np.sqrt(2.0) * n * n * h**5)
    if start.family == "normal":
        mu, sd = start.params["mu"], start.params["sd"]
        u = x - mu
        tau2 = 1.0 / (2.0 / sd**2 + 2.0 / h**2)
        mloc = tau2 * (u[:, None] + u[None, :]) / h**2
        a = mloc - u[:, None]
        b = mloc - u[None, :]
        poly = (3.0 * tau2**2 + tau2 * (a * a + b * b + 4.0 * a * b - 2.0 * h * h)
                + (a * a - h * h) * (b * b - h * h))
        log_rat = np.log(sd / h) - 0.5 * u * u * (1.0 / h**2 - 1.0 / sd**2)
        expo = (log_rat[:, None] + log_rat[None, :]
                + 0.5 * tau2 * ((u[:, None] + u[None, :]) / h**2) ** 2)
        total = float(np.sum(poly * np.exp(expo)))
        return np.sqrt(tau2) / (SQRT_2PI * sd * sd) * total / (n * n * h**8)
    f0 = start.unclipped()
    den = eval_start(f0, x)

    def integrand(t):
        z = (t - x) / h
        rpp = np.sum((z * z - 1.0) * np.exp(-0.5 * z * z) / SQRT_2PI / den) / (n * h**3)
        return (float(eval_start(f0, np.array([t]))[0]) * rpp) ** 2

    return float(quad(integrand, float(x.min()) - 10.0 * h,
                      float(x.max()) + 10.0 * h, limit=400)[0])


def _full_ucv_integral(x, start, h):
    n = x.size
    if start.family == "constant":
        pair = np.exp(-0.25 * ((x[:, None] - x[None, :]) / h) ** 2)
        return float(pair.sum()) / (SQRT_2PI * np.sqrt(2.0) * h * n * n)
    if start.family == "normal":
        mu, sd = start.params["mu"], start.params["sd"]
        u = x - mu
        st2 = 0.5 * sd * sd * h * h / (sd * sd + h * h)
        log_rat = np.log(sd / h) - 0.5 * u * u * (1.0 / h**2 - 1.0 / sd**2)
        expo = (log_rat[:, None] + log_rat[None, :]
                + 0.5 * st2 * ((u[:, None] + u[None, :]) / h**2) ** 2)
        return float(np.sqrt(st2) / (SQRT_2PI * sd * sd) * np.sum(np.exp(expo))) / n**2
    est = DensityEstimate(x, G, h, start.unclipped())
    lo, hi = float(x.min()) - 10 * h, float(x.max()) + 10 * h
    return float(quad(lambda t: float(estimate_semiparametric(est, np.array([t]))[0]) ** 2,
                      lo, hi, limit=400)[0])


def _full_ucv_curve(x, start, h_grid):
    n = x.size
    if start.family == "constant":
        log_ratio = np.zeros((n, n))
    else:
        mu_i, var_i = _loo_params(x, start.family)
        if start.family == "normal":
            log_num = -0.5 * (x - mu_i) ** 2 / var_i - 0.5 * np.log(var_i)
            log_den = -0.5 * (x[None, :] - mu_i[:, None]) ** 2 / var_i[:, None] \
                - 0.5 * np.log(var_i)[:, None]
        elif start.family == "lognormal":
            lx = np.log(x)
            log_num = -0.5 * (lx - mu_i) ** 2 / var_i - 0.5 * np.log(var_i) - lx
            log_den = (-0.5 * (lx[None, :] - mu_i[:, None]) ** 2 / var_i[:, None]
                       - 0.5 * np.log(var_i)[:, None] - lx[None, :])
        else:
            a_i = mu_i**2 / var_i
            b_i = mu_i / var_i
            log_num = (a_i * np.log(b_i) + (a_i - 1.0) * np.log(x) - b_i * x
                       - gammaln(a_i))
            log_den = (a_i[:, None] * np.log(b_i)[:, None]
                       + (a_i[:, None] - 1.0) * np.log(x)[None, :]
                       - b_i[:, None] * x[None, :] - gammaln(a_i)[:, None])
        log_ratio = log_num[:, None] - log_den
    dist = x[None, :] - x[:, None]
    curve = np.empty_like(h_grid)
    for idx, h in enumerate(h_grid):
        W = eval_scaled(G, h, dist) * np.exp(log_ratio)
        np.fill_diagonal(W, 0.0)
        loo = W.sum(axis=1) / (n - 1)
        curve[idx] = _full_ucv_integral(x, start, h) - 2.0 * float(loo.mean())
    return curve


def _sample_and_start(family, n):
    rng = np.random.default_rng(4000 + n)
    if family in ("constant", "normal"):
        x = rng.normal(0.3, 1.2, n)
    else:
        x = np.exp(rng.normal(0.2, 0.5, n))
    start = FittedStart("constant") if family == "constant" else fit_start(family, x)
    return x, start


BLOCK_ROWS = {1000: [32] * 31 + [8], 3: [3]}  # a partial last block; one block


def _n_with_more_blocks_than(k):
    n = 3
    while len(list(row_blocks(n, n))) <= k:
        n += 1
    return n


# more than three blocks per block thread, so every thread fills several
MANY_BLOCKS_N = _n_with_more_blocks_than(3 * MAX_BLOCK_THREADS)


@pytest.mark.parametrize("n", sorted(BLOCK_ROWS)
                         + [pytest.param(MANY_BLOCKS_N, id="many_blocks")])
@pytest.mark.parametrize("family", ["constant", "normal", "lognormal", "gamma"])
def test_pair_sums_bit_identical_to_full_matrix(family, n):
    if n in BLOCK_ROWS:
        assert [r.stop - r.start for r in row_blocks(n, n)] == BLOCK_ROWS[n]
    x, start = _sample_and_start(family, n)
    quad_path = family in ("lognormal", "gamma")
    # at n = 1000 and h = 0.05 a constant-start matrix mirrored from one
    # triangle sums differently, so the grid reaches that far down
    h_grid = np.array([0.25, 0.6]) if quad_path else np.geomspace(0.05, 0.8, 5)
    ch = bcv(x, start, G, h_grid)
    want = np.empty_like(h_grid)
    for i, h in enumerate(h_grid):
        raw = _full_plugin_raw(x, start, h)
        want[i] = (0.25 * G.sigma2_K**2 * h**4 * (raw - G.rough_Kpp / (n * h**5))
                   + G.rough_K / (n * h))
        got_raw, got_deb = plugin_roughness(x, start, G, h)
        assert got_raw == raw
        assert got_deb == max(n / (n - 1.0) * (raw - G.rough_Kpp / (n * h**5)), 0.0)
    assert np.array_equal(ch.diagnostics["curve"], want)
    assert np.array_equal(ucv(x, start, G, h_grid).diagnostics["curve"],
                          _full_ucv_curve(x, start, h_grid))


@pytest.mark.parametrize("family", ["lognormal", "gamma", "normal_mixture"])
def test_plugin_quadrature_matches_the_untrimmed_integrand(family):
    # _full_plugin_raw integrates the plug-in statistic as written before its
    # integrand computed z * z once and hoisted n h^3: not a bit may move
    x = np.exp(np.random.default_rng(77).normal(0.1, 0.6, 300))
    start = (em_fit_mixture(x, 2, seed=3) if family == "normal_mixture"
             else fit_start(family, x))
    for h in (0.08, 0.3, 0.9):
        assert plugin_roughness(x, start, G, h)[0] == _full_plugin_raw(x, start, h)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_selector_memory_is_one_or_two_pair_buffers():
    # n = 2000: one n x n float64 buffer is 30.5 MB; the full-matrix
    # expressions peaked at about 214 (bcv) and 244 MB (ucv)
    x = mixture_sample(marron_wand(2), 2000, seed=41)
    st = fit_start("normal", x)
    grid = np.array([0.2, 0.4])
    assert _peak_mb(lambda: bcv(x, st, G, grid)) <= 40.0
    assert _peak_mb(lambda: ucv(x, st, G, grid)) <= 72.0
