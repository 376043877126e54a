import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from semistart.densities import (NormalMixture, marron_wand, mixture_moments,
                                 mixture_pdf, mixture_sample)
from semistart import exact_mise
from semistart.exact_mise import (MiseDomainError, MiseReport, benchmark_table, h_domain_cap,
                                  mise_kernel, mise_new, optimal_h, r_f, reports_to_csv)

from conftest import (SQRT_2PI, SQRT_PI, bisect_domain_cap, gaussian_product_integral,
                      ise_new, phi, phi_scaled, serial_optimal_h)


def test_gaussian_product_single_factor():
    assert gaussian_product_integral([(0.7, 1.3)], a=1.3) == pytest.approx(1.0, rel=1e-14)


def test_gaussian_product_two_and_three_factors():
    val, _ = quad(lambda x: phi(x) ** 2, -12, 12, epsabs=1e-14)
    assert gaussian_product_integral([(1.0, 0.0), (1.0, 0.0)]) == pytest.approx(val, rel=1e-12)
    assert gaussian_product_integral([(1.0, 0.0), (1.0, 0.0)]) == pytest.approx(
        1.0 / (2.0 * np.sqrt(np.pi)), rel=1e-14)
    val3, _ = quad(lambda x: phi(x) * phi(x - 1.0) * phi_scaled(2.0, x + 1.0),
                   -14, 14, epsabs=1e-14)
    got = gaussian_product_integral([(1.0, 0.0), (1.0, 1.0), (2.0, -1.0)], a=0.4)
    assert got == pytest.approx(val3, rel=1e-10)


def test_gaussian_product_reference_point_free():
    factors = [(0.9, -0.4), (1.7, 2.2), (0.5, 1.0)]
    a0 = gaussian_product_integral(factors, a=0.0)
    a1 = gaussian_product_integral(factors, a=1.9)
    assert a0 == pytest.approx(a1, rel=1e-10)


def test_r_f_quadrature_all_cases():
    for case in range(1, 16):
        m = marron_wand(case)
        lo, hi = m.support_window()
        val, _ = quad(lambda x: mixture_pdf(m, x) ** 2, lo, hi, limit=800, epsabs=1e-12)
        assert r_f(m) == pytest.approx(val, abs=1e-10, rel=1e-9)


def test_r_f_is_the_overlap_of_mise_kernel():
    # both equal the two inline formulas they replaced, bit for bit
    for case in range(1, 16):
        m = marron_wand(case)
        sij = np.sqrt(m.sds[:, None] ** 2 + m.sds[None, :] ** 2)
        dij = (m.means[None, :] - m.means[:, None]) / sij
        pij = m.weights[:, None] * m.weights[None, :]
        assert r_f(m) == float(np.sum(pij * np.exp(-0.5 * dij**2) / (SQRT_2PI * sij)))
        s2 = m.sds[:, None] ** 2 + m.sds[None, :] ** 2
        d = m.means[None, :] - m.means[:, None]

        def overlap(extra):
            s = np.sqrt(s2 + extra)
            return float(np.sum(pij * np.exp(-0.5 * (d / s) ** 2) / (SQRT_2PI * s)))

        for h, n in [(0.05, 25), (0.3, 100), (1.2, 1000)]:
            want = ((1.0 - 1.0 / n) * overlap(2.0 * h * h) + 1.0 / (2.0 * SQRT_PI * n * h)
                    - 2.0 * overlap(h * h) + overlap(0.0))
            assert mise_kernel(m, h, n) == want


def test_mise_kernel_table_value():
    assert mise_kernel(marron_wand(1), 0.4455, 100) == pytest.approx(0.0054, abs=5e-5)


def test_mise_kernel_small_h_limit():
    m = marron_wand(1)
    h = 1e-4
    lim = 1.0 / (2.0 * np.sqrt(np.pi) * 100 * h)
    assert mise_kernel(m, h, 100) == pytest.approx(lim, rel=1e-3)


def test_mise_kernel_monte_carlo():
    # empirical mean ISE of the plain kernel estimator (closed-form ISE per rep)
    m = marron_wand(1)
    n, h, reps = 50, 0.5, 2000
    s2 = m.sds[:, None] ** 2  # single component
    vals = np.empty(reps)
    for r in range(reps):
        x = mixture_sample(m, n, seed=40_000 + r)
        d = x[:, None] - x[None, :]
        t1 = float(np.mean(phi_scaled(np.sqrt(2.0) * h, d)))
        cross = phi_scaled(np.sqrt(1.0 + h * h), x - m.means[0])
        t2 = float(np.mean(cross))
        vals[r] = t1 - 2.0 * t2 + r_f(m)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - mise_kernel(m, h, n)) <= 3.0 * se


def test_mise_new_home_turf_value():
    m = marron_wand(1)
    got = mise_new(m, 0.0, 1.0, 1.0 / np.sqrt(2.0), 100)
    assert got == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi) * 100), rel=1e-12)
    assert got == pytest.approx(0.0028209, abs=5e-8)


def test_mise_new_flat_start_limit_case6():
    m = marron_wand(6)
    mu0, _ = mixture_moments(m)
    for h in (0.2, 0.5, 1.0):
        a = mise_new(m, mu0, 1e4, h, 100)
        b = mise_kernel(m, h, 100)
        assert abs(a - b) < 1e-6


def test_mise_new_domain_error_names_term():
    # a narrow start under a wide component breaks the diagonal radicand first
    m = NormalMixture(weights=[1.0], means=[0.0], sds=[1.0])
    with pytest.raises(MiseDomainError, match="mise formula domain violated"):
        mise_new(m, 0.0, 1.0, 1.2, 100)
    cap = h_domain_cap(m, 1.0, h_max=3.0)
    assert mise_new(m, 0.0, 1.0, 0.99 * cap, 100) > 0.0
    with pytest.raises(MiseDomainError):
        mise_new(m, 0.0, 1.0, 1.01 * cap, 100)


def test_mise_new_quadrature_assembled_oracle():
    # rebuild mise(h) from first principles: the estimator's exact mean by
    # direct integration, then the three expectation terms by quadrature
    m = marron_wand(2)
    mu0, sd0 = mixture_moments(m)
    h, n = 0.4, 37
    lo, hi = m.support_window()

    def mean_fhat(x):
        val, _ = quad(lambda y: phi_scaled(h, y - x) * phi_scaled(sd0, x - mu0)
                      / phi_scaled(sd0, y - mu0) * mixture_pdf(m, y),
                      lo, hi, limit=300)
        return val

    ea1, _ = quad(lambda x: mean_fhat(x) ** 2, lo, hi, limit=200)
    eb, _ = quad(lambda x: mixture_pdf(m, x) * mean_fhat(x), lo, hi, limit=200)
    s_eff = np.sqrt((sd0**2 + h**2) / 2.0)
    ea2, _ = quad(lambda y: mixture_pdf(m, y) / (4.0 * np.pi * h * sd0)
                  * phi_scaled(s_eff, y - mu0) / phi_scaled(sd0, y - mu0) ** 2,
                  lo, hi, limit=300)
    assembled = (1 - 1 / n) * ea1 + ea2 / n - 2 * eb + r_f(m)
    got = mise_new(m, mu0, sd0, h, n)
    assert got == pytest.approx(assembled, rel=1e-8)


def test_ise_new_trapezoid_oracle():
    m = marron_wand(6)
    x = mixture_sample(m, 10, seed=5)
    mu_h, sd_h = float(x.mean()), float(x.std())
    h = 0.45
    grid = np.linspace(-12, 12, 4001)
    fh = np.zeros_like(grid)
    for xi in x:
        fh += phi_scaled(h, grid - xi) * np.exp(
            -0.5 * (grid - mu_h) ** 2 / sd_h**2 + 0.5 * (xi - mu_h) ** 2 / sd_h**2)
    fh /= x.size
    brute = float(np.trapezoid((fh - mixture_pdf(m, grid)) ** 2, grid))
    assert ise_new(x, mu_h, sd_h, h, m) == pytest.approx(brute, rel=1e-6)


def test_ise_new_positive_degenerate_case():
    m = NormalMixture(weights=[1.0], means=[0.3], sds=[0.9])
    assert ise_new([0.3], 0.3, 0.9, 0.5, m) > 0.0


def _full_ise_new(x, mu_hat, sd_hat, h, m):
    """ise_new with its squared term summed over the full n x n matrix."""
    x = np.asarray(x, dtype=float)
    n = x.size
    u = x - mu_hat
    h2 = h * h
    sd2 = sd_hat * sd_hat
    st2 = 0.5 * sd2 * h2 / (sd2 + h2)
    log_rat = np.log(sd_hat / h) - 0.5 * u * u * (1.0 / h2 - 1.0 / sd2)
    expo = (log_rat[:, None] + log_rat[None, :]
            + 0.5 * st2 * ((u[:, None] + u[None, :]) / h2) ** 2)
    a_term = float(np.sqrt(st2) / (np.sqrt(2.0 * np.pi) * sd2) * np.sum(np.exp(expo))) / n**2
    sj2 = m.sds**2
    stj2 = sd2 * sj2 * h2 / (sd2 * sj2 + h2 * (sd2 + sj2))
    mu_off = m.means - mu_hat
    log_row = (np.log(m.weights) + 0.5 * np.log(stj2) - np.log(sd_hat)
               - 0.5 * np.log(2.0 * np.pi) - np.log(m.sds) - 0.5 * (mu_off / m.sds) ** 2)
    inner = (log_rat[None, :] + log_row[:, None]
             + 0.5 * stj2[:, None] * (u[None, :] / h2 + (mu_off / sj2)[:, None]) ** 2)
    return a_term - 2.0 * float(np.sum(np.exp(inner))) / n + r_f(m)


def test_ise_new_matches_the_full_matrix_expression():
    m6 = marron_wand(6)
    x = mixture_sample(m6, 10, seed=5)
    big = mixture_sample(m6, 1000, seed=6)  # 31 row blocks of 32 and one of 8
    one = NormalMixture(weights=[1.0], means=[0.3], sds=[0.9])
    for args in ((x, float(x.mean()), float(x.std()), 0.45, m6),
                 ([0.3], 0.3, 0.9, 0.5, one),
                 (big, float(big.mean()), float(big.std()), 0.3, m6)):
        assert ise_new(*args) == pytest.approx(_full_ise_new(*args), rel=1e-12, abs=0)


def test_ise_new_memory_is_one_pair_buffer():
    # n = 4000: one n x n float64 buffer is 122 MB; the full matrix took 244
    x = mixture_sample(marron_wand(6), 4000, seed=7)
    tracemalloc.start()
    try:
        ise_new(x, float(x.mean()), float(x.std()), 0.3, marron_wand(6))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 140.0


def test_optimal_h_quadratic():
    h, v = optimal_h(lambda t: (t - 2.0) ** 2 + 1.0, (0.5, 4.0))
    assert h == pytest.approx(2.0, abs=1e-6)
    assert v == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        optimal_h(lambda t: t, (1.0, 0.5))


def test_optimal_h_table_spot_values():
    m = marron_wand(1)
    h, v = optimal_h(lambda t: mise_new(m, 0.0, 1.0, t, 100),
                     (0.01, 0.97))
    assert h == pytest.approx(0.7071, abs=5e-4)
    ht, vt = optimal_h(lambda t: mise_kernel(m, t, 1000), (0.01, 3.0))
    assert ht == pytest.approx(0.2723, abs=5e-4)
    assert vt == pytest.approx(0.0010, abs=5e-5)


def test_optimal_h_handles_two_basins():
    # comb-like truth at a size where the error curve has two local minima
    m = marron_wand(10)
    mu0, sd0 = mixture_moments(m)
    h, _ = optimal_h(lambda t: mise_kernel(m, t, 100), (0.01 * sd0, 3.0 * sd0))
    assert h == pytest.approx(0.0959, abs=1e-3)


def test_optimal_h_rescans_when_the_scan_sees_several_minima():
    # at n = 50 the claw's 128-point scan shows more than one local minimum,
    # so the search rescans at 512 points before the golden section
    m = marron_wand(10)
    mu0, sd0 = mixture_moments(m)
    calls = []

    def curve(t):
        calls.append(np.array(t))
        return mise_kernel(m, t, 50)

    h, v = optimal_h(curve, (0.01 * sd0, 3.0 * sd0))
    # one call per scan, then the golden section's first pair, seven rounds of
    # five steps and the value at h*.  A round's 2 + 4 + 8 + 16 + 32 candidate
    # points repeat one another, as golden-section points do, and each
    # distinct bandwidth is asked for once
    sizes = [t.size for t in calls]
    assert sizes[:3] == [128, 512, 2] and sizes[-1] == 1 and len(sizes) == 3 + 7 + 1
    assert all(30 < size < 62 for size in sizes[3:-1])
    assert all(np.unique(t).size == t.size for t in calls)
    fine = np.linspace(0.01 * sd0, 3.0 * sd0, 30001)
    vals = mise_kernel(m, fine, 50)
    k = int(np.argmin(vals))
    assert abs(h - fine[k]) <= fine[1] - fine[0]
    assert v <= vals[k]


def _well_curve(wells):
    """The lower envelope of quadratic wells (weight, centre, floor): elementwise arithmetic.

    The square is a product: (t - c) ** 2 goes through C pow for a NumPy
    scalar and through a product for an array, which can differ in the last bit.
    """
    def curve(t):
        def well(w, c, f):
            d = t - c
            return w * (d * d) + f
        return np.min([well(w, c, f) for w, c, f in wells], axis=0)
    return curve


_wells = st.lists(st.tuples(st.floats(0.1, 50.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0)),
                  min_size=1, max_size=4)
_brackets = st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 3.0)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=60, deadline=None)
@given(wells=_wells, bracket=_brackets)
@example(wells=[(1.0, 0.669471762930687, 0.0)], bracket=(0.8046354411837691, 1.1379687745171023))
def test_optimal_h_matches_the_serial_search_on_drawn_curves(wells, bracket):
    curve = _well_curve(wells)
    assert optimal_h(curve, bracket) == serial_optimal_h(curve, bracket)


def _mixtures(max_k=3):
    def build(comps):
        w = np.array([c[0] for c in comps])
        return NormalMixture(weights=w / w.sum(), means=[c[1] for c in comps],
                             sds=[c[2] for c in comps])
    comp = st.tuples(st.floats(0.1, 1.0), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
    return st.lists(comp, min_size=1, max_size=max_k).map(build)


@settings(max_examples=15, deadline=None)
@given(m=_mixtures(), n=st.integers(1, 5000), sd_frac=st.floats(0.3, 3.0))
# the corrected curve passes the float range below the bracket's top, 0.98 of the domain cap
@example(m=NormalMixture(weights=[0.5, 0.5], means=[0.0, 1.5], sds=[0.1875, 0.125]), n=1,
         sd_frac=0.3125)
def test_optimal_h_matches_the_serial_search_on_mise_curves(m, n, sd_frac):
    mu0, sd_m = mixture_moments(m)
    sd0 = sd_frac * sd_m
    cap = h_domain_cap(m, sd0, h_max=3.0 * sd0)
    bracket = (0.01 * sd0, min(3.0 * sd0, 0.98 * cap))
    for curve in (lambda t: mise_new(m, mu0, sd0, t, n), lambda t: mise_kernel(m, t, n)):
        assert optimal_h(curve, bracket) == serial_optimal_h(curve, bracket)


@settings(max_examples=60, deadline=None)
@given(m=_mixtures(4), sd0=st.floats(0.05, 3.0),
       h_max=st.one_of(st.just(np.inf), st.floats(1e-3, 10.0)))
def test_h_domain_cap_matches_the_full_bisection(m, sd0, h_max):
    assert h_domain_cap(m, sd0, h_max) == bisect_domain_cap(m, sd0, h_max)


@pytest.mark.parametrize("h_max", [0.0, -1.0, np.nan])
def test_h_domain_cap_rejects_a_bad_h_max(h_max):
    with pytest.raises(ValueError, match="h_max must be positive"):
        h_domain_cap(marron_wand(1), 1.0, h_max)


@pytest.mark.parametrize("sd0", [-1.0, 0.0, np.nan, np.inf])
def test_h_domain_cap_checks_the_start_scale_as_mise_new_does(sd0):
    # a negative sd0 once gave a negative cap, 0 a ZeroDivisionError and NaN a
    # MiseDomainError that blamed the formula
    m = marron_wand(4)
    for call in (lambda: h_domain_cap(m, sd0, h_max=3.0), lambda: mise_new(m, 0.0, sd0, 0.5, 100)):
        with pytest.raises(ValueError, match="^start scale must be finite and positive, got ") as err:
            call()
        assert not isinstance(err.value, MiseDomainError)


def test_h_domain_cap_allows_an_infinite_h_max():
    assert h_domain_cap(marron_wand(1), 10.0) == np.inf


def test_optimal_h_rejects_a_non_finite_curve_value():
    # NaN above h = 1: the scan once returned the first NaN's h and value
    curve = lambda t: np.where(t > 1.0, np.nan, (t - 0.5) ** 2)
    with pytest.raises(ValueError, match=r"curve value is not finite at h=1\.0"):
        optimal_h(curve, (0.01, 3.0))
    with pytest.raises(ValueError, match="not finite"):
        optimal_h(lambda t: np.where(t > 0.4, -np.inf, t), (0.01, 3.0))


def test_optimal_h_rejects_a_curve_that_is_not_vectorised():
    with pytest.raises(ValueError, match="as many values"):
        optimal_h(lambda t: float(np.sum((t - 0.5) ** 2)), (0.01, 3.0))


@pytest.mark.parametrize("n", [25, 1000])
@pytest.mark.parametrize("case", range(1, 16))
def test_array_bandwidths_give_the_bits_of_scalar_calls(case, n):
    m = marron_wand(case)
    mu0, sd0 = mixture_moments(m)
    cap = h_domain_cap(m, sd0, h_max=3.0 * sd0)
    hs = np.linspace(0.01 * sd0, min(3.0 * sd0, 0.98 * cap), 128)
    new = mise_new(m, mu0, sd0, hs, n)
    trad = mise_kernel(m, hs, n)
    assert new.shape == trad.shape == hs.shape
    assert [v.hex() for v in new.tolist()] == [
        mise_new(m, mu0, sd0, float(h), n).hex() for h in hs]
    assert [v.hex() for v in trad.tolist()] == [mise_kernel(m, float(h), n).hex() for h in hs]
    # a 2-d array keeps its shape; a float gives a float (a list of two
    # bandwidths once gave one wrong float)
    assert np.array_equal(mise_new(m, mu0, sd0, hs.reshape(4, 32), n), new.reshape(4, 32))
    assert isinstance(mise_new(m, mu0, sd0, float(hs[3]), n), float)
    assert isinstance(mise_kernel(m, float(hs[3]), n), float)


def test_scalar_values_are_pinned():
    # digest of 480 scalar mise_new / mise_kernel values and the 15 domain
    # caps, as hex, computed with the one-bandwidth-at-a-time formulas
    lines = []
    for case in range(1, 16):
        m = marron_wand(case)
        mu0, sd0 = mixture_moments(m)
        cap = h_domain_cap(m, sd0, h_max=3.0 * sd0)
        hs = np.linspace(0.01 * sd0, min(3.0 * sd0, 0.98 * cap), 16)
        for n in (25, 1000):
            for h in hs:
                lines.append(f"{case} {n} {float(h).hex()} "
                             f"{mise_new(m, mu0, sd0, float(h), n).hex()} "
                             f"{mise_kernel(m, float(h), n).hex()} {cap.hex()}")
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b9323195264347e8221b5946b5d17ad44acb63ef3c8449836d7964961dd94280")


def test_array_domain_error_names_the_first_bad_bandwidth():
    m = NormalMixture(weights=[1.0], means=[0.0], sds=[1.0])
    cap = h_domain_cap(m, 1.0, h_max=3.0)
    with pytest.raises(MiseDomainError, match=f"at h={1.01 * cap!r}"):
        mise_new(m, 0.0, 1.0, [0.5 * cap, 1.01 * cap, 1.2 * cap], 100)


def test_benchmark_rows_match_reference():
    rows = benchmark_table([1], [25])
    r = rows[0]
    assert r.h_star_new == pytest.approx(0.7071, abs=1e-3)
    assert r.mise_star_new == pytest.approx(0.0113, abs=2e-4)
    assert r.h_star_trad == pytest.approx(0.6094, abs=1e-3)
    assert r.mise_star_trad == pytest.approx(0.0137, abs=2e-4)
    assert r.ratio == pytest.approx(0.8217, abs=5e-3)
    assert r.ratio == pytest.approx(r.mise_star_new / r.mise_star_trad, rel=1e-12)

    r7 = benchmark_table([7], [100])[0]
    assert r7.ratio == pytest.approx(0.9768, abs=5e-3)
    r2 = benchmark_table([2], [1000])[0]
    assert r2.ratio == pytest.approx(0.7396, abs=5e-3)


def _row_searches(case):
    """A test density's mixture, start moments and the two brackets of its table rows."""
    m = marron_wand(case)
    mu0, sd0 = mixture_moments(m)
    cap = h_domain_cap(m, sd0, h_max=3.0 * sd0)
    lo = 0.01 * sd0
    return m, mu0, sd0, (lo, min(3.0 * sd0, 0.98 * cap)), (lo, 3.0 * sd0)


def _serial_row(case, n):
    """A table row from two serial searches, one scalar mise call per point."""
    m, mu0, sd0, new_bracket, trad_bracket = _row_searches(case)
    h_new, mise_n = serial_optimal_h(lambda t: mise_new(m, mu0, sd0, t, n), new_bracket)
    h_trad, mise_t = serial_optimal_h(lambda t: mise_kernel(m, t, n), trad_bracket)
    return MiseReport(str(case), n, h_new, mise_n, h_trad, mise_t, mise_n / mise_t)


# the claw's (case 10) searches rescan at 4x resolution at n = 50 and not at
# n = 25, and the outlier's and the discrete comb's (14, 15) corrected ones
# the other way round, so the rows of one case finish in different rounds
RESCAN_NS = (25, 50)


def test_table_rows_have_the_bits_of_serial_searches():
    rows = benchmark_table(range(1, 16), RESCAN_NS)
    assert [repr(r) for r in rows] == [repr(_serial_row(c, n))
                                       for c in range(1, 16) for n in RESCAN_NS]


def _rounds(curve, bracket):
    """The bandwidth-array sizes one search asks for, one per round."""
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return curve(t)

    optimal_h(counted, bracket)
    return sizes


@pytest.mark.parametrize("case", range(1, 16))
def test_a_case_evaluates_its_n_free_terms_once_per_round(monkeypatch, case):
    m, mu0, sd0, new_bracket, trad_bracket = _row_searches(case)
    new_rounds = [_rounds(lambda t: mise_new(m, mu0, sd0, t, n), new_bracket) for n in RESCAN_NS]
    trad_rounds = [_rounds(lambda t: mise_kernel(m, t, n), trad_bracket) for n in RESCAN_NS]
    if case == 10:
        assert [r[1] for r in new_rounds] == [r[1] for r in trad_rounds] == [2, 512]
    if case in (14, 15):
        assert [r[1] for r in new_rounds] == [512, 2]

    calls = {"new": 0, "trad": 0, "cap": 0}

    def count(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(exact_mise._NewTerms, "__call__",
                        count("new", exact_mise._NewTerms.__call__))
    monkeypatch.setattr(exact_mise, "_kernel_terms", count("trad", exact_mise._kernel_terms))
    monkeypatch.setattr(exact_mise, "h_domain_cap", count("cap", exact_mise.h_domain_cap))
    benchmark_table([case], RESCAN_NS)
    # one evaluation per round of the slowest row, about 11-12 per curve,
    # rather than one per row per round
    assert calls == {"new": max(map(len, new_rounds)), "trad": max(map(len, trad_rounds)),
                     "cap": 1}


def test_reports_csv_shape():
    rows = benchmark_table([1], [25, 100])
    text = reports_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "case,n,h_new,mise_new,h_trad,mise_trad,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert all(np.isfinite(float(f)) for f in fields[2:])


def test_benchmark_validation():
    with pytest.raises(ValueError):
        benchmark_table([0], [25])
    with pytest.raises(ValueError):
        benchmark_table([1], [0])
