import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from semistart.densities import (NormalMixture, marron_wand, mixture_moments,
                                 mixture_pdf, mixture_sample)
from semistart.exact_mise import (MiseDomainError, NewMiseInputs, benchmark_table,
                                  gaussian_product_integral, h_domain_cap, ise_new,
                                  mise_kernel, mise_new, optimal_h, r_f,
                                  reports_to_csv)

from conftest import SQRT_2PI, SQRT_PI, phi, phi_scaled


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
    got = mise_new(NewMiseInputs(m, 0.0, 1.0, 1.0 / np.sqrt(2.0)), 100)
    assert got == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi) * 100), rel=1e-12)
    assert got == pytest.approx(0.0028209, abs=5e-8)


def test_mise_new_flat_start_limit_case6():
    m = marron_wand(6)
    mu0, _ = mixture_moments(m)
    for h in (0.2, 0.5, 1.0):
        a = mise_new(NewMiseInputs(m, mu0, 1e4, h), 100)
        b = mise_kernel(m, h, 100)
        assert abs(a - b) < 1e-6


def test_mise_new_domain_error_names_term():
    # a narrow start under a wide component breaks the diagonal radicand first
    m = NormalMixture(weights=[1.0], means=[0.0], sds=[1.0])
    with pytest.raises(MiseDomainError, match="mise formula domain violated"):
        mise_new(NewMiseInputs(m, 0.0, 1.0, 1.2), 100)
    cap = h_domain_cap(m, 1.0, h_max=3.0)
    assert mise_new(NewMiseInputs(m, 0.0, 1.0, 0.99 * cap), 100) > 0.0
    with pytest.raises(MiseDomainError):
        mise_new(NewMiseInputs(m, 0.0, 1.0, 1.01 * cap), 100)


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
    got = mise_new(NewMiseInputs(m, mu0, sd0, h), n)
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
    h, v = optimal_h(lambda t: (t - 2.0) ** 2 + 1.0, (0.5, 4.0), tol=1e-9)
    assert h == pytest.approx(2.0, abs=1e-6)
    assert v == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        optimal_h(lambda t: t, (1.0, 0.5))


def test_optimal_h_table_spot_values():
    m = marron_wand(1)
    h, v = optimal_h(lambda t: mise_new(NewMiseInputs(m, 0.0, 1.0, t), 100),
                     (0.01, 0.97), scan_points=128, tol=1e-9)
    assert h == pytest.approx(0.7071, abs=5e-4)
    ht, vt = optimal_h(lambda t: mise_kernel(m, t, 1000), (0.01, 3.0),
                       scan_points=128, tol=1e-9)
    assert ht == pytest.approx(0.2723, abs=5e-4)
    assert vt == pytest.approx(0.0010, abs=5e-5)


def test_optimal_h_handles_two_basins():
    # comb-like truth at a size where the error curve has two local minima
    m = marron_wand(10)
    mu0, sd0 = mixture_moments(m)
    h, _ = optimal_h(lambda t: mise_kernel(m, t, 100), (0.01 * sd0, 3.0 * sd0),
                     scan_points=64, tol=1e-9)
    assert h == pytest.approx(0.0959, abs=1e-3)


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
