"""Acceptance suite: one test per criterion, one printed verdict line each.

Verdict lines bypass pytest's capture (capsys.disabled) so they are always
visible.  Every tolerance is fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

import semistart as ss
from semistart.estimator import DensityEstimate, estimate_semiparametric
from semistart.kernels import kernel_props
from semistart.starts import FittedStart, fit_start

from conftest import gaussian_product_integral, ise_new, phi, phi_scaled

G = kernel_props("gaussian")
SQRT_PI = np.sqrt(np.pi)


def report(capsys, criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {verdict} - {detail}", flush=True)


TABLE_RHO = {
    1: (0.7330, 0.0, 1.8933, 0.0), 2: (0.8921, 0.6739, 2.0343, 1.7910),
    3: (5.6070, 5.5985, 3.4988, 3.5202), 4: (3.8664, 3.8354, 3.5512, 3.5369),
    5: (2.3201, 2.2088, 2.9388, 2.9042), 6: (1.1183, 1.0615, 2.1786, 2.0575),
    7: (2.0215, 1.9579, 2.4701, 2.4177), 8: (1.3753, 1.3468, 2.3095, 2.1998),
    9: (1.5600, 1.5335, 2.4608, 2.3763), 10: (3.5571, 3.5421, 3.8812, 3.8674),
    11: (12.4450, 12.4447, 5.5611, 5.5590), 12: (6.4350, 6.4382, 4.0978, 4.0909),
    13: (11.1149, 11.1147, 4.9481, 4.9465), 14: (14.6610, 14.6615, 4.8733, 4.8703),
    15: (9.6259, 9.6261, 4.3863, 4.3821),
}

TABLE_MISE = {
    (1, 25): (0.7071, 0.0113, 0.6094, 0.0137, 0.8217),
    (1, 100): (0.7071, 0.0028, 0.4455, 0.0054, 0.5215),
    (1, 1000): (0.7071, 0.0003, 0.2723, 0.0010, 0.2740),
    (2, 25): (0.3928, 0.0228, 0.4251, 0.0211, 1.0772),
    (2, 100): (0.3544, 0.0068, 0.3054, 0.0083, 0.8250),
    (2, 1000): (0.2381, 0.0012, 0.1841, 0.0016, 0.7396),
    (6, 25): (0.5568, 0.0197, 0.6028, 0.0182, 1.0792),
    (6, 100): (0.3823, 0.0075, 0.3854, 0.0075, 1.0067),
    (6, 1000): (0.2278, 0.0013, 0.2208, 0.0014, 0.9663),
    (7, 25): (0.3701, 0.0303, 0.3661, 0.0306, 0.9881),
    (7, 100): (0.2674, 0.0110, 0.2616, 0.0112, 0.9768),
    (7, 1000): (0.1620, 0.0019, 0.1575, 0.0020, 0.9700),
    (12, 25): (0.7289, 0.0363, 0.6657, 0.0359, 1.0121),
    (12, 100): (0.1989, 0.0232, 0.2016, 0.0229, 1.0115),
    (12, 1000): (0.0675, 0.0064, 0.0678, 0.0064, 1.0043),
}


def test_criterion_1_roughness_table(capsys):
    t0 = time.perf_counter()
    bad = []
    for case, (rt, rn, r1t, r1n) in TABLE_RHO.items():
        m = ss.marron_wand(case)
        rr = ss.roughness(m)
        l1 = ss.l1_measures(m)
        if abs(rr.rho_trad - rt) > 5e-4 or abs(rr.rho_new - rn) > 5e-4:
            bad.append((case, "rho", rr.rho_trad, rr.rho_new))
        if abs(l1.rho1_trad - r1t) > 5e-3 or abs(l1.rho1_new - r1n) > 5e-3:
            bad.append((case, "rho1", l1.rho1_trad, l1.rho1_new))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(capsys, 1, ok, f"roughness table, 15 cases, {elapsed:.1f}s"
           + (f"; mismatches: {bad}" if bad else ""))
    assert not bad
    assert elapsed < 10.0


def test_criterion_2_exact_mise_table(capsys):
    t0 = time.perf_counter()
    rows = ss.benchmark_table([1, 2, 6, 7, 12], [25, 100, 1000])
    bad = []
    for r in rows:
        hn, mn, ht, mt, ratio = TABLE_MISE[(int(r.case_id), r.n)]
        if (abs(r.h_star_new - hn) > 1e-3 or abs(r.mise_star_new - mn) > 2e-4
                or abs(r.h_star_trad - ht) > 1e-3 or abs(r.mise_star_trad - mt) > 2e-4
                or abs(r.ratio - ratio) > 5e-3):
            bad.append((r.case_id, r.n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(capsys, 2, ok, f"exact-mise table, 15 rows, {elapsed:.1f}s"
           + (f"; mismatches: {bad}" if bad else ""))
    assert not bad
    assert elapsed < 60.0


def test_criterion_3_home_turf(capsys):
    worst_h, worst_rel = 0.0, 0.0
    for sd in (0.5, 1.0, 3.0):
        m = ss.NormalMixture(weights=[1.0], means=[0.0], sds=[sd])
        cap = ss.h_domain_cap(m, sd, h_max=3.0 * sd)
        for n in (25, 1000):
            h_star, mise_star = ss.optimal_h(
                lambda t: ss.mise_new(m, 0.0, sd, t, n),
                (0.01 * sd, 0.98 * cap))
            worst_h = max(worst_h, abs(h_star - sd / np.sqrt(2.0)))
            target = 1.0 / (2.0 * SQRT_PI * sd * n)
            worst_rel = max(worst_rel, abs(mise_star - target) / target)
    ok = worst_h < 1e-4 and worst_rel < 1e-9
    report(capsys, 3, ok, f"home turf: max |h* - sd/sqrt2| = {worst_h:.2e}, "
                  f"max rel mise err = {worst_rel:.2e}")
    assert worst_h < 1e-4
    assert worst_rel < 1e-9


def test_criterion_4_flat_start_limit(capsys):
    worst = 0.0
    for case in range(1, 16):
        m = ss.marron_wand(case)
        mu0, _ = ss.mixture_moments(m)
        for h in (0.2, 0.5, 1.0):
            diff = abs(ss.mise_new(m, mu0, 1e4, h, 100)
                       - ss.mise_kernel(m, h, 100))
            worst = max(worst, diff)
    ok = worst < 1e-6
    report(capsys, 4, ok, f"flat-start limit, 15 cases x 3 bandwidths: max |diff| = {worst:.2e}")
    assert worst < 1e-6


def test_criterion_5_mise_formula_monte_carlo(capsys):
    t0 = time.perf_counter()
    m = ss.marron_wand(6)
    mu0, sd0 = ss.mixture_moments(m)
    reps, n, h = 2000, 100, 0.4
    vals = np.empty(reps)
    for r in range(reps):
        x = ss.mixture_sample(m, n, seed=11_000 + r)
        vals[r] = ise_new(x, mu0, sd0, h, m)
    target = ss.mise_new(m, mu0, sd0, h, n)
    se = vals.std(ddof=1) / np.sqrt(reps)
    z = (vals.mean() - target) / se
    elapsed = time.perf_counter() - t0
    ok = abs(z) <= 3.0 and elapsed < 120.0
    report(capsys, 5, ok, f"monte-carlo vs exact mise: z = {z:+.2f}, {elapsed:.1f}s")
    assert abs(z) <= 3.0
    assert elapsed < 120.0


def _exact_mean(m, mu0, sd0, h, x0):
    """E f_hat(x0) at a finite h for the gaussian kernel and the normal start
    N(mu0, sd0^2): f0(x0) * int K_h(y - x0) f(y)/f0(y) dy, by quadrature.

    Written with y = x0 + h*u, so the integrand is phi(u) r(x0 + h*u) and the
    mass sits on |u| < 12 whatever h is.  Uses no estimator code.
    """
    def r(y):
        return float(np.sum(m.weights * phi_scaled(m.sds, y - m.means))
                     / phi_scaled(sd0, y - mu0))

    val, _ = quad(lambda u: phi(u) * r(x0 + h * u), -12.0, 12.0,
                  limit=200, epsabs=1e-14, epsrel=1e-13)
    return float(phi_scaled(sd0, x0 - mu0)) * val


def test_criterion_6_pointwise_bias_and_variance(capsys):
    # Pointwise bias and variance of the corrected estimator with the
    # true-parameter normal start.  The bias claim is asymptotic:
    # E f_hat(x) - f(x) = 1/2 sigma2_K h^2 f0(x) r''(x) + O(h^4), r = f/f0.
    # At the pinned h = 0.3 the O(h^4) remainder is about 9% of the h^2 term,
    # many monte-carlo standard errors wide, so the h^2 term is checked as a
    # limit and not against the monte-carlo band.  Three legs:
    # - monte-carlo: the mean of 400 estimates lies within 3 se of the exact
    #   finite-h mean E f_hat(x) from quadrature (checks the estimator);
    # - leading order (deterministic): rem(h) = E f_hat(x) - f(x) - h^2 term
    #   shrinks 15-17x per halving of h, and at h = 0.025 is below 1e-3 of
    #   the h^2 term (checks bias_factors and the second-order claim);
    # - variance: the monte-carlo variance lies within 3 se of
    #   R(K) f / (n h) - f^2 / n.
    # The verdict line reports the remainder at h = 0.3 as a share of the
    # h^2 term, so the size of the gap stays visible.
    m = ss.marron_wand(6)
    mu0, sd0 = ss.mixture_moments(m)
    reps, n, h = 400, 10_000, 0.3
    pts = np.array([0.0, 1.0, -1.0])
    start = FittedStart("normal", {"mu": mu0, "sd": sd0}, clip=None)
    est_vals = np.empty((reps, pts.size))
    for r in range(reps):
        x = ss.mixture_sample(m, n, seed=60_000 + r)
        est_vals[r] = estimate_semiparametric(DensityEstimate(x, G, h, start), pts)

    f_true = ss.mixture_pdf(m, pts)
    _, f0rpp = ss.bias_factors(m, pts)

    def h2_term(hh):
        return 0.5 * G.sigma2_K * hh * hh * f0rpp

    def exact_mean(hh):
        return np.array([_exact_mean(m, mu0, sd0, hh, x0) for x0 in pts])

    mean_exact = exact_mean(h)
    se_mean = est_vals.std(axis=0, ddof=1) / np.sqrt(reps)
    var_mc = est_vals.var(axis=0, ddof=1)
    var_th = G.rough_K * f_true / (n * h) - f_true**2 / n
    se_var = var_mc * np.sqrt(2.0 / (reps - 1))
    gap = (mean_exact - f_true - h2_term(h)) / h2_term(h)

    hs = (0.2, 0.1, 0.05, 0.025)
    rems = [exact_mean(hh) - f_true - h2_term(hh) for hh in hs]
    ratios = [a / b for a, b in zip(rems[:-1], rems[1:])]
    tail = rems[-1] / h2_term(hs[-1])

    failures = []
    details = []
    for i, x0 in enumerate(pts):
        zb = (est_vals[:, i].mean() - mean_exact[i]) / se_mean[i]
        zv = (var_mc[i] - var_th[i]) / se_var[i]
        details.append(f"x={x0:+.0f}: mean z={zb:+.1f}, var z={zv:+.1f}, "
                       f"h^4 gap {100 * gap[i]:+.1f}%")
        if abs(zb) > 3.0:
            failures.append(f"mean at x={x0:+.0f} off the exact mean by {zb:+.1f} se")
        if abs(zv) > 3.0:
            failures.append(f"variance at x={x0:+.0f} off by {zv:+.1f} se")
        for hh, q in zip(hs, ratios):
            if not 15.0 <= q[i] <= 17.0:
                failures.append(f"rem({hh:g})/rem({hh / 2:g}) at x={x0:+.0f} = {q[i]:.2f}")
        if abs(tail[i]) >= 1e-3:
            failures.append(f"rem/h^2 term at h={hs[-1]:g}, x={x0:+.0f} = {tail[i]:.1e}")
    ok = not failures
    report(capsys, 6, ok, "pointwise bias/variance at h=0.3: " + "; ".join(details)
           + f"; leading order: rem ratios {min(q.min() for q in ratios):.2f}"
           f"-{max(q.max() for q in ratios):.2f}")
    assert not failures, failures


def test_criterion_7_closed_forms_vs_quadrature(capsys):
    checks = []

    # pair-sum roughnesses against direct quadrature on every test density
    for case in range(1, 16):
        m = ss.marron_wand(case)
        rr = ss.roughness(m)
        lo, hi = m.support_window()
        rt, _ = quad(lambda x: ss.bias_factors(m, x)[0] ** 2, lo, hi,
                     limit=800, epsabs=1e-12)
        rn, _ = quad(lambda x: ss.bias_factors(m, x)[1] ** 2, lo, hi,
                     limit=800, epsabs=1e-12)
        checks.append(abs(rr.r_trad - rt) <= 1e-5 * rt)
        checks.append(abs(rr.r_new - rn) <= 1e-5 * max(rn, 1e-8))
        # squared-density mass
        rf, _ = quad(lambda x: ss.mixture_pdf(m, x) ** 2, lo, hi,
                     limit=800, epsabs=1e-13)
        checks.append(abs(ss.r_f(m) - rf) <= 1e-10 + 1e-9 * rf)

    # gaussian product integrals
    for factors in ([(1.0, 0.0), (1.0, 0.0)],
                    [(1.0, 0.0), (1.0, 1.0), (2.0, -1.0)],
                    [(0.4, 0.2), (0.9, -0.7)]):
        val, _ = quad(lambda x: np.prod([phi_scaled(s, x - mu) for s, mu in factors],
                                        axis=0), -20, 20, limit=400, epsabs=1e-14)
        got = gaussian_product_integral(factors, a=0.3)
        checks.append(abs(got - val) <= 1e-10 * max(1.0, val))

    # total-mass closed form of the corrected estimate
    x = ss.mixture_sample(ss.marron_wand(1), 500, seed=77)
    st = FittedStart("normal", {"mu": float(x.mean()), "sd": float(x.std())}, clip=None)
    est = DensityEstimate(x, G, 0.3, st)
    closed = ss.integral_of_estimate(est)
    val, _ = quad(lambda t: estimate_semiparametric(est, t), x.min() - 4, x.max() + 4,
                  limit=400, epsabs=1e-12)
    checks.append(abs(closed - val) <= 1e-8)

    # cross-validation integral term
    from semistart.bandwidth import _ucv_integral_term
    xt = ss.mixture_sample(ss.marron_wand(1), 40, seed=34)
    stt = fit_start("normal", xt)
    grid = np.linspace(xt.min() - 8, xt.max() + 8, 2000)
    fh = np.zeros_like(grid)
    for xi in xt:
        fh += phi_scaled(0.35, xi - grid) / float(phi_scaled(stt.params["sd"],
                                                             xi - stt.params["mu"]))
    fh *= phi_scaled(stt.params["sd"], grid - stt.params["mu"]) / xt.size
    checks.append(abs(_ucv_integral_term(xt, stt, 0.35) - float(np.trapezoid(fh**2, grid)))
                  <= 1e-8)

    n_bad = checks.count(False)
    report(capsys, 7, n_bad == 0, f"closed forms vs quadrature: {len(checks)} checks, {n_bad} failed")
    assert n_bad == 0


def test_criterion_8_invariance_suite(capsys):
    failures = []

    # scale invariance of the dimensionless difficulty scores
    for case in range(1, 16):
        m = ss.marron_wand(case)
        base = ss.roughness(m)
        base_l1 = ss.l1_measures(m)
        for c in (0.1, 3.0):
            sm = ss.NormalMixture(weights=m.weights, means=c * m.means, sds=c * m.sds)
            rr = ss.roughness(sm)
            l1 = ss.l1_measures(sm)
            if (abs(rr.rho_trad - base.rho_trad) > 1e-8
                    or abs(rr.rho_new - base.rho_new) > 1e-8):
                failures.append(f"rho scale case {case} c={c}")
            if (abs(l1.rho1_trad - base_l1.rho1_trad) > 1e-8
                    or abs(l1.rho1_new - base_l1.rho1_new) > 1e-8):
                failures.append(f"rho1 scale case {case} c={c}")

    # affine equivariance of the d-dimensional corrected estimator
    rng = np.random.Generator(np.random.Philox(8))
    data = rng.standard_normal((300, 2))
    A = np.array([[2.0, 0.5], [-0.3, 1.2]])
    b = np.array([1.0, -2.0])
    e = ss.MvEstimate.fit(data, h=0.5)
    em = ss.MvEstimate.fit(data @ A.T + b, h=0.5)
    pts = rng.standard_normal((6, 2))
    lhs = ss.mv_estimate(em, pts @ A.T + b) * abs(np.linalg.det(A))
    if np.max(np.abs(lhs - ss.mv_estimate(e, pts))) > 1e-8:
        failures.append("multivariate affine equivariance")

    # scale equivariance of every data-driven bandwidth rule
    x = ss.mixture_sample(ss.marron_wand(6), 150, seed=36)
    c = 3.0

    def all_rules(data):
        st = fit_start("normal", data)
        sd = float(np.std(data))
        grid = np.linspace(0.1 * sd, ss.h_oversmoothed(sd, data.size, G), 16)
        return np.array([ss.rule_gamma(data, G).h,
                         ss.rule_delta(data, G).h,
                         ss.rule_plugin(data, st, G).h,
                         ss.bcv(data, st, G, grid).h,
                         ss.ucv(data, st, G, grid).h])

    ratio = all_rules(c * x) / all_rules(x)
    if np.max(np.abs(ratio - c)) > 1e-8 * c:
        failures.append(f"bandwidth scale equivariance: ratios {ratio}")

    # Hermite recurrence against high-precision derivatives of phi
    import mpmath
    mpmath.mp.dps = 40
    mphi = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    rng2 = np.random.default_rng(4)
    for j in range(9):
        for x0 in rng2.uniform(-2.5, 2.5, 6):
            want = float((-1) ** j * mpmath.diff(mphi, float(x0), j) / mphi(float(x0)))
            got = ss.hermite_poly(j, float(x0))
            if abs(got - want) > 1e-4 * max(1.0, abs(want)):
                failures.append(f"hermite identity j={j}")

    report(capsys, 8, not failures, "invariance suite"
           + (f"; failures: {sorted(set(failures))}" if failures else ": all held"))
    assert not failures, failures


def test_criterion_9_cross_validation_near_unbiasedness(capsys):
    m = ss.marron_wand(1)
    reps, n, h = 400, 100, 0.5
    vals = np.empty(reps)
    for r in range(reps):
        x = ss.mixture_sample(m, n, seed=6000 + r)
        ch = ss.ucv(x, fit_start("normal", x), G, [h])
        vals[r] = ch.diagnostics["curve"][0]
    target = ss.mise_new(m, 0.0, 1.0, h, n)
    se = vals.std(ddof=1) / np.sqrt(reps)
    z = (vals.mean() + ss.r_f(m) - target) / se
    ok = abs(z) <= 3.0
    report(capsys, 9, ok, f"cross-validation near-unbiasedness: z = {z:+.2f}")
    assert abs(z) <= 3.0
