import json
import math

import mpmath
import numpy as np
import pytest

SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_PI = np.sqrt(np.pi)
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def phi(z):
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


def phi_scaled(sd, u):
    return phi(np.asarray(u) / sd) / sd


def gaussian_product_integral(factors, a=0.0):
    """int prod_j phi_{sd_j}(x - mu_j) dx, exactly, for factors (sd_j, mu_j).

    Equals sqrt(2 pi) st * [prod phi_{sd_j}(mu_j - a)] *
    exp{ st^2/2 * (sum (mu_j - a)/sd_j^2)^2 } with 1/st^2 = sum 1/sd_j^2;
    the reference point a is arbitrary and only matters for conditioning.
    """
    sd = np.asarray([f[0] for f in factors], dtype=float)
    mu = np.asarray([f[1] for f in factors], dtype=float)
    st2 = 1.0 / float(np.sum(1.0 / sd**2))
    log_phi = -HALF_LOG_2PI - np.log(sd) - 0.5 * ((mu - a) / sd) ** 2
    log_val = (HALF_LOG_2PI + 0.5 * np.log(st2) + float(np.sum(log_phi))
               + 0.5 * st2 * float(np.sum((mu - a) / sd**2)) ** 2)
    return float(np.exp(log_val))


def literal_profile(h, z):
    """The gaussian profile exp(-(z/h)^2/2) as one literal expression."""
    return np.exp(-0.5 * (z / h) * (z / h))


def literal_gaussian(h, z):
    """The gaussian K_h(z) as one literal expression, with eval_scaled's bits."""
    return literal_profile(h, z) / SQRT_2PI / h


def literal_window_exponent(h, z):
    """The exponent of the windowed sums' gaussian weight, ((z * (1/h))^2) * -0.5.

    kernels.window_sums multiplies by 1/h where eval_scaled divides by h, so
    the two differ in the last bits of the exponent, and by up to about
    1e-13 of a weight 38 bandwidths out.
    """
    return ((z * (1.0 / h)) ** 2) * -0.5


def literal_window_weight(h, z):
    """The windowed sums' gaussian weight exp(literal_window_exponent) as one literal expression."""
    return np.exp(literal_window_exponent(h, z))


# The grid x data sums written out as whole-array expressions, with none of
# the in-place work, the windows or the compacted tiny and subnormal kernel
# lanes: the full-row oracles of the density sums and of gnw_estimate, and
# mv_estimate's fill, bit for bit.

def literal_correction(e, x):
    """(1/n) sum K_h(X_i - x)/fbar(X_i) at every point of x at once, summing every datum."""
    z = e.data - np.asarray(x, dtype=float).ravel()[:, None]
    vals = literal_kernel_profile(e.kernel.shape, e.h, z)
    if e.kernel.shape == "gaussian":
        vals = vals / SQRT_2PI
    vals = vals / e.h
    if e.den is not None:
        vals = vals / e.den
    return np.sum(vals, axis=-1) / e.n


def mp_log_correction(e, pts, dps=40):
    """log rhat at each point, gaussian kernel, with the sum of the program's floats in mpmath.

    The data, fbar(X_i), the points and h are the program's floats; the terms
    exp(-((X_i - x)/h)^2/2)/fbar(X_i) and their sum carry dps digits, so no
    term underflows or loses digits to a large exponent.  Terms whose
    exponent, estimated in floats, lies more than 100 below the largest are
    left out: together they weigh below n e^-100 of the sum.
    """
    den = np.ones(e.n) if e.den is None else e.den
    out = []
    with np.errstate(over="ignore"):
        expo = -0.5 * ((e.data[None, :] - np.ravel(pts)[:, None]) / e.h) ** 2 - np.log(den)
    with mpmath.workdps(dps):
        h = mpmath.mpf(e.h)
        scale = e.n * mpmath.sqrt(2 * mpmath.pi) * h
        for p, row in zip(np.ravel(pts), expo):
            keep = np.flatnonzero(row >= row.max() - 100.0)
            terms = (mpmath.exp(-((mpmath.mpf(e.data[i]) - mpmath.mpf(p)) / h) ** 2 / 2)
                     / mpmath.mpf(den[i]) for i in keep)
            out.append(float(mpmath.log(mpmath.fsum(terms) / scale)))
    return np.array(out)


# Within this many bandwidths of the data every lane that can move a full-row
# sum by 1e-16 of it lies above e^-700, normal, wherever the 1/fbar weights
# span below about e^120, as in every test here
LITERAL_REACH = 30.0


def check_correction(e, x, r, log_r=None):
    """Assert that r (and log_r) are e's correction sums rhat (and their logs) at x.

    Within LITERAL_REACH bandwidths of the data, and everywhere for a compact
    kernel, r lies within 1e-14 of the full-row sum literal_correction: the
    terms are positive, so the value is their scale.  Farther out the
    gaussian full-row terms are tiny or subnormal, and the oracle is
    mp_log_correction: there log_r, and r where its oracle is not 0, may miss
    by an allowance of 1e-14 plus 2^-51 (t0^2 + |log rhat|), t0 the point's
    distance to the nearest datum in bandwidths.  A value is exp(y) with
    y = log S - t0^2/2 - log(n sqrt(2 pi) h), so it carries y's absolute
    rounding, a few ulps of its terms, as its relative error; a subnormal
    value is held to that plus one subnormal spacing 2^-1074.
    """
    pts = np.asarray(x, dtype=float).ravel()
    r = np.asarray(r).ravel()
    t0 = np.min(np.abs(pts[:, None] - e.data[None, :]), axis=1) / e.h
    near = (t0 <= LITERAL_REACH) | (e.kernel.shape != "gaussian")
    want = literal_correction(e, pts[near])
    assert np.all(np.abs(r[near] - want) <= 1e-14 * want)
    if np.all(near):
        return
    mp = mp_log_correction(e, pts[~near])
    allow = 1e-14 + 2.0**-51 * (t0[~near] ** 2 + np.abs(mp))
    with np.errstate(under="ignore"):
        mp_r = np.exp(mp)
    assert np.all(np.abs(r[~near] - mp_r) <= allow * mp_r + 2.0**-1074)
    if log_r is not None:
        assert np.all(np.abs(np.asarray(log_r).ravel()[~near] - mp) <= allow)


def literal_kernel_profile(shape, h, z):
    """A kernel's unnormalised profile K(z/h) as one literal expression, as window_sums weighs."""
    if shape == "gaussian":
        return literal_window_weight(h, z)
    u = z / h
    inside = np.abs(u) <= 0.5
    return np.where(inside, 1.5 * (1.0 - 4.0 * u * u), 0.0) if shape == "epanechnikov" \
        else np.where(inside, 1.0, 0.0)


def _gnw_factors(fit, pts):
    """The column weights y_i/m(x_i) and row factors m(x) of gnw_estimate at pts."""
    from semistart.regression import _clipped_mean
    if fit.mean_start.kind == "constant":
        return fit.y, np.ones(pts.size)
    return fit.y / _clipped_mean(fit, fit.x), _clipped_mean(fit, pts)


def literal_gnw(fit, x):
    """gnw_estimate at every point of x at once, flattened, as the full-row sum.

    Every datum weighs in, by the unnormalised profile; the mean ratio is a
    column weight y_i/m(x_i) and a row factor m(x) applied after the sums.
    Returns the values and their terms' scale sum_i w_i |r_i y_i| / sum_i w_i,
    r_i = m(x)/m(x_i), which is the value's magnitude when nothing cancels.
    """
    pts = np.asarray(x, dtype=float).ravel()
    col, row = _gnw_factors(fit, pts)
    w = literal_kernel_profile(fit.kernel.shape, fit.h, pts[:, None] - fit.x[None, :])
    wsum = w.sum(axis=1)
    return ((w * col[None, :]).sum(axis=1) / wsum * row,
            (w * np.abs(col)[None, :]).sum(axis=1) / wsum * np.abs(row))


def mp_gnw(fit, x, dps=40):
    """literal_gnw's values and scales with the gaussian sums taken in mpmath.

    The column weights and row factors are the program's floats; the weights
    exp(-(x - x_i)^2/(2 h^2)) and the three sums carry dps digits, so no
    weight underflows or loses digits to a large exponent.  Also returns
    log10 of the normalised kernel's weight sum, sum_i K_h(x - x_i), which
    the smoother compares with 1e-300 to find points with no local data.
    """
    pts = np.asarray(x, dtype=float).ravel()
    col, row = _gnw_factors(fit, pts)
    vals, scales, mass = [], [], []
    with mpmath.workdps(dps):
        h = mpmath.mpf(fit.h)
        for p, r in zip(pts, row):
            w = [mpmath.exp(-(mpmath.mpf(p) - mpmath.mpf(xi)) ** 2 / (2 * h * h)) for xi in fit.x]
            wsum = mpmath.fsum(w)
            vals.append(float(mpmath.fsum(wi * mpmath.mpf(c) for wi, c in zip(w, col)) / wsum * r))
            scales.append(float(mpmath.fsum(wi * abs(mpmath.mpf(c)) for wi, c in zip(w, col))
                                / wsum * abs(r)))
            mass.append(float(mpmath.log10(wsum / (mpmath.sqrt(2 * mpmath.pi) * h))))
    return np.array(vals), np.array(scales), np.array(mass)


def literal_sphere(e, pts):
    """Evaluation points in e's sphered coordinates, summing over k in order."""
    y = np.zeros_like(pts)
    for j in range(pts.shape[1]):
        for k in range(pts.shape[1]):
            y[:, j] += (pts[:, k] - e.mean[k]) * e.inv_root[j, k]
    return y


def literal_mv(e, pts):
    """mv_estimate at the rows of pts, as one whole-array expression.

    The squared distances are direct differences summed over k in order,
    and -q(x)/2 - d log(sqrt(2 pi) h) - log|cov|/2 is one per-row term.
    """
    d = e.data.shape[1]
    yp = literal_sphere(e, pts)
    q_pts = np.sum(yp * yp, axis=1)
    if e.clip is not None:
        q_pts = np.minimum(q_pts, e.clip**2)
    sq = sum((yp[:, k, None] - e.sphered[None, :, k]) ** 2 for k in range(d))
    row = -0.5 * q_pts - (d * np.log(SQRT_2PI * e.h) + e.half_logdet)
    expo = sq * (-0.5 / e.h**2) + (row[:, None] + 0.5 * e.q_data[None, :])
    return np.exp(expo).mean(axis=1)


def literal_em(x, k, rng, max_iter=None):
    """One seeded EM run with (n, k) whole-array E and M expressions.

    The oracle of starts._em_once: the same seeding, stopping rule, collapse
    floor and decrease check, with each step written as one expression.
    Returns (mixture, decreased, iterations, converged), converged when the
    last iteration gained less than EM_TOL; max_iter defaults to
    EM_MAX_ITER, and a smaller one stops the run early.
    """
    from semistart.densities import NormalMixture
    from semistart.starts import EM_MAX_ITER, EM_TOL

    n = x.size
    sd_all = x.std()
    centers = [x[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min((x[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        if d2.sum() <= 0:
            centers.append(x[rng.integers(n)])
        else:
            centers.append(x[rng.choice(n, p=d2 / d2.sum())])
    mu = np.asarray(centers, dtype=float)
    sd = np.full(k, max(sd_all / k, 1e-3 * sd_all))
    w = np.full(k, 1.0 / k)

    last_ll = -np.inf
    floor = 1e-6 * sd_all
    it = 0
    for it in range(1, (EM_MAX_ITER if max_iter is None else max_iter) + 1):
        logp = (np.log(w)[None, :] - np.log(sd)[None, :] - np.log(SQRT_2PI)
                - 0.5 * ((x[:, None] - mu[None, :]) / sd[None, :]) ** 2)
        m = logp.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logp - m).sum(axis=1))
        ll = float(lse.sum())
        if ll + 1e-9 < last_ll:
            return None, True, it, False
        resp = np.exp(logp - lse[:, None])
        nk = resp.sum(axis=0)
        if np.any(nk <= 0):
            return None, False, it, False
        w = nk / n
        mu = resp.T @ x / nk
        var = (resp * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / nk
        sd = np.sqrt(var)
        if np.any(sd < floor):
            return None, False, it, False
        if ll - last_ll < EM_TOL and np.isfinite(last_ll):
            return NormalMixture(weights=w / w.sum(), means=mu, sds=sd), False, it, True
        last_ll = ll
    return NormalMixture(weights=w / w.sum(), means=mu, sds=sd), False, it, False


def split_quad_mass(e):
    """The normal start's raw mass (1/n) sum_i M_i/fbar(X_i), each M_i by quad.

    M_i = int fbar(x) K_h(x - X_i) dx is integrated piece by piece between
    the kinks of its integrand, the clip edges and, for a compact kernel, the
    support's ends X_i +/- h/2, each piece with epsrel=1e-13.  A gaussian
    kernel's pieces run from X_i - 40h to X_i + 40h and are also split at
    every h within 12h of X_i, so that no piece hides its bump from quad.
    """
    from scipy.integrate import quad

    mu, sd = e.start.params["mu"], e.start.params["sd"]
    shape, h, floor = e.kernel.shape, float(e.h), e.start.floor

    def fbar(t):
        if floor is not None and t < floor[0]:
            return floor[2]
        if floor is not None and t > floor[1]:
            return floor[3]
        return math.exp(-0.5 * ((t - mu) / sd) ** 2) / (SQRT_2PI * sd)

    terms = []
    for xi, den in zip(e.data.tolist(), e.den.tolist()):
        if shape == "gaussian":
            a, b = xi - 40.0 * h, xi + 40.0 * h
            cuts = [xi + j * h for j in range(-12, 13)]

            def kh(t):
                return math.exp(-0.5 * ((t - xi) / h) ** 2) / (SQRT_2PI * h)
        else:
            a, b = xi - 0.5 * h, xi + 0.5 * h
            cuts = []

            def kh(t):
                v = (t - xi) / h
                return (1.5 * (1.0 - 4.0 * v * v) if shape == "epanechnikov" else 1.0) / h
        if floor is not None:
            cuts += floor[:2]
        pts = sorted({a, b, *(p for p in cuts if a < p < b)})
        mass = math.fsum(quad(lambda t: fbar(t) * kh(t), p, q, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0] for p, q in zip(pts[:-1], pts[1:]))
        terms.append(mass / den)
    return math.fsum(terms) / e.n


def ise_new(data, mu_hat, sd_hat, h, m):
    """Exact int (fhat - f)^2 for the corrected estimator built from `data`.

    fhat is the gaussian-kernel estimator with an (unclipped) normal start
    at (mu_hat, sd_hat).  Both the squared term and the cross term reduce to
    finite gaussian-product sums; the squared term is the blocked pair sum
    of semistart.bandwidth.  Criterion 5 averages it over samples to check
    mise_new.
    """
    from semistart.bandwidth import _normal_log_ratio, _normal_square_integral
    from semistart.exact_mise import _log_phi_scaled, r_f

    x = np.asarray(data, dtype=float).ravel()
    a_term = _normal_square_integral(x, mu_hat, sd_hat, h)

    # int f fhat: mixture component x data point sum
    u = x - mu_hat
    h2 = h * h
    sd2 = sd_hat * sd_hat
    log_rat = _normal_log_ratio(u, sd_hat, h)
    sj2 = m.sds**2
    stj2 = sd2 * sj2 * h2 / (sd2 * sj2 + h2 * (sd2 + sj2))
    mu_off = m.means - mu_hat
    log_row = (np.log(m.weights) + 0.5 * np.log(stj2) - np.log(sd_hat)
               + _log_phi_scaled(m.sds, mu_off))
    inner = (log_rat[None, :] + log_row[:, None]
             + 0.5 * stj2[:, None] * (u[None, :] / h2 + (mu_off / sj2)[:, None]) ** 2)
    b_term = float(np.sum(np.exp(inner))) / x.size
    return a_term - 2.0 * b_term + r_f(m)


def serial_optimal_h(curve, bracket):
    """optimal_h with one scalar curve call per point: the oracle of the batched search.

    A 128-point scan (512 if it shows several local minima), then golden
    section on the scan's best neighbourhood until the bracket is 1e-9 wide.
    """
    inv_golden = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = bracket

    def scan_curve(k):
        hs = np.linspace(lo, hi, k)
        vals = np.array([curve(h) for h in hs])
        interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
        return hs, vals, int(np.count_nonzero(interior))

    hs, vals, n_min = scan_curve(128)
    if n_min > 1:
        hs, vals, _ = scan_curve(512)
    k = int(np.argmin(vals))
    a = hs[max(k - 1, 0)]
    b = hs[min(k + 1, hs.size - 1)]
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    fc, fd = curve(c), curve(d)
    while b - a > 1e-9:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = curve(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = curve(d)
    h_star = 0.5 * (a + b)
    return float(h_star), float(curve(h_star))


def bisect_domain_cap(m, sd0, h_max=np.inf):
    """h_domain_cap by 200 bisection steps: the oracle of the early-exit bisection."""
    from semistart.exact_mise import MiseDomainError, _Radicands

    def ok(h):
        try:
            _Radicands(m, sd0)(h)
        except MiseDomainError:
            return False
        return True

    hi = min(h_max, 1e6 * sd0)
    if ok(hi):
        return float(h_max)
    lo = 1e-12 * sd0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def mixture_to_json(m):
    """The mixture-file text that mixture_from_json and the CLI's --mixture read."""
    comps = [{"p": p, "mu": mu, "sd": sd}
             for p, mu, sd in zip(m.weights, m.means, m.sds)]
    return json.dumps({"components": comps})


@pytest.fixture(scope="session")
def gaussian_kernel():
    from semistart.kernels import kernel_props
    return kernel_props("gaussian")


@pytest.fixture
def machine(monkeypatch):
    """machine(cpus): no block pool yet, on a machine with that many usable CPUs."""
    from semistart import kernels

    def use(cpus):
        monkeypatch.setattr(kernels, "_worker_count", lambda: cpus)
        monkeypatch.setattr(kernels, "_pool", None)

    yield use
    if kernels._pool is not None:  # the pool this test made
        kernels._pool.shutdown()


def quantile_miss(a, p, x, upper):
    """How far a gamma quantile x misses its tail mass p, in units of its allowance.

    The miss is |F(x) - p|, with F the lower tail P(a, x), or the upper tail
    Q(a, x) when upper, from mpmath at 40 digits.  The allowance,
    32 eps p + 8 ulp(x) F'(x), scales with the quantile's condition: a few
    rounding errors in F, plus a few ulp in x.  A value at most 1 passes.
    """
    with mpmath.workdps(40):
        mx = mpmath.mpf(x)
        tail = (mpmath.gammainc(a, mx, mpmath.inf, regularized=True) if upper
                else mpmath.gammainc(a, 0, mx, regularized=True))
        density = mpmath.exp((a - 1) * mpmath.log(mx) - mx - mpmath.loggamma(a))
        allowance = 32 * 2.0**-52 * p + 8 * math.ulp(x) * density
        return float(abs(tail - p) / allowance)
