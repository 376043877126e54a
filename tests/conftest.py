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


def literal_gaussian(h, z):
    """The gaussian K_h(z) as one literal expression, with eval_scaled's bits."""
    return np.exp(-0.5 * (z / h) * (z / h)) / SQRT_2PI / h


# The three grid x data fills written out as whole-array expressions, before
# they ran in place and with the kernel's tiny and subnormal lanes compacted:
# the oracles of estimator._correction_sum, of gnw_estimate's fill and of
# mv_estimate's fill, for the gaussian kernel.

def literal_correction(e, x):
    """(1/n) sum K_h(X_i - x)/fbar(X_i) at every point of x at once."""
    vals = literal_gaussian(e.h, e.data - np.asarray(x, dtype=float).ravel()[:, None])
    if e.den is not None:
        vals = vals / e.den
    return np.sum(vals, axis=-1) / e.n


def literal_gnw(fit, x):
    """gnw_estimate at every point of x at once, flattened."""
    from semistart.regression import _clipped_mean
    pts = np.asarray(x, dtype=float).ravel()
    w = literal_gaussian(fit.h, pts[:, None] - fit.x[None, :])
    terms = w
    if fit.mean_start.kind != "constant":
        terms = terms * (_clipped_mean(fit, pts)[:, None] / _clipped_mean(fit, fit.x)[None, :])
    return (terms * fit.y[None, :]).sum(axis=1) / w.sum(axis=1)


def literal_mv(e, pts):
    """mv_estimate at the rows of pts.

    It runs in mv_estimate's row blocks: the BLAS product of the cross term
    has bits that depend on the number of rows it is given.
    """
    from semistart.kernels import row_blocks
    d = e.data.shape[1]
    yp = (pts - e.mean) @ e.inv_root.T
    q_pts = np.sum(yp * yp, axis=1)
    if e.clip is not None:
        q_pts = np.minimum(q_pts, e.clip**2)
    yd = e.sphered
    yd_sq = np.sum(yd * yd, axis=1)[None, :]
    out = np.empty(yp.shape[0])
    for rows in row_blocks(yp.shape[0], yd.shape[0]):
        yr = yp[rows]
        sq = np.maximum(np.sum(yr * yr, axis=1)[:, None] + yd_sq - 2.0 * yr @ yd.T, 0.0)
        log_kern = -0.5 * sq / e.h**2 - d * np.log(SQRT_2PI * e.h) - e.half_logdet
        log_ratio = -0.5 * q_pts[rows, None] + 0.5 * e.q_data[None, :]
        out[rows] = np.exp(log_kern + log_ratio).mean(axis=1)
    return out


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
    from semistart.exact_mise import MiseDomainError, _radicands

    def ok(h):
        try:
            _radicands(m, sd0, h)
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
