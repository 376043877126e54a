"""Bandwidth selection for the corrected estimator.

All rules share one skeleton: the mean-squared-error-optimal bandwidth is

    h* = {R(K)/sigma_K^4}^(1/5) * R^(-1/5) * n^(-1/5)

with R the curvature roughness of the correction factor, so each rule is a
different estimate of R.  The moment rules plug in the classic or robust
Hermite coefficients; the plug-in rule estimates R nonparametrically from a
pilot bandwidth with a fixed-overshoot correction; bcv minimises the
estimated mean-squared-error curve; ucv minimises a leave-one-out estimate
of the exact error.  Data-driven choices are capped at the oversmoothed
bandwidth h_os and are scale-equivariant by construction.

Squared coefficient estimates are plugged in as they stand; no small-sample
deduction of their own sampling variance is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import hermite
from .kernels import (SQRT_2PI, KernelSpec, eval_scaled, exp_into, for_blocks, kernel_props,
                      require_bandwidth)
from .special import lgam
from .starts import FittedStart, _require_finite, eval_start

__all__ = [
    "BandwidthChoice",
    "DegenerateRoughness",
    "amise_h",
    "h_oversmoothed",
    "rule_gamma",
    "rule_delta",
    "plugin_roughness",
    "rule_plugin",
    "bcv",
    "ucv",
    "select",
]


class DegenerateRoughness(ValueError):
    """Estimated roughness is zero; the optimal-h formula degenerates."""


@dataclass(frozen=True, eq=False)
class BandwidthChoice:
    h: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)


def amise_h(kernel: KernelSpec, r_new: float, n: int) -> tuple[float, float]:
    """Optimal h and the minimal approximate integrated squared error.

    Raises DegenerateRoughness when r_new is not positive; callers clamp to
    the oversmoothed bound in that case.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if r_new <= 0:
        raise DegenerateRoughness("roughness must be positive for the optimal-h formula")
    h = (kernel.rough_K / kernel.sigma2_K**2) ** 0.2 * r_new**-0.2 * n**-0.2
    amise = 1.25 * (np.sqrt(kernel.sigma2_K) * kernel.rough_K) ** 0.8 * r_new**0.2 * n**-0.8
    return float(h), float(amise)


def h_oversmoothed(sd: float, n: int, kernel: KernelSpec) -> float:
    """Upper bound 3 {R(K)/(35 sigma_K^4)}^(1/5) sd n^(-1/5) for the search.

    For the gaussian kernel the constant is 1.144.
    """
    if not (np.isfinite(sd) and sd > 0) or n < 1:
        raise ValueError("need a finite positive scale and n >= 1")
    return 3.0 * (kernel.rough_K / (35.0 * kernel.sigma2_K**2)) ** 0.2 * sd * n**-0.2


def _moment_rule(data, kernel: KernelSpec, coeffs: hermite.HermiteCoeffs,
                 method: str) -> BandwidthChoice:
    n = np.asarray(data).size
    r_hat = hermite.roughness_from_coeffs(coeffs)
    h_os = h_oversmoothed(coeffs.scale, n, kernel)
    diag = {"roughness": r_hat, "h_os": h_os, "clamped": False}
    try:
        h, amise = amise_h(kernel, r_hat, n)
        diag["amise"] = amise
    except DegenerateRoughness:
        h = h_os
    if h >= h_os:
        h = h_os
        diag["clamped"] = True
    return BandwidthChoice(h, method, diag)


def rule_gamma(data, kernel: KernelSpec) -> BandwidthChoice:
    """Plug-in via classic moment coefficients (skewness/kurtosis/pentakosis)."""
    return _moment_rule(data, kernel, hermite.classic_coeffs(data), "rule_gamma")


def rule_delta(data, kernel: KernelSpec) -> BandwidthChoice:
    """Plug-in via the bounded robust coefficients (degrees 2..5)."""
    return _moment_rule(data, kernel, hermite.robust_coeffs(data), "rule_delta")


def _pair_sum(n: int, block, symmetric: bool) -> float:
    """Sum of an n x n pair matrix, filled one row block at a time.

    block(rows, cols) returns the matrix entries for two index slices.  The
    blocks land in one preallocated n x n buffer, so the matrix is the one
    built in one piece, while the temporaries of each block stay small.  A
    symmetric matrix is filled from its upper block triangle and mirrored,
    which halves the work; its entries must then be exactly symmetric in
    floating point.  A block writes its rows right of the diagonal and their
    mirror image below it, which no other block touches.  A single np.sum
    reduces the whole buffer, so the result is bit-identical to summing the
    matrix built in one piece.
    """
    buf = np.empty((n, n))

    def fill(rows):
        if symmetric:
            part = block(rows, slice(rows.start, n))
            buf[rows, rows.start:] = part
            buf[rows.stop:, rows] = part[:, rows.stop - rows.start:].T
        else:
            buf[rows] = block(rows, slice(0, n))

    for_blocks(n, n, fill)
    return float(np.sum(buf))


def _normal_log_ratio(u: np.ndarray, sd: float, h: float) -> np.ndarray:
    """log{phi_h(u) / phi_sd(u)}, with u = X_i - mu for a normal start.

    It is each data point's factor in the pair integrals of the normal-start,
    gaussian-kernel estimate.
    """
    return np.log(sd / h) - 0.5 * u * u * (1.0 / h**2 - 1.0 / sd**2)


def _normal_square_integral(x: np.ndarray, mu: float, sd: float, h: float) -> float:
    """int fhat_h^2 for the unclipped normal start and gaussian kernel, exactly.

    Each pair (i, j) contributes a gaussian product integral, so the value
    is a symmetric pair sum over the data.
    """
    n = x.size
    u = x - mu
    st2 = 0.5 * sd * sd * h * h / (sd * sd + h * h)
    log_rat = _normal_log_ratio(u, sd, h)

    def block(r, c):
        return exp_into(log_rat[r, None] + log_rat[None, c]
                        + 0.5 * st2 * ((u[r, None] + u[None, c]) / h**2) ** 2)

    total = _pair_sum(n, block, symmetric=True)
    return float(np.sqrt(st2) / (SQRT_2PI * sd * sd) * total) / n**2


def _plugin_normal_closed(x: np.ndarray, mu: float, sd: float, h: float) -> float:
    """Closed-form double sum for a normal start and gaussian kernel.

    Each pair integral is the mass of the four-factor gaussian product times
    a quartic moment of the product gaussian (the two kernel curvatures are
    quadratics in x).  The start-ratio factors decay in the data for h < sd,
    so the exponents stay moderate and no log-sum-exp is needed.
    """
    n = x.size
    u = x - mu
    tau2 = 1.0 / (2.0 / sd**2 + 2.0 / h**2)
    log_rat = _normal_log_ratio(u, sd, h)

    def block(r, c):
        # in place on four buffers, with the bits of
        #   mloc = tau2 * (u_r + u_c) / h**2,  a = mloc - u_r,  b = mloc - u_c
        #   poly = 3 tau2**2 + tau2 (a a + b b + 4 a b - 2 h h) + (a a - h h)(b b - h h)
        #   expo = log_rat_r + log_rat_c + 0.5 tau2 ((u_r + u_c) / h**2)**2
        # and poly * exp(expo): mloc is the product-gaussian centre relative to
        # mu, a and b its offsets to the two data points
        ur, uc = u[r, None], u[None, c]
        s = np.add(ur, uc)
        a = np.multiply(s, tau2)
        a /= h**2
        b = np.subtract(a, uc)
        a -= ur
        poly = np.multiply(a, a)
        np.multiply(b, b, out=s)
        poly += s
        np.multiply(a, 4.0, out=s)
        s *= b
        poly += s
        poly -= 2.0 * h * h
        poly *= tau2
        poly += 3.0 * tau2**2
        a *= a
        a -= h * h
        b *= b
        b -= h * h
        a *= b
        poly += a
        np.add(ur, uc, out=s)
        s /= h**2
        s *= s
        s *= 0.5 * tau2
        np.add(log_rat[r, None], log_rat[None, c], out=a)
        s += a
        poly *= exp_into(s)
        return poly

    total = _pair_sum(n, block, symmetric=True)
    return np.sqrt(tau2) / (SQRT_2PI * sd * sd) * total / (n * n * h**8)


def _plugin_constant_closed(x: np.ndarray, h: float) -> float:
    """Curvature statistic for the flat start: pairwise phi_sqrt2 4th derivative.

    The matrix is filled in full, not mirrored: NumPy's vectorised power
    does not always give pow(-t, 4) == pow(t, 4), so mirroring would change
    the sum in its last bits.
    """
    n = x.size
    scale = h * np.sqrt(2.0)

    def block(r, c):
        t = (x[r, None] - x[None, c]) / scale
        return (t**4 - 6.0 * t**2 + 3.0) * exp_into(-0.5 * t * t) / SQRT_2PI

    return _pair_sum(n, block, symmetric=False) / (4.0 * np.sqrt(2.0) * n * n * h**5)


def plugin_roughness(data, start: FittedStart, kernel: KernelSpec,
                     h_pilot: float) -> tuple[float, float]:
    """Nonparametric curvature-roughness estimate and its debiased version.

    raw      = int {fbar(x) rhat''(x)}^2 dx  at the pilot bandwidth,
    debiased = n/(n-1) * {raw - R(K'')/(n h^5)}, floored at 0.

    Needs a smooth kernel: the statistic differentiates the kernel twice, so
    the epanechnikov/uniform shapes are not allowed here.  The start enters
    unclipped (the closed forms and the overshoot constant assume the pure
    parametric form).
    """
    if not kernel.is_smooth:
        raise ValueError(f"the {kernel.shape} kernel is not allowed in this operation")
    require_bandwidth(h_pilot)
    x = np.asarray(data, dtype=float).ravel()
    _require_finite(x)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    if start.family == "constant":
        raw = _plugin_constant_closed(x, h_pilot)
    elif start.family == "normal":
        raw = _plugin_normal_closed(x, start.params["mu"], start.params["sd"], h_pilot)
    else:
        raw = _plugin_quadrature(x, start, h_pilot)
    debiased = n / (n - 1.0) * (raw - kernel.rough_Kpp / (n * h_pilot**5))
    return raw, max(debiased, 0.0)


def _plugin_quadrature(x: np.ndarray, start: FittedStart, h: float) -> float:
    f0 = start.unclipped()
    den = np.atleast_1d(eval_start(f0, x))
    if np.any(den <= 0):
        raise ValueError("start density vanishes at a data point")

    norm = x.size * h**3

    def integrand(t):
        rpp = np.empty(t.size)

        def fill(rows):
            zz = np.subtract(t[rows, None], x)
            zz /= h
            zz *= zz
            # -0.5 * zz is -0.5 * z * z to the bit: scaling by 0.5 is exact
            e = exp_into(-0.5 * zz)
            # zz becomes (zz - 1) * e / sqrt(2 pi) / den, in that order
            zz -= 1.0
            zz *= e
            zz /= SQRT_2PI
            zz /= den
            rpp[rows] = zz.sum(axis=1) / norm

        for_blocks(t.size, x.size, fill)
        # float_power is libm's pow, as the square of one float was; v * v can
        # differ from it in the last bit
        return np.float_power(eval_start(f0, t) * rpp, 2.0)

    from .quadpack import qags
    lo = float(x.min()) - 10.0 * h
    hi = float(x.max()) + 10.0 * h
    # relative tolerance only: the integral scales as scale^-5, so a fixed epsabs stops it early
    val, _ = qags(integrand, lo, hi, limit=400, epsabs=0.0)
    return val


def _grid_pick(h_grid, values) -> tuple[float, int]:
    """Grid argmin with ties resolved toward the smaller bandwidth."""
    values = np.asarray(values)
    k = int(np.argmin(values))  # argmin returns the first (smallest-h) tie
    return float(h_grid[k]), k


def bcv(data, start: FittedStart, kernel: KernelSpec, h_grid) -> BandwidthChoice:
    """Estimated-amise curve (biased cross validation) and its grid minimiser."""
    x = np.asarray(data, dtype=float).ravel()
    _require_finite(x)
    h_grid = np.asarray(h_grid, dtype=float).ravel()
    if h_grid.size == 0:
        raise ValueError("bandwidth grid must be nonempty")
    require_bandwidth(h_grid)
    n = x.size
    curve = np.empty_like(h_grid)
    for i, h in enumerate(h_grid):
        raw, _ = plugin_roughness(x, start, kernel, h)
        curve[i] = (0.25 * kernel.sigma2_K**2 * h**4
                    * (raw - kernel.rough_Kpp / (n * h**5))
                    + kernel.rough_K / (n * h))
    h_best, k = _grid_pick(h_grid, curve)
    return BandwidthChoice(h_best, "bcv",
                           {"h_grid": h_grid, "curve": curve, "index": k})


def _loo_params(x: np.ndarray, family: str):
    """O(1)-per-point leave-one-out refits from downdated running sums."""
    n = x.size
    if family in ("lognormal", "gamma") and np.any(x <= 0):
        # checked before any log of the data or of the refitted parameters
        raise ValueError("start density vanishes at a data point")
    if family in ("normal", "gamma"):
        base = x
    elif family == "lognormal":
        base = np.log(x)
    else:
        raise NotImplementedError(
            f"no O(1) leave-one-out refit for the {family!r} start")
    s1, s2 = base.sum(), np.square(base).sum()
    mu_i = (s1 - base) / (n - 1)
    var_i = (s2 - base * base) / (n - 1) - mu_i**2
    if np.any(var_i <= 0):
        raise ValueError("leave-one-out variance collapsed to zero")
    return mu_i, var_i


def _ucv_integral_term(x: np.ndarray, start: FittedStart, h: float) -> float:
    """int fhat_h^2 for the full-data fit (exact for normal/constant starts)."""
    n = x.size
    if start.family == "constant":
        # (1/n^2) sum_ij phi_{sqrt(2) h}(X_i - X_j)
        def block(r, c):
            return exp_into(-0.25 * ((x[r, None] - x[None, c]) / h) ** 2)

        total = _pair_sum(n, block, symmetric=True)
        return total / (SQRT_2PI * np.sqrt(2.0) * h * n * n)
    if start.family == "normal":
        return _normal_square_integral(x, start.params["mu"], start.params["sd"], h)
    return _ucv_square_quadrature(x, start, h)


def _ucv_square_quadrature(x: np.ndarray, start: FittedStart, h: float) -> float:
    """int fhat_h^2 by qags, with the raw start and the gaussian kernel.

    The integrand is fbar(t) (1/n) sum_i K_h(X_i - t)/fbar(X_i) summed over
    every datum, squared by float_power.  ucv's curve is written at full
    repr, and the windowed sums of a DensityEstimate, which add in another
    order, would move it in its last bits.
    """
    f0 = start.unclipped()
    den = np.atleast_1d(eval_start(f0, x))
    if np.any(den <= 0):
        raise ValueError("start density vanishes at a data point")
    kernel = kernel_props("gaussian")
    n = x.size

    def integrand(t):
        r = np.empty(t.size)

        def fill(rows):
            vals = np.subtract(x, t[rows, None])
            eval_scaled(kernel, h, vals, out=vals)
            vals /= den
            r[rows] = np.sum(vals, axis=-1) / n

        for_blocks(t.size, n, fill)
        return np.float_power(eval_start(f0, t) * r, 2.0)

    from .quadpack import qags
    lo, hi = float(x.min()) - 10 * h, float(x.max()) + 10 * h
    val, _ = qags(integrand, lo, hi, limit=400)
    return val


def _loo_log_ratio(x: np.ndarray, family: str):
    """Leave-one-out log start ratios log{fbar_(i)(X_i) / fbar_(i)(X_j)}.

    Returns a function of a row slice r giving rows r of the n x n matrix,
    so no n x n log-density temporaries are built.
    """
    mu_i, var_i = _loo_params(x, family)
    log_var = np.log(var_i)
    if family == "normal":
        log_num = -0.5 * (x - mu_i) ** 2 / var_i - 0.5 * log_var

        def log_den(r):
            return -0.5 * (x[None, :] - mu_i[r, None]) ** 2 / var_i[r, None] \
                - 0.5 * log_var[r, None]
    elif family == "lognormal":
        lx = np.log(x)
        log_num = -0.5 * (lx - mu_i) ** 2 / var_i - 0.5 * log_var - lx

        def log_den(r):
            return (-0.5 * (lx[None, :] - mu_i[r, None]) ** 2 / var_i[r, None]
                    - 0.5 * log_var[r, None] - lx[None, :])
    else:  # gamma by moments
        a_i = mu_i**2 / var_i
        b_i = mu_i / var_i
        log_b, log_x = np.log(b_i), np.log(x)
        lg_a = np.array([lgam(a) for a in a_i.tolist()])
        log_num = a_i * log_b + (a_i - 1.0) * log_x - b_i * x - lg_a

        def log_den(r):
            return (a_i[r, None] * log_b[r, None]
                    + (a_i[r, None] - 1.0) * log_x[None, :]
                    - b_i[r, None] * x[None, :] - lg_a[r, None])
    return lambda r: log_num[r, None] - log_den(r)


def ucv(data, start: FittedStart, kernel: KernelSpec, h_grid) -> BandwidthChoice:
    """Leave-one-out least-squares cross validation curve and minimiser.

    ucv(h) = int fhat_h^2 - (2/n) sum_i fhat_{h,(i)}(X_i), the second sum
    refitting the start without X_i (constant-time downdates of the
    sufficient statistics).  Gaussian kernel only; start densities enter raw.
    """
    if kernel.shape != "gaussian":
        raise ValueError("ucv is implemented for the gaussian kernel")
    x = np.asarray(data, dtype=float).ravel()
    _require_finite(x)
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations for cross validation")
    h_grid = np.asarray(h_grid, dtype=float).ravel()
    if h_grid.size == 0:
        raise ValueError("bandwidth grid must be nonempty")
    require_bandwidth(h_grid)

    log_ratio = None if start.family == "constant" else _loo_log_ratio(x, start.family)
    loo = np.empty((h_grid.size, n))

    def fill(r):
        # the ratio rows are the same for every h; the constant start's are 1
        ratio = None if log_ratio is None else np.exp(log_ratio(r))
        dist = x[None, :] - x[r, None]
        w = np.empty_like(dist)
        for g, h in enumerate(h_grid):
            eval_scaled(kernel, h, dist, out=w)
            if ratio is not None:
                w *= ratio
            np.fill_diagonal(w[:, r.start:], 0.0)
            # one reduction over all n columns per row, whatever the block size
            loo[g, r] = w.sum(axis=1) / (n - 1)

    for_blocks(n, n, fill)
    curve = np.array([_ucv_integral_term(x, start, h) - 2.0 * float(loo[g].mean())
                      for g, h in enumerate(h_grid)])
    h_best, k = _grid_pick(h_grid, curve)
    return BandwidthChoice(h_best, "ucv",
                           {"h_grid": h_grid, "curve": curve, "index": k})


def rule_plugin(data, start: FittedStart, kernel: KernelSpec) -> BandwidthChoice:
    """Pilot-then-correct plug-in rule.

    Takes the robust moment rule's bandwidth as the pilot, estimates the
    debiased roughness there, and inserts it into the optimal-h formula.  A
    nonpositive debiased estimate falls back to the moment rule (flagged).
    """
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    delta_choice = rule_delta(x, kernel)
    h_os = delta_choice.diagnostics["h_os"]
    raw, debiased = plugin_roughness(x, start, kernel, delta_choice.h)
    diag: dict[str, Any] = {"h_pilot": delta_choice.h, "h_os": h_os,
                            "clamped": False, "fallback": False,
                            "roughness_raw": raw, "roughness_debiased": debiased}
    if debiased <= 0.0:
        diag["fallback"] = True
        return BandwidthChoice(delta_choice.h, "plugin", diag)
    h, _ = amise_h(kernel, debiased, n)
    if h >= h_os:
        h = h_os
        diag["clamped"] = True
    return BandwidthChoice(float(h), "plugin", diag)


def select(method: str | None, data, start: FittedStart, kernel: KernelSpec) -> BandwidthChoice:
    """Bandwidth by name: rule_delta (also for None), rule_gamma, plugin, bcv or ucv.

    bcv and ucv search the 32-point grid from 0.05 h_os to h_os, with h_os
    the oversmoothed bound at the sample standard deviation.
    """
    if method is None or method == "rule_delta":
        return rule_delta(data, kernel)
    if method == "rule_gamma":
        return rule_gamma(data, kernel)
    if method == "plugin":
        return rule_plugin(data, start, kernel)
    if method in ("bcv", "ucv"):
        x = np.asarray(data, dtype=float).ravel()
        _require_finite(x)  # before the grid's sd, which inf would turn into nan
        h_os = h_oversmoothed(float(np.std(x)), x.size, kernel)
        grid = np.linspace(0.05 * h_os, h_os, 32)
        return (bcv if method == "bcv" else ucv)(x, start, kernel, grid)
    raise ValueError(f"unknown bandwidth method {method!r}")
