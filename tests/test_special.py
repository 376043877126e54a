"""semistart.special: the cephes ports against SciPy bit for bit, and the
gamma quantile against mpmath.

SciPy is only an oracle here; the library itself never imports it for these.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from semistart.special import gamma_quantile, lgam, ndtr

from conftest import quantile_miss


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_lgam_is_gammaln_bit_for_bit():
    rng = np.random.default_rng(1)
    # 13, 1000 and 1e8 are the branch points: recurrence, the A polynomial,
    # the short Stirling sum, and Stirling's formula alone
    edges = [13.0, 1000.0, 1e8, 2.556348e305, 1e300, 5e-324, 1.0, 2.0, 3.0]
    edges += [v for e in edges for v in (np.nextafter(e, 0), np.nextafter(e, np.inf))]
    pts = np.concatenate([
        10 ** rng.uniform(-300, 300, 40000),
        rng.uniform(0, 20, 20000), rng.uniform(0.9, 1.1, 10000), rng.uniform(1.9, 2.1, 10000),
        np.arange(1, 10001, dtype=float), np.arange(1, 10001) - 0.5,
        rng.uniform(12, 14, 5000), rng.uniform(990, 1010, 5000),
        rng.uniform(0.99e8, 1.01e8, 5000), edges])
    pts = pts[(pts > 0) & (pts <= 1e300)]
    assert pts.size >= 100000
    got = [lgam(v) for v in pts.tolist()]
    assert np.array_equal(_bits(got), _bits(sp.gammaln(pts)))


def test_lgam_takes_positive_arguments():
    assert math.isnan(lgam(math.nan))
    assert lgam(math.inf) == math.inf
    for bad in (0.0, -1.5, -math.inf):
        with pytest.raises(ValueError, match="x > 0"):
            lgam(bad)


def test_ndtr_is_scipy_ndtr_bit_for_bit():
    rng = np.random.default_rng(2)
    # +-1/sqrt(2) switches between erf and erfc, +-8 sqrt(2) between erfc's rationals
    edges = [1 / math.sqrt(2), 8 * math.sqrt(2), 1.0, 0.0, 37.5, 38.5, 40.0]
    edges += [v for e in edges for v in (np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
    pts = np.concatenate([rng.uniform(-40, 40, 70000), rng.normal(0, 3, 30000),
                          edges, np.negative(edges)])
    got = [ndtr(v) for v in pts.tolist()]
    assert np.array_equal(_bits(got), _bits(sp.ndtr(pts)))
    assert math.isnan(ndtr(math.nan))


@settings(max_examples=120, deadline=None)
@given(st.floats(-2.0, 4.0), st.floats(0.3, 5.0))
def test_gamma_quantile_holds_its_tail_mass(log_alpha, clip):
    a, p = 10.0**log_alpha, ndtr(-clip)
    for upper in (False, True):
        x = gamma_quantile(a, p, upper=upper)
        if x == 0.0:
            # only where the exact quantile lies below half the least subnormal
            assert not upper
            with mpmath.workdps(40):
                assert mpmath.gammainc(a, 0, mpmath.mpf(2.0) ** -1075, regularized=True) > p
            assert sp.gammaincinv(a, p) == 0.0
        else:
            assert quantile_miss(a, p, x, upper) <= 1.0


def test_gamma_quantile_tail_cases():
    assert gamma_quantile(0.01, ndtr(-4.0)) == 0.0  # about 1e-450
    assert gamma_quantile(2.0, 0.0) == 0.0
    assert gamma_quantile(2.0, 0.0, upper=True) == math.inf
    assert gamma_quantile(2.0, 1.0) == math.inf
    assert gamma_quantile(2.0, 1.0, upper=True) == 0.0
    assert math.isnan(gamma_quantile(2.0, math.nan))
    with pytest.raises(ValueError, match="a > 0"):
        gamma_quantile(0.0, 0.5)


@pytest.mark.parametrize("a", [0.5, 3.0, 100.0, 1e4])
def test_gamma_quantile_converges_far_in_the_tails(a):
    # Wilson-Hilferty starts these where the tail underflows to 0
    for clip in (8.0, 20.0, 37.5):
        p = ndtr(-clip)
        assert gamma_quantile(a, p, upper=True) == pytest.approx(sp.gammainccinv(a, p),
                                                                 rel=1e-12, abs=0)
        assert gamma_quantile(a, p) == pytest.approx(sp.gammaincinv(a, p), rel=1e-12, abs=0)


def test_large_alpha_edges_agree_with_scipy():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, clip = 10.0 ** rng.uniform(4, 12), rng.uniform(0.3, 5.0)
        p = ndtr(-clip)
        assert gamma_quantile(a, p, upper=True) == pytest.approx(sp.gammainccinv(a, p),
                                                                 rel=1e-12, abs=0)
        if clip <= 4.4:
            # beyond, SciPy's own P(a, x) is off at large a (see the next test)
            assert gamma_quantile(a, p) == pytest.approx(sp.gammaincinv(a, p),
                                                         rel=1e-12, abs=0)


@pytest.mark.parametrize("a,clip", [(2e4, 0.3), (2e4, 5.0), (1e6, 4.6)])
def test_large_alpha_lower_edge_against_mpmath(a, clip):
    # at a = 1e6, clip 4.6, scipy.special.gammainc is 9.6e-6 off relative and
    # gammaincinv 2e-9 off; P from mpmath's 1F1 series says which is right
    p = ndtr(-clip)
    x = gamma_quantile(a, p)
    with mpmath.workdps(40):
        mx = mpmath.mpf(x)
        log_d = a * mpmath.log(mx) - mx - mpmath.loggamma(a + 1)
        tail = mpmath.exp(log_d) * mpmath.hyp1f1(1, a + 1, mx, maxterms=10**6)
        allowance = 32 * 2.0**-52 * p + 8 * math.ulp(x) * a * mpmath.exp(log_d) / mx
        assert abs(tail - p) <= allowance


@pytest.mark.parametrize("a", [1e-2, 0.5, 1.0, 30.0, 1e3, 9999.0, 1e4, 1.0001e4, 1e8, 1e12])
def test_both_edges_take_under_2_ms(a):
    for clip in (0.3, 2.5, 5.0):
        p = ndtr(-clip)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            gamma_quantile(a, p)
            gamma_quantile(a, p, upper=True)
            best = min(best, time.perf_counter() - t0)
        assert best < 2e-3
