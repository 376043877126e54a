import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from semistart.densities import mixture_sample, marron_wand
from semistart.hermite import (classic_coeffs, hermite_poly, hermite_rows, robust_coeffs,
                               roughness_from_coeffs, HermiteCoeffs)

from conftest import phi, SQRT_PI


def hermite_overlap(j: int, k: int) -> float:
    """A_{j,k} = int H_j(y) H_k(y) phi(y)^2 dy.

    Zero for odd j + k; for j + k = 2p the value is
    (-1)^(j+p) (2 sqrt(pi))^(-1) (2p)! / (p! 2^(2p)).
    """
    if (j + k) % 2 == 1:
        return 0.0
    p = (j + k) // 2
    sign = -1.0 if (j + p) % 2 else 1.0
    fact = math.factorial(2 * p) / (math.factorial(p) * 2.0 ** (2 * p))
    return sign * fact / (2.0 * SQRT_PI)


def test_polynomial_values():
    assert hermite_poly(3, 2.0) == pytest.approx(2.0, abs=1e-14)  # x^3 - 3x at 2
    xs = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(hermite_poly(0, xs), np.ones_like(xs))
    np.testing.assert_array_equal(hermite_poly(1, xs), xs)
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.0)


def test_fourth_derivative_identity_at_one():
    # oracle: high-precision derivative of phi, phi^(4)(1)/phi(1) = H_4(1) = -2
    mpmath.mp.dps = 40
    mphi = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    d4 = mpmath.diff(mphi, 1.0, 4)
    assert float(d4 / mphi(1.0)) == pytest.approx(hermite_poly(4, 1.0), abs=1e-12)
    assert hermite_poly(4, 1.0) == -2.0


def test_recurrence_matches_derivative_identity():
    # (-1)^j phi^(j)(x) / phi(x) = H_j(x), derivatives from mpmath
    mpmath.mp.dps = 40
    mphi = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    rng = np.random.default_rng(4)
    for j in range(9):
        for x in rng.uniform(-2.5, 2.5, 6):
            want = float((-1) ** j * mpmath.diff(mphi, float(x), j) / mphi(float(x)))
            assert hermite_poly(j, float(x)) == pytest.approx(want, abs=1e-4, rel=1e-6)


def test_overlap_table_quadrature():
    for j in range(6):
        for k in range(6):
            val, _ = quad(lambda y: hermite_poly(j, y) * hermite_poly(k, y) * phi(y) ** 2,
                          -12, 12, limit=300, epsabs=1e-12)
            assert hermite_overlap(j, k) == pytest.approx(val, abs=1e-8)


def test_classic_coeffs():
    data = np.tile([-1.0, 1.0], 50)
    c = classic_coeffs(data)
    assert c.values[0] == 1.0 and c.values[1] == 0.0 and c.values[2] == 0.0
    assert c.values[3] == pytest.approx(0.0, abs=1e-14)
    big = mixture_sample(marron_wand(1), 300_000, seed=9)
    cb = classic_coeffs(big)
    assert np.max(np.abs(cb.values[3:])) < 0.05
    # exponential sample: skewness 2
    rng = np.random.Generator(np.random.Philox(10))
    expo = rng.exponential(1.0, 1_000_000)
    assert classic_coeffs(expo).values[3] == pytest.approx(2.0, rel=0.02)
    with pytest.raises(ValueError):
        classic_coeffs(np.ones(10))
    with pytest.raises(ValueError):
        classic_coeffs([1.0, 2.0, 3.0])  # fewer than 5 points


def test_robust_coeffs_population_oracle():
    # population values at the true normal: gaussian-integral oracle
    def pop_delta(j):
        val, _ = quad(lambda z: np.sqrt(2.0) * hermite_poly(j, np.sqrt(2.0) * z)
                      * np.exp(-0.5 * z * z) * phi(z), -12, 12, limit=300)
        return val

    assert pop_delta(0) == pytest.approx(1.0, abs=1e-10)
    for j in range(1, 6):
        assert pop_delta(j) == pytest.approx(0.0, abs=1e-10)

    x = mixture_sample(marron_wand(1), 100_000, seed=11)
    d = robust_coeffs(x)
    for j in (2, 3, 4):
        assert abs(d.values[j]) < 0.02


def test_robust_summands_bounded():
    x = mixture_sample(marron_wand(3), 5_000, seed=12)
    z = (x - x.mean()) / x.std()
    grid = np.linspace(-60, 60, 400_001)
    for j in range(6):
        bound = np.sqrt(2.0) * np.max(np.abs(hermite_poly(j, np.sqrt(2.0) * grid)
                                             * np.exp(-0.5 * grid * grid)))
        summands = np.sqrt(2.0) * hermite_poly(j, np.sqrt(2.0) * z) * np.exp(-0.5 * z * z)
        assert np.max(np.abs(summands)) <= bound + 1e-12


def test_roughness_from_coeffs_values():
    zero = HermiteCoeffs("classic_gamma", [1, 0, 0, 0.0, 0.0, 0.0], 1.0)
    assert roughness_from_coeffs(zero) == 0.0
    kurt = HermiteCoeffs("classic_gamma", [1, 0, 0, 0.0, 1.0, 0.0], 1.0)
    assert roughness_from_coeffs(kurt) == pytest.approx(3.0 / (32.0 * SQRT_PI), abs=1e-15)
    assert roughness_from_coeffs(kurt) == pytest.approx(0.0528928, abs=5e-8)
    rob = HermiteCoeffs("robust_delta", [0, 0, 0.1], 1.0)
    assert roughness_from_coeffs(rob) == pytest.approx(0.02 / SQRT_PI, abs=1e-15)
    assert roughness_from_coeffs(rob) == pytest.approx(0.0112838, abs=5e-8)


def roughness_new_from_gamma(gammas, scale):
    """Overlap-table sum for a classic expansion with coefficients g_0..g_m:

        scale^-5 sum_{2<=j,k<=m} g_j/(j-2)! g_k/(k-2)! A_{j-2,k-2}
    """
    total = 0.0
    for j in range(2, len(gammas)):
        for k in range(2, len(gammas)):
            total += (gammas[j] / math.factorial(j - 2) * gammas[k] / math.factorial(k - 2)
                      * hermite_overlap(j - 2, k - 2))
    return scale**-5 * total


def test_degree5_closed_form_matches_overlap_sums():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g3, g4, g5 = rng.uniform(-1.5, 1.5, 3)
        sigma = rng.uniform(0.5, 2.0)
        r_new = roughness_new_from_gamma([1, 0, 0, g3, g4, g5], sigma)
        closed = roughness_from_coeffs(
            HermiteCoeffs("classic_gamma", [1, 0, 0, g3, g4, g5], sigma))
        assert closed == pytest.approx(r_new, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("shape", [(), (7,), (3, 500)])
def test_hermite_rows_have_hermite_polys_bits_at_every_degree(shape):
    # one run of the recurrence gives every degree, each with the bits of the
    # literal recurrence H_{k+1} = x H_k - k H_{k-1} and of its hermite_poly call
    x = np.random.default_rng(61).normal(0.0, 3.0, shape)
    literal = [np.ones_like(x), x.copy()]
    for k in range(1, 8):
        literal.append(x * literal[k] - k * literal[k - 1])
    for degree in (0, 1, 2, 8):
        rows = hermite_rows(x, degree)
        assert rows.shape == (degree + 1,) + np.shape(x)
        for j in range(degree + 1):
            assert np.array_equal(rows[j], literal[j])
            got = hermite_poly(j, x)
            assert np.array_equal(got, literal[j])
            assert (type(got) is float) if x.ndim == 0 else (got.shape == x.shape)


def test_robust_coeffs_keep_the_per_degree_bits():
    # rule_delta's pilot h is in the plug-in's output bytes: the coefficients
    # from one recurrence are those of one hermite_poly call per degree
    for seed in range(4):
        x = mixture_sample(marron_wand(2 + seed), 5000, seed=seed)
        z = (x - x.mean()) / x.std()
        w = np.sqrt(2.0) * np.exp(-0.5 * z * z)
        want = [float(np.mean(w * hermite_poly(j, np.sqrt(2.0) * z))) for j in range(6)]
        assert np.array_equal(robust_coeffs(x).values, want)
