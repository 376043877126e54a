import numpy as np
import pytest
from scipy.integrate import quad

from semistart.kernels import SHAPES, eval_scaled, kernel_props

from conftest import phi


def quad_moment(shape, power, lo, hi):
    k = kernel_props(shape)
    val, _ = quad(lambda z: z**power * eval_scaled(k, 1.0, z), lo, hi,
                  limit=200, epsabs=1e-13)
    return val


SUPPORT = {"gaussian": (-10.0, 10.0), "epanechnikov": (-0.5, 0.5), "uniform": (-0.5, 0.5)}


@pytest.mark.parametrize("shape", SHAPES)
def test_constants_match_quadrature(shape):
    k = kernel_props(shape)
    lo, hi = SUPPORT[shape]
    assert quad_moment(shape, 0, lo, hi) == pytest.approx(1.0, abs=1e-10)
    assert quad_moment(shape, 2, lo, hi) == pytest.approx(k.sigma2_K, abs=1e-12)
    r_quad, _ = quad(lambda z: eval_scaled(k, 1.0, z) ** 2, lo, hi, epsabs=1e-13)
    assert r_quad == pytest.approx(k.rough_K, abs=1e-12)


def test_gaussian_rough_kpp_quadrature():
    # oracle: numeric integral of the squared second derivative of phi
    val, _ = quad(lambda z: ((z * z - 1.0) * phi(z)) ** 2, -10, 10, epsabs=1e-13)
    k = kernel_props("gaussian")
    assert k.rough_Kpp == pytest.approx(val, abs=1e-12)
    assert k.rough_Kpp == pytest.approx(3.0 / (8.0 * np.sqrt(np.pi)), abs=1e-15)


def test_exact_constant_values():
    g = kernel_props("gaussian")
    assert g.sigma2_K == 1.0
    assert g.rough_K == pytest.approx(0.2820948, abs=5e-8)
    e = kernel_props("epanechnikov")
    assert e.sigma2_K == pytest.approx(0.05, abs=1e-15)
    assert e.rough_K == pytest.approx(1.2, abs=1e-15)
    assert e.rough_Kpp is None
    assert kernel_props("uniform").rough_Kpp is None


def test_eval_scaled_values():
    g = kernel_props("gaussian")
    assert eval_scaled(g, 1.0, 0.0) == pytest.approx(0.3989423, abs=5e-8)
    assert eval_scaled(g, 2.0, 0.0) == pytest.approx(0.1994711, abs=5e-8)
    assert eval_scaled(kernel_props("epanechnikov"), 1.0, 0.6) == 0.0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("h", [0.1, 1.0, 5.0])
def test_unit_mass_any_bandwidth(shape, h):
    lo, hi = SUPPORT[shape]
    val, _ = quad(lambda z: eval_scaled(kernel_props(shape), h, z), lo * h, hi * h,
                  limit=400, epsabs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_symmetry(shape):
    rng = np.random.default_rng(0)
    z = rng.uniform(-3, 3, 100)
    k = kernel_props(shape)
    np.testing.assert_array_equal(eval_scaled(k, 1.3, z), eval_scaled(k, 1.3, -z))


def test_errors():
    with pytest.raises(ValueError):
        eval_scaled(kernel_props("gaussian"), 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_scaled(kernel_props("gaussian"), -1.0, 1.0)
    with pytest.raises(ValueError):
        kernel_props("triangular")
