import json

import numpy as np
import pytest
from scipy.integrate import quad

from semistart import quadpack
from semistart.densities import (NormalMixture, _integrate_abs, bias_factors, l1_measures,
                                 marron_wand, mixture_from_json, mixture_moments,
                                 mixture_pdf, mixture_sample, roughness)

from conftest import mixture_to_json, phi, phi_scaled


def bimodal_unit():
    return NormalMixture(weights=[0.5, 0.5], means=[-1.0, 1.0], sds=[1.0, 1.0])


def test_pdf_values():
    assert mixture_pdf(marron_wand(1), 0.0) == pytest.approx(0.3989423, abs=5e-8)
    # hand quadrature oracle: both components contribute phi(1) at x = 0
    assert mixture_pdf(bimodal_unit(), 0.0) == pytest.approx(float(phi(1.0)), abs=1e-12)
    m = NormalMixture(weights=[1.0], means=[3.0], sds=[2.0])
    assert mixture_pdf(m, 3.0) == pytest.approx(0.1994711, abs=5e-8)


def test_pdf_integrates_to_one():
    for case in (2, 6, 12):
        m = marron_wand(case)
        lo, hi = m.support_window()
        val, _ = quad(lambda x: mixture_pdf(m, x), lo, hi, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_sampling_lln_and_determinism():
    m = marron_wand(1)
    x = mixture_sample(m, 100_000, seed=1)
    assert abs(x.mean()) < 4.0 / np.sqrt(100_000)
    b = bimodal_unit()
    y = mixture_sample(b, 100_000, seed=2)
    # closed-form mixture variance is 2 for this bimodal
    assert mixture_moments(b)[1] ** 2 == pytest.approx(2.0, abs=1e-12)
    assert y.var() == pytest.approx(2.0, rel=0.05)
    a1 = mixture_sample(b, 5, seed=7)
    a2 = mixture_sample(b, 5, seed=7)
    np.testing.assert_array_equal(a1, a2)
    with pytest.raises(ValueError):
        mixture_sample(b, 0, seed=1)


def test_moments_closed_form():
    mu0, sd0 = mixture_moments(bimodal_unit())
    assert mu0 == pytest.approx(0.0, abs=1e-15)
    assert sd0 == pytest.approx(np.sqrt(2.0), abs=1e-15)
    m = NormalMixture(weights=[1.0], means=[2.5], sds=[0.7])
    assert mixture_moments(m) == (2.5, pytest.approx(0.7))


def test_moments_against_monte_carlo():
    m = NormalMixture(weights=[0.75, 0.25], means=[0.0, 4.0], sds=[1.0, 2.0])
    mu0, sd0 = mixture_moments(m)
    x = mixture_sample(m, 1_000_000, seed=3)
    assert x.mean() == pytest.approx(mu0, abs=5 * sd0 / 1000.0)
    assert x.std() == pytest.approx(sd0, rel=0.01)


def test_bias_factors_single_normal():
    m = marron_wand(1)
    fpp, f0rpp = bias_factors(m, 0.0)
    assert fpp == pytest.approx(-0.3989423, abs=5e-8)
    assert f0rpp == 0.0
    xs = np.linspace(-4, 4, 33)
    assert np.max(np.abs(bias_factors(m, xs)[1])) < 1e-14


def test_bias_factors_finite_difference_oracle():
    m = NormalMixture(weights=[0.5, 0.5], means=[-1.0, 1.0], sds=[2 / 3, 2 / 3])
    mu0, sd0 = mixture_moments(m)
    d = 1e-4
    for x in (0.0, 0.7, -1.3):
        fpp_fd = (mixture_pdf(m, x + d) - 2 * mixture_pdf(m, x) + mixture_pdf(m, x - d)) / d**2
        r = lambda t: mixture_pdf(m, t) / phi_scaled(sd0, t - mu0)
        rpp_fd = (r(x + d) - 2 * r(x) + r(x - d)) / d**2
        fpp, f0rpp = bias_factors(m, x)
        assert fpp == pytest.approx(fpp_fd, rel=1e-5)
        assert f0rpp == pytest.approx(float(phi_scaled(sd0, x - mu0)) * rpp_fd, rel=1e-5)


def test_roughness_standard_normal():
    rr = roughness(marron_wand(1))
    assert rr.r_trad == pytest.approx(3.0 / (8.0 * np.sqrt(np.pi)), abs=1e-14)
    assert rr.r_trad == pytest.approx(0.2115711, abs=5e-8)
    assert rr.rho_trad == pytest.approx(0.7330, abs=5e-4)
    assert rr.r_new == 0.0
    assert rr.rho_new == 0.0


def test_roughness_skewed_case():
    rr = roughness(marron_wand(2))
    assert rr.rho_trad == pytest.approx(0.8921, abs=5e-4)
    assert rr.rho_new == pytest.approx(0.6739, abs=5e-4)


@pytest.mark.parametrize("case", range(1, 16))
def test_roughness_quadrature_oracle(case):
    m = marron_wand(case)
    rr = roughness(m)
    lo, hi = m.support_window()
    rt, _ = quad(lambda x: bias_factors(m, x)[0] ** 2, lo, hi, limit=800, epsabs=1e-12)
    rn, _ = quad(lambda x: bias_factors(m, x)[1] ** 2, lo, hi, limit=800, epsabs=1e-12)
    assert rr.r_trad == pytest.approx(rt, rel=1e-5)
    if case == 1:
        assert abs(rr.r_new - rn) < 1e-10
    else:
        assert rr.r_new == pytest.approx(rn, rel=1e-5)


def test_l1_standard_normal():
    rep = l1_measures(marron_wand(1))
    assert rep.rho1_trad == pytest.approx(1.8933, abs=5e-4)
    assert rep.rho1_new == 0.0
    # quadrature oracle for the half-norm; equals (8 pi)^(1/4)
    val, _ = quad(lambda x: np.sqrt(phi(x)), -40, 40, limit=400)
    assert rep.half_norm == pytest.approx(val, abs=1e-8)
    assert rep.half_norm == pytest.approx((8.0 * np.pi) ** 0.25, abs=1e-8)


def test_l1_bimodal_case():
    rep = l1_measures(marron_wand(6))
    assert rep.rho1_trad == pytest.approx(2.1786, abs=5e-3)
    assert rep.rho1_new == pytest.approx(2.0575, abs=5e-3)


@pytest.mark.parametrize("g, want, pieces", [
    # the 4097-point grid of [-1, 1] holds 0 exactly, where np.sign is 0
    (lambda x: x, 1.0, [(-1.0, 0.0), (0.0, 1.0)]),
    (lambda x: np.sin(np.pi * x), 4.0 / np.pi, [(-1.0, 0.0), (0.0, 1.0)]),
    # exact zeros on [-0.25, 0.25]: the split is at the first of them
    (lambda x: np.sign(x) * np.maximum(np.abs(x) - 0.25, 0.0) ** 2, 0.75**3 / 1.5,
     [(-1.0, -0.25), (-0.25, 1.0)]),
    (lambda x: 0.0 * x, 0.0, [(-1.0, 1.0)]),
], ids=["x", "sin", "plateau", "zero"])
def test_integrate_abs_splits_at_exact_grid_zeros(monkeypatch, g, want, pieces):
    calls = []
    qags = quadpack.qags

    def record(f, a, b, **kw):
        calls.append((a, b))
        return qags(f, a, b, **kw)

    # _integrate_abs imports qags when it runs
    monkeypatch.setattr(quadpack, "qags", record)
    assert _integrate_abs(g, -1.0, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert calls == pieces


def test_marron_wand_catalog():
    m1 = marron_wand(1)
    assert m1.n_components == 1
    assert m1.means[0] == 0.0 and m1.sds[0] == 1.0
    rr6 = roughness(marron_wand(6))
    assert rr6.rho_trad == pytest.approx(1.1183, abs=5e-4)
    assert rr6.rho_new == pytest.approx(1.0615, abs=5e-4)
    rr7 = roughness(marron_wand(7))
    assert rr7.rho_trad == pytest.approx(2.0215, abs=5e-4)
    assert rr7.rho_new == pytest.approx(1.9579, abs=5e-4)
    for bad in (0, 16, -1):
        with pytest.raises(ValueError):
            marron_wand(bad)
    for case in range(1, 16):
        w = marron_wand(case).weights
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError, match=r"^mixture weights must sum to 1, got 0\.9$"):
        NormalMixture(weights=[0.5, 0.4], means=[0, 1], sds=[1, 1])
    with pytest.raises(ValueError):
        NormalMixture(weights=[0.5, 0.5], means=[0, 1], sds=[1, -1])
    with pytest.raises(ValueError):
        NormalMixture(weights=[1.0, -0.0], means=[0, 1], sds=[1, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["weights", "means", "sds"])
def test_non_finite_components_are_rejected_naming_the_field(field, bad):
    parts = {"weights": [0.5, 0.5], "means": [0.0, 1.0], "sds": [1.0, 1.0]}
    parts[field][1] = bad
    with pytest.raises(ValueError, match=f"mixture {field} must be finite"):
        NormalMixture(**parts)


def test_json_round_trip():
    m = marron_wand(8)
    m2 = mixture_from_json(mixture_to_json(m))
    np.testing.assert_allclose(m2.weights, m.weights, atol=1e-15)
    np.testing.assert_allclose(m2.means, m.means, atol=1e-15)
    np.testing.assert_allclose(m2.sds, m.sds, atol=1e-15)
    bad = json.dumps({"components": [{"p": 0.6, "mu": 0, "sd": 1},
                                     {"p": 0.5, "mu": 1, "sd": 1}]})
    with pytest.raises(ValueError):
        mixture_from_json(bad)
