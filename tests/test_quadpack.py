"""semistart.quadpack.qags against scipy.integrate.quad, bit for bit.

qags ports QUADPACK's dqagse, the routine quad runs on a finite interval, so
its (value, abserr) must equal quad's exactly, and it must issue an
IntegrationWarning exactly when quad does.  The sites' integrands are checked
against the one-float integrands they passed to quad before, so the array
integrands must also give the same bits at every point.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from semistart import bandwidth, quadpack
from semistart.densities import l1_measures, marron_wand
from semistart.estimator import DensityEstimate, estimate_semiparametric, integral_of_estimate
from semistart.kernels import SQRT_2PI, eval_scaled, kernel_props
from semistart.quadpack import qags
from semistart.starts import fit_start, eval_start

from conftest import split_quad_mass


def _run(integrate, *args, **kw):
    """integrate(*args, **kw) and the messages of the IntegrationWarnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        out = integrate(*args, **kw)
    return out, [str(w.message) for w in caught if issubclass(w.category, IntegrationWarning)]


def _assert_same_as_quad(vec, scalar, a, b, kw):
    """qags on the array integrand equals quad on the one-float one.

    Returns qags' (value, abserr) and the messages of its warnings.
    """
    got, got_warned = _run(qags, vec, a, b, **kw)
    want, want_warned = _run(quad, scalar, a, b, **kw)
    assert got == want
    assert len(got_warned) == len(want_warned) <= 1
    return got, got_warned


@pytest.fixture
def recorded(monkeypatch):
    """Every qags call a site makes: (integrand, a, b, kwargs)."""
    calls = []
    qags = quadpack.qags

    def record(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return qags(f, a, b, **kw)

    # the sites import qags when they run
    monkeypatch.setattr(quadpack, "qags", record)
    return calls


def _sample(seed, n=150):
    return np.exp(np.random.default_rng(seed).normal(0.3, 0.6, n))


@pytest.mark.parametrize("family", ["lognormal", "gamma"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("h", [0.05, 0.3, 1.2])
def test_plugin_integrand_matches_quad(recorded, seed, family, h):
    x = _sample(seed)
    f0 = fit_start(family, x).unclipped()
    den = eval_start(f0, x)
    norm = x.size * h**3

    def one_float(t):
        z = (t - x) / h
        zz = z * z
        rpp = ((zz - 1.0) * np.exp(-0.5 * zz) / SQRT_2PI / den).sum() / norm
        return (eval_start(f0, t) * rpp) ** 2

    value = bandwidth._plugin_quadrature(x, f0, h)
    (f, a, b, kw), = recorded
    assert value == _assert_same_as_quad(f, one_float, a, b, kw)[0][0]


@pytest.mark.parametrize("family", ["lognormal", "gamma"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("h", [0.05, 0.3, 1.2])
def test_ucv_integrand_matches_quad(recorded, seed, family, h, gaussian_kernel):
    x = _sample(seed)
    start = fit_start(family, x)
    f0 = start.unclipped()
    den = eval_start(f0, x)

    def one_float(t):  # the raw estimate, summing every datum
        r = float(np.sum(eval_scaled(gaussian_kernel, h, x - t) / den) / x.size)
        return (eval_start(f0, t) * r) ** 2

    value = bandwidth._ucv_integral_term(x, start, h)
    (f, a, b, kw), = recorded
    (want, _), _ = _assert_same_as_quad(f, one_float, a, b, kw)
    assert value == want


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov", "uniform"])
@pytest.mark.parametrize("family", ["normal", "lognormal", "gamma"])
@pytest.mark.parametrize("seed,h", [(0, 0.1), (1, 0.4)])
def test_mass_integrand_matches_quad(recorded, seed, h, family, kernel):
    x = _sample(seed)
    e = DensityEstimate(x, kernel_props(kernel), h, fit_start(family, x))
    value, _ = _run(integral_of_estimate, e)
    if family == "normal":
        # closed-form per-point masses: no adaptive rule runs, and quad split at
        # every kink of the integrand is the oracle
        assert recorded == []
        assert value == pytest.approx(split_quad_mass(e), rel=1e-13, abs=0.0)
        return

    def one_float(t):  # each point sums its own window, so one float has its bits
        return estimate_semiparametric(e, t)

    (f, a, b, kw), = recorded
    (want, _), warned = _assert_same_as_quad(f, one_float, a, b, kw)
    assert value == want
    # the polynomial kernels' kinks at every X_i +/- h/2 defeat the rule
    assert bool(warned) == (kernel != "gaussian")


@pytest.mark.parametrize("case", [2, 6, 10, 14])
def test_l1_integrands_match_quad(recorded, case):
    m = marron_wand(case)
    report = l1_measures(m)
    # two or more segments of |f''| and |f0 r''| each, then the half norm
    assert len(recorded) >= 5
    for f, a, b, kw in recorded:  # each integrand takes one float as well as an array
        (want, _), _ = _assert_same_as_quad(f, f, a, b, kw)
    assert report.half_norm == want


# one integrand per QUADPACK outcome: the ier code it ends with, then the integrand
_BRANCHES = {
    "smooth": (0, lambda t: np.exp(-t * t), -3.0, 4.0, {}),
    "endpoint-singularity": (0, lambda t: t**-0.9, 0.0, 1.0, {}),
    "limit": (1, lambda t: np.sin(200.0 * t), 0.0, 3.0, {}),
    "roundoff": (2, lambda t: np.where(t > 0.1, 1.0, -1.0), 0.0, 1.0,
                 {"epsabs": 1e-15, "epsrel": 1e-15, "limit": 200}),
    "bad-behaviour": (3, lambda t: 1.0 / np.abs(t - 0.3), 0.0, 1.0, {"limit": 200}),
    "extrapolation-roundoff": (4, lambda t: 1.0 / np.sqrt(np.abs(t - 0.3)), 0.0, 1.0,
                               {"epsabs": 1e-15, "epsrel": 1e-15, "limit": 200}),
    "divergent": (5, lambda t: t**-1.5, 0.0, 1.0, {}),
}


@pytest.mark.parametrize("name", list(_BRANCHES))
def test_each_outcome_matches_quad(name, monkeypatch):
    ier, f, a, b, kw = _BRANCHES[name]
    extrapolations = []
    qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg",
                        lambda *args: extrapolations.append(1) or qelg(*args))
    _, warned = _assert_same_as_quad(f, lambda t: float(f(np.array([t]))[0]), a, b, kw)
    assert [msg.split(":")[0] for msg in warned] == ([f"QUADPACK ier = {ier}"] if ier else [])
    if name == "endpoint-singularity":
        assert extrapolations


@st.composite
def _integrands(draw):
    """An integrand, its interval and tolerances, from one of four families."""
    kind = draw(st.sampled_from(["smooth", "singular", "kink", "oscillatory"]))
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(0.1, 10.0))
    c = draw(st.floats(0.1, 10.0))
    kw = {}
    if kind == "smooth":
        m, s = draw(st.floats(a, b)), draw(st.floats(0.05, 3.0))
        f = lambda t: c * np.exp(-0.5 * ((t - m) / s) ** 2)  # noqa: E731
    elif kind == "singular":  # at an endpoint: the epsilon extrapolation
        p, edge = draw(st.floats(0.05, 0.95)), draw(st.sampled_from([a, b]))
        f = lambda t: c * np.abs(t - edge) ** -p  # noqa: E731
    elif kind == "kink":  # a tight tolerance ends in the roundoff test
        k = draw(st.floats(a, b))
        f = lambda t: c * np.abs(t - k)  # noqa: E731
        kw = {"epsabs": 1e-14, "epsrel": 1e-14, "limit": 200}
    else:  # too few subintervals for the oscillations
        w = draw(st.floats(50.0, 500.0))
        f = lambda t: c * np.sin(w * t)  # noqa: E731
        kw = {"limit": draw(st.integers(5, 40))}
    return f, a, b, kw


@settings(max_examples=200, deadline=None)
@given(_integrands())
def test_drawn_integrands_match_quad(case):
    f, a, b, kw = case

    def f_quiet(t):  # the singular family meets 0 ** -p once its panels reach the edge
        with np.errstate(divide="ignore"):
            return f(t)

    _assert_same_as_quad(f_quiet, lambda t: float(f_quiet(np.array([t]))[0]), a, b, kw)
