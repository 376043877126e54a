"""semistart.densities._brentq against scipy.optimize.brentq, bit for bit.

_brentq ports SciPy's C brentq at rtol = 4 eps and 100 iterations, so on any
bracket its root must equal brentq's exactly, and where brentq raises it must
raise the same error with the same message.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from semistart import densities
from semistart.densities import _brentq, l1_measures, marron_wand


def _outcome(solve):
    """solve()'s root in hex, or the type and message of the error it raised."""
    try:
        root = solve()
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)
    assert type(root) is float
    return root.hex()


def _assert_same_as_brentq(f, a, b, xtol):
    got = _outcome(lambda: _brentq(f, a, b, xtol))
    assert got == _outcome(lambda: brentq(f, a, b, xtol=xtol))
    return got


@pytest.mark.parametrize("case", range(1, 16))
def test_every_l1_bracket_matches_brentq(monkeypatch, case):
    brackets = []

    def record(f, a, b, xtol):
        brackets.append((f, a, b, xtol))
        return _brentq(f, a, b, xtol)

    monkeypatch.setattr(densities, "_brentq", record)
    report = l1_measures(marron_wand(case))
    assert brackets  # f'' changes sign in every case
    for bracket in brackets:
        assert isinstance(_assert_same_as_brentq(*bracket), str)

    # with SciPy's brentq in its place, l1_measures returns the same floats
    monkeypatch.setattr(densities, "_brentq", lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol))
    assert repr(l1_measures(marron_wand(case))) == repr(report)


_coef = st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(c=st.tuples(_coef, _coef, _coef, _coef, _coef),
       a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
       frac=st.floats(0.01, 0.99),
       scale=st.sampled_from([1.0, 1e-160, 1e-300]),
       xtol=st.sampled_from([1e-13, 2e-12, 5e-324]))
def test_smooth_brackets_match_brentq(c, a, b, frac, scale, xtol):
    # the level lies between h(a) and h(b), so f changes sign on [a, b]; a
    # tiny scale underflows the extrapolation's products to 0
    def h(x):
        return c[0] + c[1] * x + c[2] * x * x + c[3] * math.sin(c[4] * x)

    assume(h(a) != h(b))
    level = h(a) + frac * (h(b) - h(a))
    _assert_same_as_brentq(lambda x: scale * (h(x) - level), a, b, xtol)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0)], ids=["root-at-a", "root-at-b"])
def test_root_at_an_end_matches_brentq(a, b):
    assert _assert_same_as_brentq(lambda x: x, a, b, 1e-13) == (0.0).hex()


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    (lambda x: math.nan if x < 0 else x, -1.0, 1.0, ValueError),
    (lambda x: math.nan if abs(x) < 0.5 else x, -1.0, 1.0, ValueError),
    # a step bisects: 10^300 down to 10^-13 takes about 1040 halvings, not 100
    (lambda x: 1.0 if x > 0 else -1.0, -1e300, 1e300, RuntimeError),
], ids=["equal-signs", "nan-at-a", "nan-inside", "no-convergence"])
def test_errors_match_brentq(f, a, b, error):
    got = _assert_same_as_brentq(f, a, b, 1e-13)
    assert got[0] is error
