"""Every selector and estimator at its smallest allowed n, and on tied data.

Each function is called with the fewest data it accepts: its result must be
finite and positive, and one datum fewer must be refused.  On data with
ties, permuting tied values among themselves (0.0 and -0.0 are tied, so the
array's bits may change) must keep every selector's h and mv_estimate's
bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistart import (DensityEstimate, FittedStart, MvEstimate, estimate_semiparametric,
                       fit_start, mv_bandwidth, mv_estimate, select)
from semistart.kernels import SHAPES, kernel_props

G = kernel_props("gaussian")

# the starts fit_start fits; normal_mixture's EM needs 10 data per component
FAMILIES = ("constant", "normal", "lognormal", "gamma")
METHODS = ("rule_delta", "rule_gamma", "plugin", "bcv", "ucv")
SMALLEST_N = {"rule_delta": 2, "rule_gamma": 5, "plugin": 2, "bcv": 2, "ucv": 3}


def _finite_positive(v) -> bool:
    v = np.asarray(v)
    return bool(np.all((v > 0.0) & (v < math.inf)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1e-3, 1.0, 1e3]))
def test_every_selector_picks_a_finite_positive_h_at_its_smallest_n(method, family, seed, c):
    n = SMALLEST_N[method]
    x = c * (0.1 + np.random.default_rng(seed).gamma(2.0, 1.0, n))
    start = fit_start(family, x)
    assert _finite_positive(select(method, x, start, G).h)
    with pytest.raises(ValueError):
        select(method, x[:-1], start, G)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_the_d_dimensional_path_is_finite_and_positive_at_n_d_plus_1(seed, d):
    # at the data and at their mean, with the bandwidth mv_bandwidth picks
    x = np.random.default_rng(seed).standard_normal((d + 1, d))
    h = mv_bandwidth(x).h
    assert _finite_positive(h)
    pts = np.vstack([x, x.mean(axis=0)])
    assert _finite_positive(mv_estimate(MvEstimate.fit(x, h), pts))
    for call in (mv_bandwidth, lambda y: MvEstimate.fit(y, h)):
        with pytest.raises(ValueError, match="at least d \\+ 1 observations"):
            call(x[:-1])


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("shape", SHAPES)
def test_a_one_point_estimate_is_finite_and_positive(shape, normalize):
    # at the datum and a quarter bandwidth to either side, for a start that
    # is flat, centred off the datum, or positive and skewed
    K = kernel_props(shape)
    starts = (FittedStart("constant"), FittedStart("normal", {"mu": 0.0, "sd": 1.0}),
              FittedStart("gamma", {"alpha": 3.0, "beta": 1.5}))
    for datum in (0.7, 3.0):
        for h in (0.05, 0.3, 2.0):
            for start in starts:
                e = DensityEstimate([datum], K, h, start, normalize=normalize)
                assert e.n == 1 and _finite_positive(e.divisor)
                pts = np.array([datum - 0.25 * h, datum, datum + 0.25 * h])
                assert _finite_positive(estimate_semiparametric(e, pts))


def _rotate_ties(rows: np.ndarray) -> np.ndarray:
    """The permutation that rotates each group of rows equal under == by one place.

    A group holding both 0.0 and -0.0 then changes its bits: a rotation by
    one keeps only a constant sequence.
    """
    keys = rows + 0.0  # -0.0 + 0.0 is 0.0: signed zeros share a key
    _, group = np.unique(keys, axis=0, return_inverse=True)
    group = group.ravel()
    perm = np.arange(len(rows))
    for g in np.unique(group):
        idx = np.flatnonzero(group == g)
        perm[idx] = np.roll(idx, 1)
    return perm


def _moved_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() != b.tobytes()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permuting_tied_data_keeps_every_selectors_h(seed):
    # 40 draws at one decimal, most of them tied.  The starts on the real
    # line see a sample shifted onto 0.0, with -0.0 among its zeros, so that
    # the permutation moves bits; the positive starts see it shifted above 0
    x = np.round(np.random.default_rng(seed).gamma(2.0, 1.0, 40), 1)
    x[1] = x[0]
    signed = x - x[0]
    signed[np.flatnonzero(signed == 0.0)[::2]] = -0.0
    for family in FAMILIES:
        data = signed if family in ("constant", "normal") else x + 0.1
        perm = _rotate_ties(data)
        moved = data[perm]
        assert np.array_equal(moved, data)
        if data is signed:
            assert _moved_bits(moved, data)
        for method in METHODS:
            want = select(method, data, fit_start(family, data), G).h
            assert select(method, moved, fit_start(family, moved), G).h == want


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_permuting_tied_rows_keeps_mv_bandwidth_and_mv_estimates_bits(seed, d):
    # 30 rows at one decimal, five of them repeated and one repeated with
    # -0.0 for its 0.0: the permutation moves bits
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((30, d)), 1)
    x[10:15] = x[:5]
    x[0, 0] = x[10, 0] = 0.0
    x[15] = x[0]
    x[15, 0] = -0.0
    moved = x[_rotate_ties(x)]
    assert np.array_equal(moved, x) and _moved_bits(moved, x)
    h = mv_bandwidth(x).h
    assert mv_bandwidth(moved).h == h
    pts = np.vstack([x[:8], rng.standard_normal((8, d))])
    want = mv_estimate(MvEstimate.fit(x, h), pts)
    assert mv_estimate(MvEstimate.fit(moved, h), pts).tobytes() == want.tobytes()
