"""Carlson's R_F, R_J and R_C by duplication, against mpmath.

mpmath's own duplication loses digits with the spread of the arguments, so
the reference runs with 40 digits more than the decimal orders the nonzero
arguments span. The package functions are checked on floats and, in one
call, on numpy arrays of several argument tuples; R_F and R_J are the two
outputs of the one loop of ``rf_rj``.
"""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_annuli import carlson
from cmc_annuli.carlson import rc, rf_rj

RTOL = 1e-14

# nonzero arguments from 1e-150 to 1e150, the domain of ``carlson``; the
# package's drops pass about 1e-86 to 1e112
POSITIVE = st.floats(min_value=1e-150, max_value=1e150)


def _with_one_zero(values, zero_at):
    """The tuple with the entry at ``zero_at`` set to 0; unchanged when zero_at is past its end."""
    return tuple(0.0 if i == zero_at else v for i, v in enumerate(values))


# three arguments, at most one of them zero
TRIPLES = st.builds(_with_one_zero, st.tuples(POSITIVE, POSITIVE, POSITIVE), st.integers(0, 5))
QUADRUPLES = st.builds(lambda xyz, p: (*xyz, p), TRIPLES, POSITIVE)
# R_C(x, y) with x >= 0, y > 0, and pairs that agree to 1e-16 .. 1e-1 relative
PAIRS = st.one_of(
    st.tuples(st.one_of(st.just(0.0), POSITIVE), POSITIVE),
    st.builds(lambda x, gap: (x, x * (1.0 + gap)), POSITIVE,
              st.floats(1e-16, 0.1) | st.floats(-0.1, -1e-16)).filter(lambda p: p[1] > 0.0),
)


def _reference(function, args):
    positive = [v for v in args if v > 0.0]
    spread = math.log10(max(positive)) - math.log10(min(positive))
    with mp.workdps(40 + int(spread)):
        return function(*(mp.mpf(v) for v in args))


def _check(ours, theirs, cases):
    wants = [_reference(theirs, args) for args in cases]
    for args, want in zip(cases, wants):
        got = ours(*args)
        assert type(got) is float
        assert abs(got - want) <= RTOL * abs(want), args
    arrays = ours(*(np.array(column) for column in zip(*cases)))
    for args, want, got in zip(cases, wants, arrays):
        assert abs(got - want) <= RTOL * abs(want), args


def _rf(x, y, z, p):
    return rf_rj(x, y, z, p)[0]


def _rj(x, y, z, p):
    return rf_rj(x, y, z, p)[1]


def _mp_rf(x, y, z, p):
    return mp.elliprf(x, y, z)


@settings(deadline=None, max_examples=60)
@given(st.lists(QUADRUPLES, min_size=1, max_size=4))
def test_rf(cases):
    _check(_rf, _mp_rf, cases)


@settings(deadline=None, max_examples=60)
@given(st.lists(QUADRUPLES, min_size=1, max_size=4))
def test_rj(cases):
    _check(_rj, mp.elliprj, cases)


# R_J's per-step R_C(u^2, v^2): near-equal x, y, z, p give u close to v, and
# every step takes the inline Taylor polynomial; p far below x, y, z gives
# v close to 0, and the first steps fall back to ``rc``
INLINE = [(1.0, 1.1, 1.2, 1.3), (7e30, 7.2e30, 6.9e30, 7.1e30), (1e-80, 1.05e-80, 0.98e-80, 1.02e-80)]
FALLBACK = [(1.0, 2.0, 3.0, 1e-10), (0.0, 1e40, 3e40, 2.0), (5.0, 6.0, 7.0, 1e-120)]


@pytest.mark.parametrize("cases, fallback", [(INLINE, False), (FALLBACK, True)], ids=["inline", "rc-fallback"])
def test_rj_step_branches(cases, fallback):
    with mock.patch.object(carlson, "rc", wraps=carlson.rc) as counted:
        for args in cases:
            calls = counted.call_count
            _check(_rf, _mp_rf, [args])
            _check(_rj, mp.elliprj, [args])
            assert (counted.call_count > calls) is fallback, args


@settings(deadline=None, max_examples=60)
@given(st.lists(PAIRS, min_size=1, max_size=4))
def test_rc(cases):
    _check(rc, mp.elliprc, cases)


def test_rc_near_equal_arguments():
    # the arctangent form of R_C loses digits here; duplication keeps them
    for x in (1e-90, 0.3, 1.0, 7.5e89):
        for gap in (1e-15, 1e-12, 1e-8, 1e-4, -1e-8):
            y = x * (1.0 + gap)
            with mp.workdps(60):
                want = mp.elliprc(x, y)
            assert abs(rc(x, y) - want) <= RTOL * want


def test_known_values():
    # R_F(0, 1, 2) = Gamma(1/4)^2 / (4 sqrt(2 pi)); R_C(0, 1/4) = pi, R_C(9/4, 2) = log 2
    assert abs(_rf(0.0, 1.0, 2.0, 1.0) - math.gamma(0.25) ** 2 / (4 * math.sqrt(2 * math.pi))) <= 4e-16
    assert abs(rc(0.0, 0.25) - math.pi) <= 4e-16
    assert abs(rc(2.25, 2.0) - math.log(2.0)) <= 2e-16
    # R_J(x, x, x, x) = x^(-3/2)
    assert abs(_rj(4.0, 4.0, 4.0, 4.0) - 0.125) <= 1e-17
