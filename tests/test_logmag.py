import math

import pytest
from hypothesis import given, strategies as st

from flowcomp.logmag import (
    FIX,
    LN2_FIX,
    LN3_FIX,
    LN5_FIX,
    LogMagnitude,
    lm_min,
    signed_log_add,
)

mpmath = pytest.importorskip("mpmath")


def test_fixed_point_constants_match_mpmath():
    mpmath.mp.dps = 45
    for n, fix in ((2, LN2_FIX), (3, LN3_FIX), (5, LN5_FIX)):
        exact = int(mpmath.floor(mpmath.ln(n) * FIX + mpmath.mpf("0.5")))
        assert fix == exact


def test_ln_roundtrip():
    lm = LogMagnitude.from_prime_exponents(3, 1, 2)
    assert lm.ln() == pytest.approx(-math.log(8 * 3 * 25), rel=1e-15)


def test_huge_exponents_compare_exactly():
    # both around e**-(1e21); differ by one factor of 3
    a = LogMagnitude.from_prime_exponents(0, 10**21, 0)
    b = LogMagnitude.from_prime_exponents(0, 10**21 - 1, 0)
    assert a < b
    assert b.diff_ln(a) == pytest.approx(math.log(3), rel=1e-12)


@pytest.mark.parametrize("d, want", [(10**15 * FIX - 1, 1e15), (10**15 * FIX + 1, 1e15),
                                     (10**400 * FIX, math.inf)])
def test_diff_ln_of_large_fixed_gaps(d, want):
    # gaps on both sides of 10^15 in the log, and one past the float range
    a, b = LogMagnitude(d + LN2_FIX, 0.5), LogMagnitude(LN2_FIX, 0.25)
    assert a.diff_ln(b) == pytest.approx(want + 0.25, rel=1e-15)
    assert b.diff_ln(a) == pytest.approx(-want - 0.25, rel=1e-15)


def test_fixed_keeps_small_offsets_next_to_huge_times():
    # an elapsed time of 1e28 in the float part would absorb ln 2
    t = 1.2345e28
    a = LogMagnitude.fixed(-t) + math.log(2.0)
    b = LogMagnitude.fixed(-t)
    assert a.diff_ln(b) == pytest.approx(math.log(2.0), rel=1e-15)
    assert LogMagnitude.fixed(-t).ln() == -t
    assert LogMagnitude.fixed(0.5).fix == FIX // 2


def test_plain_offsets_never_touch_fixed_part():
    a = LogMagnitude.from_prime_exponents(5, 0, 0)
    b = a + 1.25 - 1.25
    assert b.fix == a.fix
    assert b.off == a.off


def test_zero_sentinel():
    z = LogMagnitude.zero()
    assert z.is_zero
    assert z < LogMagnitude.from_prime_exponents(10**6, 10**6, 10**6)
    assert z.ln() == -math.inf


def test_signed_log_add_cancellation():
    a = LogMagnitude.from_ln(2.0)
    sign, mag = signed_log_add(1, a, -1, a)
    assert sign == 0 and mag.is_zero


def test_signed_log_add_values():
    a = LogMagnitude.from_ln(math.log(5.0))
    b = LogMagnitude.from_ln(math.log(3.0))
    sign, mag = signed_log_add(1, a, 1, b)
    assert sign == 1 and mag.ln() == pytest.approx(math.log(8.0))
    sign, mag = signed_log_add(1, a, -1, b)
    assert sign == 1 and mag.ln() == pytest.approx(math.log(2.0))
    sign, mag = signed_log_add(-1, a, 1, b)
    assert sign == -1 and mag.ln() == pytest.approx(math.log(2.0))


def test_signed_log_add_drops_negligible():
    big = LogMagnitude.from_ln(0.0)
    tiny = LogMagnitude.from_ln(-800.0)
    sign, mag = signed_log_add(1, big, -1, tiny)
    assert sign == 1 and mag.ln() == 0.0


def test_min_max():
    a = LogMagnitude.from_ln(-1.0)
    b = LogMagnitude.from_ln(-2.0)
    assert lm_min(a, b) is b


@given(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
)
def test_order_matches_rational_order(a2, a3, a5, b2, b3, b5):
    """Comparison of log magnitudes agrees with comparison of the exponent
    vectors under exact rational arithmetic (checked in the log via ints)."""
    lma = LogMagnitude.from_prime_exponents(a2, a3, a5)
    lmb = LogMagnitude.from_prime_exponents(b2, b3, b5)
    exact = -(a2 * LN2_FIX + a3 * LN3_FIX + a5 * LN5_FIX) + (
        b2 * LN2_FIX + b3 * LN3_FIX + b5 * LN5_FIX
    )
    if exact == 0:
        assert not (lma < lmb) and not (lmb < lma)
    elif exact < 0:
        assert lma < lmb
    else:
        assert lmb < lma
