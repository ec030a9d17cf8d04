import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from flowcomp.logmag import (
    FIX,
    LN2_FIX,
    LN3_FIX,
    LN5_FIX,
    LogMagnitude,
    signed_log_add,
)


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


EPS = 2.0**-52
# fixed parts up to 10^60 nats of either sign, and ordinary float offsets
FIXED = st.integers(min_value=-(10**60) * FIX, max_value=10**60 * FIX)
OFFSETS = st.floats(min_value=-1e3, max_value=1e3)
# gaps between the two magnitudes, in nats: any, near-cancellation, and
# on either side of the 700-nat drop
GAPS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.floats(min_value=699.0, max_value=701.0),
    st.floats(min_value=-701.0, max_value=-699.0),
)


@st.composite
def magnitude_pairs(draw):
    """(a, b) with b about `gap` nats above a, the gap split between the
    fixed part and the offset."""
    a = LogMagnitude(draw(FIXED), draw(OFFSETS))
    gap = draw(GAPS)
    k = int(draw(st.floats(min_value=0.0, max_value=1.0)) * gap * FIX)
    return a, LogMagnitude(a.fix + k, a.off + (gap - k / FIX))


def _mp_gap(a, b):
    """ln a - ln b at 100 digits; the offsets are subtracted exactly."""
    return mpmath.mpf(a.fix - b.fix) / FIX + mpmath.fsub(a.off, b.off, exact=True)


def _gap_error(a, b):
    """Rounding bound of a.diff_ln(b): a few ulps of its two parts."""
    return 4 * EPS * (abs((a.fix - b.fix) / FIX) + abs(a.off - b.off))


@given(magnitude_pairs())
def test_diff_ln_matches_mpmath(pair):
    a, b = pair
    with mpmath.workdps(100):
        exact = _mp_gap(a, b)
        assert abs(a.diff_ln(b) - exact) <= _gap_error(a, b) + EPS * abs(exact)
        assert abs(b.diff_ln(a) + exact) <= _gap_error(a, b) + EPS * abs(exact)


@given(magnitude_pairs(), st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_signed_log_add_matches_mpmath(pair, sign_a, sign_b):
    a, b = pair
    sign, got = signed_log_add(sign_a, a, sign_b, b)
    with mpmath.workdps(100):
        if _mp_gap(a, b) < 0:
            a, b, sign_a, sign_b = b, a, sign_b, sign_a
        d = _mp_gap(a, b)
        if sign_a != sign_b and d == 0:
            assert sign == 0 and got.is_zero
            return
        # ln|sign_a e^a + sign_b e^b| = a + ln(1 +- e^-d), d >= 0; an error e
        # in the float gap d moves the term by e |dterm/dd| = e / (e^d +- 1)
        if sign_a == sign_b:
            term, slope = mpmath.log1p(mpmath.exp(-d)), 1 / (mpmath.exp(d) + 1)
        else:
            term, slope = mpmath.log(-mpmath.expm1(-d)), 1 / mpmath.expm1(d)
        # then the term is added to an offset
        tol = _gap_error(a, b) * slope + 4 * EPS * (abs(a.off) + abs(term) + 1)
        assert sign == sign_a
        assert abs(_mp_gap(got, a) - term) <= tol
