"""Levelled logarithmic magnitudes.

Quantities like 2**-(m+4) * 15**-(10**(i+l+1)) underflow any floating point
format long before the interesting comparisons happen, so we carry ln(value)
instead of the value itself.  The natural log is split into

    ln(value) = fix / FIX + off

where ``fix`` is an arbitrary-precision integer holding the structurally
huge part in fixed point (30 decimal digits after the point) and ``off`` is
an ordinary float accumulating plain offsets (ln 2 guards, quadrature
corrections).  Additions of plain offsets are exact in the sense that they
never touch the fixed-point part; comparisons between two magnitudes
subtract the integer parts exactly, so magnitudes that share the same
structural origin compare correctly even when both are around e**-(1e21).
Offsets that are themselves huge (elapsed flow time and the M*tau of the
error schedule, up to ~1e300) go into the fixed-point part through
`LogMagnitude.fixed`, so they never swamp the small float offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FIX = 10**30

# 30+ digit fixed-point values of ln 2, ln 3, ln 5 (verified against mpmath
# in the test suite).
LN2_FIX = 693147180559945309417232121458
LN3_FIX = 1098612288668109691395245236923
LN5_FIX = 1609437912434100374600759333226
LN15_FIX = LN3_FIX + LN5_FIX

LN2 = 0.6931471805599453
LN8 = 3.0 * LN2  # math.log(8.0), bit for bit
LN15 = math.log(15.0)


def _int_to_float(n: int) -> float:
    try:
        return float(n)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


@dataclass(frozen=True, slots=True)
class LogMagnitude:
    """ln of a positive quantity, or -inf for an exact zero."""

    fix: int = 0
    off: float = 0.0

    @classmethod
    def from_ln(cls, ln_value: float) -> "LogMagnitude":
        return cls(0, ln_value)

    @classmethod
    def fixed(cls, ln_value: float) -> "LogMagnitude":
        """ln_value carried exactly in the fixed-point part."""
        n, d = float(ln_value).as_integer_ratio()
        return cls(n * FIX // d, 0.0)

    @classmethod
    def zero(cls) -> "LogMagnitude":
        return cls(0, -math.inf)

    @classmethod
    def from_prime_exponents(cls, a2: int, a3: int, a5: int) -> "LogMagnitude":
        """ln(1 / (2**a2 * 3**a3 * 5**a5)), exponents arbitrary integers."""
        return cls(-(a2 * LN2_FIX + a3 * LN3_FIX + a5 * LN5_FIX), 0.0)

    @property
    def is_zero(self) -> bool:
        return self.off == -math.inf

    def ln(self) -> float:
        """Float value of the log; may overflow to +-inf."""
        if self.is_zero:
            return -math.inf
        return _int_to_float(self.fix) / FIX + self.off

    # value-level multiplication/division are log-level additions
    def __add__(self, other):
        if isinstance(other, LogMagnitude):
            return LogMagnitude(self.fix + other.fix, self.off + other.off)
        return LogMagnitude(self.fix, self.off + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, LogMagnitude):
            return LogMagnitude(self.fix - other.fix, self.off - other.off)
        return LogMagnitude(self.fix, self.off - other)

    def diff_ln(self, other: "LogMagnitude") -> float:
        """self.ln() - other.ln() without loss on the huge parts."""
        if self.is_zero and other.is_zero:
            return 0.0
        if self.is_zero:
            return -math.inf
        if other.is_zero:
            return math.inf
        return _int_to_float(self.fix - other.fix) / FIX + (self.off - other.off)

    def __lt__(self, other):
        return self.diff_ln(_coerce(other)) < 0.0

    def __le__(self, other):
        return self.diff_ln(_coerce(other)) <= 0.0

    def __gt__(self, other):
        return self.diff_ln(_coerce(other)) > 0.0

    def __ge__(self, other):
        return self.diff_ln(_coerce(other)) >= 0.0

    def __repr__(self):
        if self.is_zero:
            return "LogMagnitude(zero)"
        return f"LogMagnitude(ln={self.ln():.6g})"


def _coerce(x) -> LogMagnitude:
    if isinstance(x, LogMagnitude):
        return x
    return LogMagnitude.from_ln(float(x))


def signed_log_add(
    sign_a: int, a: LogMagnitude, sign_b: int, b: LogMagnitude
) -> tuple[int, LogMagnitude]:
    """Exact-enough addition of sign_a*e**a + sign_b*e**b in log space.

    Returns (sign, LogMagnitude of ln|sum|).  When the two magnitudes differ
    by more than ~700 in the log the smaller one is dropped (it is below the
    relative precision of any downstream comparison).
    """
    if sign_a == 0 or a.is_zero:
        return (sign_b if not b.is_zero else 0), b
    if sign_b == 0 or b.is_zero:
        return sign_a, a
    d = a.diff_ln(b)
    if d < 0:
        sign_a, a, sign_b, b, d = sign_b, b, sign_a, a, -d
    # now a is the larger magnitude
    if d > 700.0:
        return sign_a, a
    if sign_a == sign_b:
        return sign_a, a + math.log1p(math.exp(-d))
    if d == 0.0:
        return 0, LogMagnitude.zero()
    # ln(1 - e^-d): below ln 2, 1 - e^-d would lose the digits of a small d
    return sign_a, a + (math.log(-math.expm1(-d)) if d < LN2 else math.log1p(-math.exp(-d)))
