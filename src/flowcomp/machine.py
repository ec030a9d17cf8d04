"""Turing machine model, transition semantics and the prime-power encoding.

Machines use the alphabet {0..9} with 0 the blank symbol and states {1..m}.
A tape is finitely supported and stored as the pair of nonnegative integers
(r, s): r has digit string t_b..t_0 (head side, position 0 is the least
significant digit of r) and s has digit string t_-a..t_-1 (t_-1 least
significant).  The shift convention is tape-relative: shift +1 moves the
tape left (the head effectively moves right).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .logmag import LogMagnitude

ALPHABET = range(10)
SHIFT_TOKENS = {"S+1": 1, "S0": 0, "S-1": -1}
SHIFT_NAMES = {v: k for k, v in SHIFT_TOKENS.items()}

# beyond this the exact Fraction endpoints stop being a good idea
_MAX_EXACT_EXPONENT = 10**6


class MachineError(ValueError):
    """Malformed machine description."""


@dataclass(frozen=True, slots=True)
class MachineSpec:
    name: str
    m: int  # number of states
    q0: int
    q_halt: int
    rules: dict  # (q, symbol) -> (q', symbol', shift)

    def __post_init__(self):
        if self.m < 1:
            raise MachineError("need at least one state")
        for q in (self.q0, self.q_halt):
            if not 1 <= q <= self.m:
                raise MachineError(f"state {q} outside 1..{self.m}")
        for q in range(1, self.m + 1):
            if q == self.q_halt:
                continue
            for sym in ALPHABET:
                if (q, sym) not in self.rules:
                    raise MachineError(f"missing rule for state {q}, symbol {sym}")
        for (q, sym), (q2, sym2, shift) in self.rules.items():
            if q == self.q_halt:
                raise MachineError("rules must not be stored for the halting state")
            if not (1 <= q <= self.m and 1 <= q2 <= self.m and sym in ALPHABET
                    and sym2 in ALPHABET):
                raise MachineError(f"bad rule {(q, sym)} -> {(q2, sym2, shift)}")
            if shift not in (-1, 0, 1):
                raise MachineError(f"bad shift {shift}")


@dataclass(frozen=True, slots=True)
class Configuration:
    q: int
    r: int = 0  # digits t_b..t_0
    s: int = 0  # digits t_-a..t_-1

    def digit(self, pos: int) -> int:
        """Tape symbol at position pos (0 is the head position)."""
        if pos >= 0:
            return (self.r // 10**pos) % 10
        return (self.s // 10 ** (-pos - 1)) % 10


@dataclass(frozen=True, slots=True)
class TapeBoundedSpec:
    base: MachineSpec
    b_minus: int
    b_plus: int

    def __post_init__(self):
        if not (self.b_minus <= 0 < self.b_plus):
            raise MachineError("bounds must satisfy b- <= 0 < b+")

    def check_input(self, c0: Configuration):
        """MachineError if the input tape already reaches past a bound."""
        if c0.s > 0 and -len(str(c0.s)) < self.b_minus:
            raise MachineError("input tape exceeds the left bound")
        if c0.r > 0 and len(str(c0.r)) - 1 > self.b_plus:
            raise MachineError("input tape exceeds the right bound")


@dataclass(frozen=True, slots=True)
class EncodedPoint:
    """Exponent triple of phi = 1/(2**q 3**r 5**s), kept symbolic."""

    q: int
    r: int
    s: int

    def value(self) -> Fraction:
        self._check_exact()
        return Fraction(1, 2**self.q * 3**self.r * 5**self.s)

    def ln_value(self) -> LogMagnitude:
        return LogMagnitude.from_prime_exponents(self.q, self.r, self.s)

    def ln_half_width(self) -> LogMagnitude:
        """ln of half the interval width, |I|/2 = 1/(2**(q+5) 3**r 5**s)."""
        return LogMagnitude.from_prime_exponents(self.q + 5, self.r, self.s)

    def interval(self) -> tuple[Fraction, Fraction]:
        a = self.value()
        return (a - a / 32, a + a / 32)

    def _check_exact(self):
        if self.r > _MAX_EXACT_EXPONENT or self.s > _MAX_EXACT_EXPONENT:
            raise OverflowError(
                "exponents too large for exact expansion; use the log forms"
            )


def step(spec: MachineSpec, c: Configuration) -> Configuration:
    """One application of the global transition; halting states are fixed."""
    if c.q == spec.q_halt:
        return c
    t0 = c.r % 10
    q2, t0p, shift = spec.rules[(c.q, t0)]
    r = c.r - t0 + t0p
    s = c.s
    if shift == 1:  # left tape shift: t'_n = t_{n+1}
        r, s = r // 10, s * 10 + r % 10
    elif shift == -1:  # right tape shift: t'_n = t_{n-1}
        r, s = r * 10 + s % 10, s // 10
    return Configuration(q2, r, s)


@dataclass(frozen=True, slots=True)
class Halted:
    config: Configuration
    steps: int


@dataclass(frozen=True, slots=True)
class OutOfMemory:
    steps: int


class _Sentinel:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


LOOP = _Sentinel("Loop")
UNRESOLVED = _Sentinel("Unresolved")


def run(spec: MachineSpec, c0: Configuration, max_steps: int):
    """Direct execution: Halted(config, steps) or UNRESOLVED."""
    c = c0
    for k in range(max_steps + 1):
        if c.q == spec.q_halt:
            return Halted(c, k)
        if k == max_steps:
            break
        c = step(spec, c)
    return UNRESOLVED


def trajectory(spec: MachineSpec, c0: Configuration, n: int) -> list[Configuration]:
    """c0, Delta(c0), ..., Delta^n(c0)."""
    out = [c0]
    for _ in range(n):
        out.append(step(spec, out[-1]))
    return out


def run_bounded(spec: TapeBoundedSpec, c0: Configuration, max_steps: int):
    """Bounded-tape execution with the halt / out-of-memory / loop split.

    The head is fixed at position 0 of the shifting tape; the offset h tracks
    where position 0 of the current tape sits in the input frame, so the
    forbidden-position check is done in absolute coordinates.
    """
    base = spec.base
    spec.check_input(c0)
    c, h = c0, 0
    seen = {(c.q, c.r, c.s, h)}
    for k in range(max_steps + 1):
        if c.q == base.q_halt:
            return Halted(c, k)
        if k == max_steps:
            break
        _, _, shift = base.rules[(c.q, c.r % 10)]
        h2 = h + shift
        if not spec.b_minus <= h2 <= spec.b_plus:
            return OutOfMemory(k + 1)
        c, h = step(base, c), h2
        key = (c.q, c.r, c.s, h)
        if key in seen:
            return LOOP
        seen.add(key)
    return UNRESOLVED


def enumerate_inputs(
    spec: MachineSpec, count: int
) -> list[tuple[int, Configuration, EncodedPoint]]:
    """First `count` initial configurations, ordered by ascending 3**r 5**s.

    Equivalently descending as points of [0, 1] under the encoding.
    """
    out = []
    heap = [(1, 0, 0)]  # (3**r 5**s, r, s)
    seen = {(0, 0)}
    while len(out) < count:
        val, r, s = heapq.heappop(heap)
        c = Configuration(spec.q0, r, s)
        out.append((len(out), c, encode(c)))
        for r2, s2, v2 in ((r + 1, s, val * 3), (r, s + 1, val * 5)):
            if (r2, s2) not in seen:
                seen.add((r2, s2))
                heapq.heappush(heap, (v2, r2, s2))
    return out


def encode(c: Configuration) -> EncodedPoint:
    return EncodedPoint(c.q, c.r, c.s)


def interval_of(p: EncodedPoint, band: int) -> tuple[Fraction, Fraction]:
    """Exact endpoints of the translated interval inside [2*band, 2*band+1]."""
    if band < 0:
        raise ValueError("band must be nonnegative")
    a, b = p.interval()
    return (a + 2 * band, b + 2 * band)


# ---------------------------------------------------------------------------
# machine spec files


def parse_machine(text: str, name: str = "<string>") -> MachineSpec:
    """Parse the line-oriented machine format.

    machine <name> / states <m> / start <q0> / halt <q_halt> /
    rule <q> <sym> -> <q'> <sym'> <S+1|S0|S-1>; each directive but `rule` at most once.
    """
    mname = None
    m = q0 = q_halt = None
    rules, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if first.setdefault(parts[0], lineno) != lineno and parts[0] != "rule":
                raise MachineError(f"directive `{parts[0]}` given again, "
                                   f"first on line {first[parts[0]]}")
            if parts[0] == "machine":  # the name is the rest of the line
                mname = line.split(None, 1)[1]
            elif parts[0] == "states":
                m = int(parts[1])
            elif parts[0] == "start":
                q0 = int(parts[1])
            elif parts[0] == "halt":
                q_halt = int(parts[1])
            elif parts[0] == "rule":
                if len(parts) != 7 or parts[3] != "->":
                    raise MachineError("expected: rule q sym -> q' sym' shift")
                key = (int(parts[1]), int(parts[2]))
                if key in rules:
                    raise MachineError(f"duplicate rule for {key}")
                if parts[6] not in SHIFT_TOKENS:
                    raise MachineError(f"bad shift token {parts[6]!r}")
                rules[key] = (int(parts[4]), int(parts[5]), SHIFT_TOKENS[parts[6]])
            else:
                raise MachineError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, MachineError):
                raise MachineError(f"{name}:{lineno}: {exc}") from None
            raise MachineError(f"{name}:{lineno}: malformed line {line!r}") from None
    if m is None or q0 is None or q_halt is None:
        raise MachineError(f"{name}: missing states/start/halt directive")
    try:
        return MachineSpec(mname or name, m, q0, q_halt, rules)
    except MachineError as exc:
        raise MachineError(f"{name}: {exc}") from None


def read_machine(path) -> tuple[MachineSpec, bytes]:
    """The machine a file describes, and the bytes it was parsed from, a leading BOM too."""
    data = Path(path).read_bytes()
    try:
        return parse_machine(data.decode("utf-8-sig"), name=str(path)), data
    except UnicodeDecodeError as exc:
        raise MachineError(f"{path}: not UTF-8 text: {exc}") from None


def load_machine(path) -> MachineSpec:
    return read_machine(path)[0]


def format_machine(spec: MachineSpec) -> str:
    """The file text of `spec`; ValueError for a name that `parse_machine` would not
    read back: empty, padded with whitespace, or holding a '#' or a line break."""
    if spec.name.strip().splitlines() != [spec.name] or "#" in spec.name:
        raise ValueError(f"machine name {spec.name!r} does not survive the file format")
    lines = [
        f"machine {spec.name}",
        f"states {spec.m}",
        f"start {spec.q0}",
        f"halt {spec.q_halt}",
    ]
    for (q, sym) in sorted(spec.rules):
        q2, sym2, shift = spec.rules[(q, sym)]
        lines.append(f"rule {q} {sym} -> {q2} {sym2} {SHIFT_NAMES[shift]}")
    return "\n".join(lines) + "\n"
