import dataclasses
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from flowcomp import machine
from flowcomp.machine import (
    LOOP,
    UNRESOLVED,
    Configuration,
    Halted,
    MachineError,
    MachineSpec,
    OutOfMemory,
    TapeBoundedSpec,
    encode,
    enumerate_inputs,
    format_machine,
    interval_of,
    parse_machine,
    read_machine,
    read_verdict,
    run,
    run_bounded,
    step,
    trajectory,
)
from flowcomp.simulate import HaltingSetSpec


def uniform_machine(q2, sym_of, shift, m=2, q0=1, q_halt=2, name="t"):
    rules = {(1, d): (q2, sym_of(d), shift) for d in range(10)}
    return MachineSpec(name, m, q0, q_halt, rules)


@pytest.fixture
def incrementer():
    return uniform_machine(2, lambda d: (d + 1) % 10, 0)


@pytest.fixture
def spinner():
    return uniform_machine(1, lambda d: d, 0)


@pytest.fixture
def right_filler():
    return uniform_machine(1, lambda d: 9, 1)


# -- transition semantics ---------------------------------------------------


def test_left_shift_moves_head_digit_to_negative_side():
    # rule writes 1 then shifts tape left: blank tape becomes (r, s) = (0, 1)
    spec = uniform_machine(1, lambda d: 1, 1)
    c = step(spec, Configuration(1, 0, 0))
    assert (c.r, c.s) == (0, 1)


def test_right_shift_pulls_from_negative_side():
    spec = uniform_machine(1, lambda d: 7, -1)
    c = step(spec, Configuration(1, 0, 34))
    assert (c.r, c.s) == (74, 3)


def test_halting_state_is_fixed(incrementer):
    c = Configuration(2, 123, 45)
    assert step(incrementer, c) == c


def test_digit_and_from_digits():
    c = Configuration(1, 703, 409)
    assert c.digit(0) == 3 and c.digit(2) == 7
    assert c.digit(-1) == 9 and c.digit(-3) == 4
    assert c.digit(5) == 0 and c.digit(-2) == 0


# -- execution --------------------------------------------------------------


def test_run_halts(incrementer):
    res = run(incrementer, Configuration(1, 0, 0), 10)
    assert isinstance(res, Halted)
    assert res.steps == 1 and res.config == Configuration(2, 1, 0)


def test_run_unresolved(spinner):
    assert run(spinner, Configuration(1, 0, 0), 100) is UNRESOLVED


def test_trajectory(right_filler):
    t = trajectory(right_filler, Configuration(1, 0, 0), 2)
    assert [(c.r, c.s) for c in t] == [(0, 0), (0, 9), (0, 99)]


def test_bounded_out_of_memory(right_filler):
    spec = TapeBoundedSpec(right_filler, -1, 1)
    res = run_bounded(spec, Configuration(1, 0, 0), 100)
    assert isinstance(res, OutOfMemory)
    assert res.steps == 2


def test_bounded_loop(spinner):
    spec = TapeBoundedSpec(spinner, -2, 2)
    assert run_bounded(spec, Configuration(1, 3, 0), 100) is LOOP


def test_bounded_halt(incrementer):
    spec = TapeBoundedSpec(incrementer, -2, 2)
    res = run_bounded(spec, Configuration(1, 0, 0), 100)
    assert isinstance(res, Halted) and res.steps == 1


def test_bounded_rejects_oversized_input(right_filler):
    spec = TapeBoundedSpec(right_filler, -1, 1)
    with pytest.raises(MachineError):
        run_bounded(spec, Configuration(1, 100, 0), 10)


# -- the verdict reader ------------------------------------------------------


def test_read_verdict_stops_at_the_first_halting_visit(incrementer):
    halt = Configuration(2, 1, 0)

    def visits():
        yield 1, None, Configuration(1, 0, 0)
        yield 2, None, halt
        raise AssertionError("read past the halting visit")

    hs = HaltingSetSpec.from_digits(2, {0: 1})
    assert read_verdict(visits(), incrementer, hs) == (Halted(halt, 2), True)
    assert read_verdict(visits(), incrementer, None) == (Halted(halt, 2), False)


def test_read_verdict_unresolved_still_reports_a_hit(incrementer):
    seen = [(1, None, Configuration(1, 5, 0)), (2, None, Configuration(1, 7, 0))]
    hs = HaltingSetSpec.from_digits(1, {0: 5})
    # a visit in the constrained family sets hit without halting
    assert read_verdict(iter(seen), incrementer, hs) == (UNRESOLVED, True)
    assert read_verdict(iter([]), incrementer, hs) == (UNRESOLVED, False)


def test_read_verdict_reads_out_of_memory_before_halting():
    # one move left, into the halting state: the box past b- = 0 halts too
    spec = uniform_machine(2, lambda d: d, -1)
    bnd = TapeBoundedSpec(spec, 0, 1)
    c0 = Configuration(1, 0, 0)
    c1 = step(spec, c0)
    assert c1.q == spec.q_halt
    visits = [(0, None, c0), (1, c0, c1)]
    assert read_verdict(iter(visits), spec, None, bnd) == (OutOfMemory(1), False)
    assert read_verdict(iter(visits), spec) == (Halted(c1, 1), False)
    assert run_bounded(bnd, c0, 5) == OutOfMemory(1)


def test_a_missed_box_moves_the_head_and_may_loop_but_never_halts_or_runs_out(
        incrementer, right_filler):
    # right_filler moves the head right at every step; from height 2 on it is
    # past b+ = 1, but only at boxes the flow missed
    bnd = TapeBoundedSpec(right_filler, -1, 1)
    cs = trajectory(right_filler, Configuration(1, 0, 0), 3)
    missed = [(0, None, cs[0])] + [(k, cs[k - 1], "Miss") for k in (1, 2, 3)]
    heads = []

    def escaped(k, c, head):
        heads.append((k, c, head))
        return False

    assert read_verdict(iter(missed), right_filler, None, bnd, escaped) == (UNRESOLVED, False)
    assert heads == [(0, cs[0], 0), (1, "Miss", 1), (2, "Miss", 2), (3, "Miss", 3)]
    looped = read_verdict(iter(missed), right_filler, None, bnd, lambda k, c, head: head == 2)
    assert looped == (LOOP, False)
    # the head is read past the bound at the first box the flow crosses
    assert read_verdict(iter(missed[:3] + [(3, cs[2], cs[3])]), right_filler, None, bnd) == (
        OutOfMemory(3), False)
    # a missed halting box neither halts, nor is hit, nor moves the head
    inc = trajectory(incrementer, Configuration(1, 0, 0), 2)
    assert inc[1].q == inc[2].q == incrementer.q_halt
    hs = HaltingSetSpec.from_digits(2, {0: 1})
    visits = [(0, None, inc[0]), (1, inc[0], "Miss"), (2, inc[1], "Miss")]
    assert read_verdict(iter(visits), incrementer, hs, TapeBoundedSpec(incrementer, -1, 1),
                        lambda k, c, head: False) == (UNRESOLVED, False)


# -- encoding ---------------------------------------------------------------


def test_encode_blank():
    p = encode(Configuration(1, 0, 0))
    assert p.value() == Fraction(1, 2)
    assert p.interval() == (Fraction(31, 64), Fraction(33, 64))


def test_encode_general():
    p = encode(Configuration(3, 2, 1))
    assert p.value() == Fraction(1, 8 * 9 * 5)


def test_interval_translation():
    p = encode(Configuration(1, 0, 0))
    a, b = interval_of(p, 2)
    assert a == Fraction(31, 64) + 4 and b == Fraction(33, 64) + 4


def test_interval_width_matches_exponent_formula():
    p = encode(Configuration(2, 1, 1))
    a, b = p.interval()
    assert b - a == Fraction(1, 2 ** (2 + 4) * 3 * 5)


def test_huge_exponent_raises():
    p = encode(Configuration(1, 10**7, 0))
    with pytest.raises(OverflowError):
        p.value()
    # log form still fine
    assert p.ln_value().ln() < -(10**6)


def test_input_enumeration_order(incrementer):
    order = [(c.r, c.s) for _, c, _ in enumerate_inputs(incrementer, 6)]
    assert order == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_enumeration_is_descending_in_encoded_value(incrementer):
    pts = [p.value() for _, _, p in enumerate_inputs(incrementer, 12)]
    assert all(a > b for a, b in zip(pts, pts[1:]))


# -- file format ------------------------------------------------------------

GOOD = """\
machine demo
states 2
start 1
halt 2
# increments then halts
rule 1 0 -> 2 1 S0
rule 1 1 -> 2 2 S0
rule 1 2 -> 2 3 S0
rule 1 3 -> 2 4 S0
rule 1 4 -> 2 5 S0
rule 1 5 -> 2 6 S0
rule 1 6 -> 2 7 S0
rule 1 7 -> 2 8 S0
rule 1 8 -> 2 9 S0
rule 1 9 -> 2 0 S0
"""


def test_parse_roundtrip():
    spec = parse_machine(GOOD)
    assert spec.name == "demo" and spec.m == 2
    assert spec.rules[(1, 3)] == (2, 4, 0)
    assert parse_machine(format_machine(spec)) == spec


@st.composite
def machine_specs(draw):
    """Machines of 1-4 states with every rule drawn.  The name may hold inner
    spaces and tabs, but no '#', line break or outer whitespace: those are
    the names the file format carries."""
    m = draw(st.integers(1, 4))
    q_halt = draw(st.integers(1, m))
    rule = st.tuples(st.integers(1, m), st.integers(0, 9), st.sampled_from((-1, 0, 1)))
    rules = {(q, d): draw(rule) for q in range(1, m + 1) if q != q_halt for d in range(10)}
    name = draw(st.text("abcxyz019_-. \t", min_size=1, max_size=12).filter(
        lambda n: n.strip() == n))
    return MachineSpec(name, m, draw(st.integers(1, m)), q_halt, rules)


@given(machine_specs())
def test_format_then_parse_is_the_identity(spec):
    assert parse_machine(format_machine(spec)) == spec


def test_names_that_would_not_survive_the_round_trip_are_refused():
    spec = parse_machine(GOOD)
    named = parse_machine(format_machine(dataclasses.replace(spec, name="my  machine")))
    assert named.name == "my  machine"
    assert parse_machine("machine two words # a comment\n" + GOOD.split("\n", 1)[1]).name == (
        "two words")
    for name in ("", " lead", "trail\t", "a#b", "two\nlines", "a\rb", "a\u2028b"):
        with pytest.raises(ValueError):
            format_machine(dataclasses.replace(spec, name=name))


def test_shipped_machines_are_the_text_format_machine_writes():
    # a hand edit the parser reads differently from the pins shows here
    paths = sorted((Path(__file__).resolve().parent.parent / "machines").glob("*.tm"))
    assert [p.stem for p in paths] == ["brady_4", "incrementer", "late_left", "late_right",
                                       "lin_rado_3", "right_filler", "spinner"]
    for path in paths:
        spec, data = read_machine(path)
        assert format_machine(spec).encode() == data, path.name


def test_rule_from_a_state_outside_the_machine_is_refused():
    with pytest.raises(MachineError, match=r"bad rule \(7, 0\)"):
        parse_machine(GOOD + "rule 7 0 -> 1 0 S0\n")
    rules = {(1, d): (2, d, 0) for d in range(10)} | {(0, 0): (1, 0, 0)}
    with pytest.raises(MachineError, match=r"bad rule \(0, 0\)"):
        MachineSpec("t", 2, 1, 2, rules)


def test_parse_missing_rule():
    broken = "\n".join(GOOD.splitlines()[:-1])
    with pytest.raises(MachineError, match="missing rule"):
        parse_machine(broken)


def test_parse_duplicate_rule():
    with pytest.raises(MachineError, match="duplicate"):
        parse_machine(GOOD + "rule 1 9 -> 1 9 S0\n")


@pytest.mark.parametrize("line, first", [("machine other", 1), ("states 3", 2),
                                         ("start 1", 3), ("halt 1", 4)])
def test_parse_directive_given_twice_names_both_lines(line, first):
    # the last one once won: `start 1` set q0, `machine other` renamed the machine
    with pytest.raises(MachineError, match=f"^<string>:16: directive `{line.split()[0]}` "
                                           f"given again, first on line {first}$"):
        parse_machine(GOOD + line + "\n")


def test_parse_bad_shift():
    with pytest.raises(MachineError, match="shift"):
        parse_machine(GOOD.replace("rule 1 9 -> 2 0 S0", "rule 1 9 -> 2 0 S+2"))


def test_parse_reports_line_number():
    with pytest.raises(MachineError, match=":6:"):
        parse_machine(GOOD.replace("rule 1 0 -> 2 1 S0", "rule 1 zero -> 2 1 S0"))


# -- references: the loops that `read_verdict` replaced ---------------------


def reference_run(spec: MachineSpec, c0: Configuration, max_steps: int):
    """Direct execution: Halted(config, steps) or UNRESOLVED."""
    c = c0
    for k in range(max_steps + 1):
        if c.q == spec.q_halt:
            return Halted(c, k)
        if k == max_steps:
            break
        c = step(spec, c)
    return UNRESOLVED


def reference_trajectory(spec: MachineSpec, c0: Configuration, n: int) -> list[Configuration]:
    """c0, Delta(c0), ..., Delta^n(c0)."""
    out = [c0]
    for _ in range(n):
        out.append(step(spec, out[-1]))
    return out


def reference_run_bounded(spec: TapeBoundedSpec, c0: Configuration, max_steps: int):
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


def counted(fn, *args):
    """(fn(*args) or the MachineError it raises, the number of `step` calls)."""
    calls, real = [], machine.step

    def counting(spec, c):
        calls.append(c)
        return real(spec, c)

    # the references call this module's `step`, the reader's stream the machine's
    with mock.patch.object(machine, "step", counting), \
            mock.patch.object(sys.modules[__name__], "step", counting):
        try:
            out = fn(*args)
        except MachineError as exc:
            out = type(exc)
    return out, len(calls)


@given(machine_specs(), st.integers(0, 40), st.integers(-3, 0), st.integers(1, 3))
def test_the_reader_is_the_reference_loops_on_drawn_machines(spec, budget, b_minus, b_plus):
    bnd = TapeBoundedSpec(spec, b_minus, b_plus)
    for _, c0, _ in enumerate_inputs(spec, 3):
        assert counted(run, spec, c0, budget) == counted(reference_run, spec, c0, budget)
        assert counted(trajectory, spec, c0, budget) == counted(
            reference_trajectory, spec, c0, budget)
        (got, n), (want, n_ref) = (counted(run_bounded, bnd, c0, budget),
                                   counted(reference_run_bounded, bnd, c0, budget))
        # the stream takes the step out of bounds before the reader sees it
        assert got == want and n == n_ref + isinstance(want, OutOfMemory)
