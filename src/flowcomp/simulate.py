"""Trajectory integration, crossing classification, and computation verdicts.

Integration happens in chart coordinates.  The normal coordinate rho decays
exactly like rho(0)e^{-t} plus a perturbation-forced part, and both live at
scales that underflow doubles, so rho is carried as a sign plus LogMagnitude.
The flow time to any arc length s is the integral of the per-level slowness,
`LevelSpeed.time_to`, since a start lies on the straight piece below the first
ramp (`integrate_chart`): one call gives a flow's times at its anchors, and
`simulate` makes one more per height for its sample rows.  At each anchor the
crossing is classified against the encoded interval of the corresponding
machine configuration, entirely in log space.

`integrate_chart` yields the crossings one height at a time, and a verdict
driver hands them as visits to `machine.read_verdict`, the one reader and
policy that `machine.run` uses too; it reads only as far as its verdict
needs, so reading stops the flow.  Every driver takes a height budget l_max
in 1..fs.l_max (`check_budget`), and returns a verdict in `machine.run`'s own
types: Halted(config, height), OutOfMemory(height), LOOP or UNRESOLVED.  So
flow and machine compare with `==`, and the budget that `format_verdict`
writes with UNRESOLVED is the number of heights flown.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .curves import CHART_HALF_WIDTH, RAMP_EPS
from .field import FieldSpec
from .logmag import LogMagnitude, signed_log_add
from .machine import (UNRESOLVED, Configuration, Halted, OutOfMemory, TapeBoundedSpec,
                      read_verdict)

LN_CHART_LIMIT = math.log(CHART_HALF_WIDTH)
CLASSIFY_GUARD = 1e-9

# arc-length spacing of the trajectory sample rows
_SAMPLE_DS = 0.05


class ConfinementError(RuntimeError):
    """|rho| reached the chart boundary: the schedule was violated."""


MISS = "Miss"


@dataclass(frozen=True)
class EventRecord:
    band: int
    height: int
    t: float
    s: float
    rho_sign: int
    rho_ln: LogMagnitude
    classification: object  # the Configuration of the box crossed, or MISS


@dataclass
class ChartTrajectory:
    band: int
    events: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (t, s, rho_sign, ln|rho|)


def format_verdict(result, budget: int) -> str:
    """The text of a flow's or `machine.run`'s verdict over `budget` heights."""
    if isinstance(result, Halted):
        c = result.config
        return f"HALTED {c.q} {c.r} {c.s} {result.steps}"
    if result is UNRESOLVED:
        return f"UNRESOLVED {budget}"
    return "OOM" if isinstance(result, OutOfMemory) else "LOOP"


@dataclass(frozen=True)
class HaltingSetSpec:
    """Output constraint: halting state plus tape digits at positions -k..k."""

    q_halt: int
    digits: tuple  # ((pos, symbol), ...) covering positions -k..k
    k: int

    @classmethod
    def from_digits(cls, q_halt: int, digit_map: dict) -> "HaltingSetSpec":
        k = max((abs(p) for p in digit_map), default=0)
        digits = tuple(sorted((p, digit_map.get(p, 0)) for p in range(-k, k + 1)))
        return cls(q_halt, digits, k)

    def matches(self, c: Configuration) -> bool:
        if c.q != self.q_halt:
            return False
        return all(c.digit(p) == sym for p, sym in self.digits)


# ---------------------------------------------------------------------------
# chart integration


def _sample_grid(s0: float, s_target: float) -> np.ndarray:
    """Arc lengths of a segment's rows: one every `_SAMPLE_DS` from s0, then
    s_target; their count ignores the last bit of the length."""
    n = max(1, math.ceil((s_target - s0) / _SAMPLE_DS - 1e-9))
    return np.append(np.arange(s0, s_target, _SAMPLE_DS)[:n], s_target)


def integrate_segment(fs: FieldSpec, band: int, height: int, t0: float, dur: float, rho,
                      perturbation, samples=None):
    """Advance by the flow time `dur` to anchor `height`; returns (t1, rho at
    t1, sample rows).

    `samples`, if given, is (grid, times): the rows' arc lengths, one every
    `_SAMPLE_DS` from the segment's start and the last one the anchor's, and
    their flow times from that start.  Without it there are no rows.
    The decay of rho by the elapsed time is carried in the fixed-point part
    of its magnitude, and the perturbation's forcing is added in closed form
    (`PerturbationSpec.forcing`): the segment passes the whole support of box
    (band, height - 1) and no other.  rho is the (sign, LogMagnitude) pair
    that `signed_log_add` takes and returns.
    """
    sign, w = rho
    out = sign, w - LogMagnitude.fixed(dur)
    if perturbation is not None:
        out = signed_log_add(*out, *perturbation.forcing(fs, band, height - 1))
    if out[0] != 0 and out[1] >= LN_CHART_LIMIT:
        raise ConfinementError(
            f"|rho| reached the chart boundary on band {band} at height {height}"
        )
    if samples is None:
        return t0 + dur, out, []
    grid, times = samples
    ln0 = w.ln()
    return t0 + dur, out, [(t, s_, sign, ln0 - (t - t0))
                           for t, s_ in zip((t0 + times).tolist(), grid.tolist())]


def classify_crossing(fs: FieldSpec, band: int, height: int, rho):
    """The box's Configuration iff ln|rho| is below the encoded-interval
    half-width, else MISS; rho is a (sign, LogMagnitude) pair."""
    curve = fs.curve(band)
    sign, w = rho
    if sign == 0 or w.diff_ln(curve.points[height].ln_half_width()) < -CLASSIFY_GUARD:
        return curve.configs[height]
    return MISS


def integrate_chart(fs: FieldSpec, band: int, start, perturbation, l_max: int,
                    samples: bool = False):
    """Yield (EventRecord, sample rows) of the chart flow from `start`, one
    height at a time from 1 to `l_max`; reading stops the flow.  Only with
    `samples` are rows built: a verdict reads the crossings alone.

    `start` is (s0, rho0), both finite, with s0 below RAMP_EPS: on the
    straight piece below the first ramp.  A bad start raises on the first
    read, before any segment is integrated.

    With rho = rho0 e^{-t} and T the slowness integral, ds/dt =
    lambda/(1 - kappa rho) gives t = T + ln(1 - rho0 int kappa e^{-T} dT).
    That is T to the last bit: kappa = 0 until sigma = RAMP_EPS, and past it
    |rho0| < 1/16 and level speeds below `contraction_speed_limit(0)` keep
    |rho0 int kappa e^{-T} dT| below e^-74, under half an ulp of T: a height
    takes the difference of T at its ends, from one `LevelSpeed.time_to` call.
    """
    s0, rho0 = start
    # s(u) >= u, so such a start lies below every bump support, and each
    # height is one segment from the anchor below it
    if not (-math.inf < s0 < RAMP_EPS and math.isfinite(rho0)):
        raise ValueError(f"start {start} is not a finite point below arc length {RAMP_EPS}")
    rho = ((0, LogMagnitude.zero()) if rho0 == 0.0 else
           (1 if rho0 > 0 else -1, LogMagnitude.from_ln(math.log(abs(rho0)))))
    if rho[0] != 0 and rho[1] >= LN_CHART_LIMIT:
        raise ConfinementError("start outside the chart")
    heights = fs.curve(band).arc_heights.tolist()
    speed = fs.speed(band)
    anchor_t = speed.time_to(np.array([s0, *heights[1:l_max + 1]])).tolist()
    t = 0.0
    for l in range(1, l_max + 1):
        seg = None
        if samples:  # each height's grid and slowness integral are built when it is read
            grid = _sample_grid(s0 if l == 1 else heights[l - 1], heights[l])
            T = speed.time_to(grid)
            seg = grid, T - T[0]
        t, rho, rows = integrate_segment(fs, band, l, t, anchor_t[l] - anchor_t[l - 1], rho,
                                         perturbation, seg)
        yield EventRecord(band, l, t, heights[l], *rho, classify_crossing(fs, band, l, rho)), rows


# ---------------------------------------------------------------------------
# verdict-level simulation


def check_budget(fs: FieldSpec, l_max: int):
    """A verdict's height budget is the number of heights it may fly: 1..fs.l_max."""
    if not 1 <= l_max <= fs.l_max:
        raise ValueError(f"height budget {l_max} outside 1..{fs.l_max}")


def simulate_input(fs: FieldSpec, input_index: int, constraint: HaltingSetSpec | None,
                   l_max: int, perturbation=None, start=(0.0, 0.0), samples: bool = False):
    """Flow one enumerated input up to its first halting crossing within
    `l_max` heights; returns (verdict, hit, traj), with rows if `samples`.

    `machine.read_verdict` reads the visits lazily, from the start's own box
    (height 0) on, and the flow advances only as far as it reads: a start
    that halts flows nowhere.
    """
    check_budget(fs, l_max)
    traj = ChartTrajectory(input_index)

    def visits():
        yield 0, None, fs.curve(input_index).configs[0]
        for ev, rows in integrate_chart(fs, input_index, start, perturbation, l_max, samples):
            traj.events.append(ev)
            traj.samples.extend(rows)
            yield ev.height, None, ev.classification

    verdict, hit = read_verdict(visits(), fs.machine, constraint)
    return verdict, hit, traj


def simulate_bounded(fs: FieldSpec, bounded: TapeBoundedSpec, input_index: int,
                     l_max: int, window: float, perturbation=None):
    """Three-case verdict for a tape-bounded machine read off the flow.

    `machine.read_verdict` reads the crossings as it reads `run_bounded`'s
    steps, passing the box below each: OutOfMemory past the bound, else
    Halted, else LOOP at a crossing outside the window of radius `window` > 0
    (the trajectory escapes to infinity without reaching a distinguished
    box).  An input tape already past the bound raises MachineError.
    """
    check_budget(fs, l_max)
    if not window > 0:
        raise ValueError(f"window {window} is not positive")
    if bounded.base != fs.machine:
        raise ValueError("field and bounded machine disagree")
    curve = fs.curve(input_index)
    bounded.check_input(curve.configs[0])

    def visits():
        yield 0, None, curve.configs[0]
        for ev, _ in integrate_chart(fs, input_index, (0.0, 0.0), perturbation, l_max):
            yield ev.height, curve.configs[ev.height - 1], ev.classification

    def escaped(height, c, head):
        return height > 0 and math.hypot(float(curve.x[height]), height) > window

    return read_verdict(visits(), fs.machine, bounded=bounded, escaped=escaped)[0]


# ---------------------------------------------------------------------------
# export row formats


def trajectory_rows(traj: ChartTrajectory):
    """Rows t,s,rho_sign,ln_abs_rho,band,l_next for the trajectory dump."""
    ev_s = [e.s for e in traj.events]
    ev_heights = [e.height for e in traj.events] + [-1]
    return [(t, s, sign, ln_rho, traj.band, ev_heights[bisect_left(ev_s, s)])
            for t, s, sign, ln_rho in traj.samples]


def event_rows(traj: ChartTrajectory):
    """Rows band,l,classification,q,r,s,t for the event log."""
    rows = []
    for e in traj.events:
        c = e.classification
        if isinstance(c, Configuration):
            rows.append((e.band, e.height, "InsideBox", c.q, c.r, c.s, e.t))
        else:
            rows.append((e.band, e.height, "Miss", "", "", "", e.t))
    return rows
