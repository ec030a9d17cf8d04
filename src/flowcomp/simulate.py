"""Trajectory integration, crossing classification, and computation verdicts.

Integration happens in chart coordinates.  The normal coordinate rho decays
exactly like rho(0)e^{-t} plus a perturbation-forced part, and both live at
scales that underflow doubles, so rho is carried as a sign plus LogMagnitude.
The flow time to any arc length s is closed-form (`crossing_times`): the
integral of the per-level slowness, corrected by an exponentially weighted
integral of the curvature while rho is visible at double precision.  At each
arc-length anchor the crossing is classified against the encoded interval of
the corresponding machine configuration, entirely in log space.

`integrate_chart` yields the crossings one height at a time, and a verdict
driver reads them only as far as its verdict needs: reading stops the flow.
Every driver takes a height budget l_max in 1..fs.l_max (`check_budget`), so
an UNRESOLVED verdict's budget is the number of heights flown.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .curves import CHART_HALF_WIDTH
from .field import FieldSpec
from .logmag import LogMagnitude, signed_log_add
from .machine import Configuration, TapeBoundedSpec, encode

LN_CHART_LIMIT = math.log(CHART_HALF_WIDTH)
CLASSIFY_GUARD = 1e-9

# below this log-magnitude, rho has no effect on the s-equation at double
# precision (|kappa*rho| < 1e-85)
_RHO_FLOAT_FLOOR = -200.0
# arc-length spacing of the trajectory sample rows
_SAMPLE_DS = 0.05
# flow-time step of the curvature quadrature in `crossing_times`
_QUAD_DT = 0.01


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


@dataclass(frozen=True)
class SimulationVerdict:
    kind: str  # HALTED | LOOP | OOM | LEFT_WINDOW | UNRESOLVED
    config: Configuration | None = None
    height: int | None = None
    budget: int | None = None


def format_verdict(v: SimulationVerdict) -> str:
    if v.kind == "HALTED":
        return f"HALTED {v.config.q} {v.config.r} {v.config.s} {v.height}"
    if v.kind == "UNRESOLVED":
        return f"UNRESOLVED {v.budget}"
    return v.kind


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


def _exp_weights(h):
    """Weights (left, right) of the exact integral of a linear function times
    e^{-tau} over [0, h]: the integral of e^{-tau} minus, and plus, that of
    (tau/h) e^{-tau}, the latter by its series below h = 1e-4."""
    decay = -np.expm1(-h)
    with np.errstate(divide="ignore", invalid="ignore"):
        right = np.where(h > 1e-4, (decay - h * np.exp(-h)) / h,
                         h / 2.0 - h * h / 3.0 + h**3 / 8.0)
    return decay - right, right


def crossing_times(curve, time_of, s0: float, rho0: float, s, T) -> np.ndarray:
    """Flow times from s0 to each arc length of the ascending array s.

    Along the chart flow rho(t) = rho0 e^{-t} exactly.  With T(s) =
    time_of(s0, s), the integral of the slowness 1/lambda, the s-equation
    ds/dt = lambda/(1 - kappa rho) reads dt/dT = 1 - kappa rho0 e^{-t},
    which is linear in W = e^t, so

        t(s) = T(s) + ln(1 - rho0 I(s)),  I(s) = int_0^T(s) kappa e^{-T'} dT'.

    I takes kappa piecewise linear in T between nodes about `_QUAD_DT` apart
    and integrates each piece against e^{-T'} exactly (exponential time
    differencing).  It is cut off where ln|rho| falls below
    `_RHO_FLOAT_FLOOR`; past that, rho does not reach the s-equation at
    double precision and t - T stays constant.  T holds T(s) at each s.
    """
    t_cut = math.log(abs(rho0)) - _RHO_FLOAT_FLOOR if rho0 != 0.0 else 0.0
    if t_cut <= 0.0:
        return T
    # nodes run from s0 to where T reaches t_cut (or to the last s), and
    # include every requested s before that
    lo, hi = s0, float(s[-1])
    if T[-1] > t_cut:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if time_of(s0, mid) > t_cut else (mid, hi)
    n = math.ceil(min(t_cut, T[-1]) / _QUAD_DT)
    nodes = np.union1d(np.linspace(s0, hi, n + 1), s[s < hi])
    t_nodes = time_of(s0, nodes)
    kappa = curve.kappa_at_arclength(nodes)
    left, right = _exp_weights(np.diff(t_nodes))
    pieces = np.exp(-t_nodes[:-1]) * (left * kappa[:-1] + right * kappa[1:])
    I = np.concatenate([[0.0], np.cumsum(pieces)])
    I_at_s = I[np.minimum(np.searchsorted(nodes, s), len(nodes) - 1)]
    return T + np.log1p(-rho0 * I_at_s)


def _sample_grid(s0: float, s_target: float) -> np.ndarray:
    """Arc lengths of a segment's rows: one every `_SAMPLE_DS` from s0, then
    s_target; their count ignores the last bit of the length."""
    n = max(1, math.ceil((s_target - s0) / _SAMPLE_DS - 1e-9))
    return np.append(np.arange(s0, s_target, _SAMPLE_DS)[:n], s_target)


def integrate_segment(fs: FieldSpec, band: int, height: int, s0: float,
                      t0: float, rho, perturbation, samples):
    """Advance from s0 to anchor `height`; returns (t1, rho at t1, sample rows).

    The crossing time and the times of the sample rows, one every
    `_SAMPLE_DS` of arc, come from `crossing_times` with the band's
    closed-form slowness integral.  `samples` is (grid, T): the rows' arc
    lengths, the last one the anchor's, and their slowness integrals from s0.
    The decay of rho by the elapsed time is carried in the fixed-point part
    of its magnitude, and the perturbation's forcing is added by its exact
    exponential integral: the segment passes the whole support of box
    (band, height - 1) and no other.  rho is the (sign, LogMagnitude) pair
    that `signed_log_add` takes and returns.
    """
    grid, T = samples
    sign, w = rho
    ln0 = w.ln()
    times = crossing_times(fs.curve(band), fs.speed(band).time, s0,
                           sign * math.exp(ln0), grid, T)
    dur = float(times[-1])
    t1 = t0 + dur

    out = sign, w - LogMagnitude.fixed(dur)
    if perturbation is not None:
        out = signed_log_add(*out, *perturbation.forcing(fs, band, height - 1))
    if out[0] != 0 and out[1] >= LN_CHART_LIMIT:
        raise ConfinementError(
            f"|rho| reached the chart boundary on band {band} at height {height}"
        )
    return t1, out, [(t, s_, sign, ln0 - (t - t0))
                     for t, s_ in zip((t0 + times).tolist(), grid.tolist())]


def classify_crossing(fs: FieldSpec, band: int, height: int, rho):
    """The box's Configuration iff ln|rho| is below the encoded-interval
    half-width, else MISS; rho is a (sign, LogMagnitude) pair."""
    c = fs.curve(band).configs[height]
    sign, w = rho
    if sign == 0 or w.diff_ln(encode(c).ln_half_width()) < -CLASSIFY_GUARD:
        return c
    return MISS


def integrate_chart(fs: FieldSpec, band: int, start, perturbation, l_max: int):
    """Yield (EventRecord, sample rows) of the chart flow from `start`, one
    height at a time from 1 to `l_max`; reading stops the flow.

    `start` is (s0, rho0) with s0 below arc length 1/4 and rho0 a float; a
    bad start raises on the first read, before any segment is integrated.
    """
    s0, rho0 = start
    # s(u) >= u, so such a start lies below every bump support, and each
    # height is one segment from the anchor below it
    if s0 >= 0.25:
        raise ValueError(f"start at arc length {s0} is not below 1/4")
    rho = ((0, LogMagnitude.zero()) if rho0 == 0.0 else
           (1 if rho0 > 0 else -1, LogMagnitude.from_ln(math.log(abs(rho0)))))
    if rho[0] != 0 and rho[1] >= LN_CHART_LIMIT:
        raise ConfinementError("start outside the chart")
    heights = fs.curve(band).arc_heights.tolist()
    segments = [(l, s0 if l == 1 else heights[l - 1], heights[l])  # height, start, anchor
                for l in range(1, l_max + 1)]
    # one slowness evaluation for the whole run: s0, then every segment's
    # grid, whose last node is the next segment's start
    grids = [_sample_grid(a, b) for _, a, b in segments]
    T_all = fs.speed(band).time_to(np.concatenate([[s0]] + grids))
    ends = np.cumsum([1] + [len(g) for g in grids]).tolist()
    t = 0.0
    for (l, a, b), grid, lo, hi in zip(segments, grids, ends, ends[1:]):
        t, rho, rows = integrate_segment(fs, band, l, a, t, rho, perturbation,
                                         (grid, T_all[lo:hi] - T_all[lo - 1]))
        yield EventRecord(band, l, t, b, *rho, classify_crossing(fs, band, l, rho)), rows


# ---------------------------------------------------------------------------
# verdict-level simulation


def check_budget(fs: FieldSpec, l_max: int):
    """A verdict's height budget is the number of heights it may fly: 1..fs.l_max."""
    if not 1 <= l_max <= fs.l_max:
        raise ValueError(f"height budget {l_max} outside 1..{fs.l_max}")


def read_verdict(visits, q_halt: int, constraint: HaltingSetSpec | None, budget: int):
    """(verdict, hit) of ordered (height, Configuration) visits.

    HALTED at the first halting visit, after which nothing is read: halting
    configurations are fixed by the transition.  Else UNRESOLVED at `budget`.
    hit: some visit read lies in the constrained halting family.
    """
    hit = False
    for height, c in visits:
        hit |= constraint is not None and constraint.matches(c)
        if c.q == q_halt:
            return SimulationVerdict("HALTED", c, height), hit
    return SimulationVerdict("UNRESOLVED", budget=budget), hit


def simulate_input(fs: FieldSpec, input_index: int, constraint: HaltingSetSpec | None,
                   l_max: int, perturbation=None, start=(0.0, 0.0)):
    """Flow one enumerated input up to its first halting crossing within
    `l_max` heights; returns (verdict, hit, traj).

    `read_verdict` reads the visits lazily, from the start's own box (height
    0) on, and the flow advances only as far as it reads: a start that halts
    flows nowhere.
    """
    check_budget(fs, l_max)
    traj = ChartTrajectory(input_index)

    def visits():
        yield 0, fs.curve(input_index).configs[0]
        for ev, rows in integrate_chart(fs, input_index, start, perturbation, l_max):
            traj.events.append(ev)
            traj.samples.extend(rows)
            if isinstance(ev.classification, Configuration):
                yield ev.height, ev.classification

    verdict, hit = read_verdict(visits(), fs.machine.q_halt, constraint, l_max)
    return verdict, hit, traj


def simulate_bounded(fs: FieldSpec, bounded: TapeBoundedSpec, input_index: int,
                     l_max: int, window: float, perturbation=None):
    """Three-case verdict for a tape-bounded machine read off the flow.

    Order of precedence at each crossing: a box whose configuration needs
    more tape than the bound gives OOM; a halting box gives HALTED; leaving
    the window of radius `window` before either gives LOOP (the trajectory
    escapes to infinity without ever reaching a distinguished box).
    """
    check_budget(fs, l_max)
    if bounded.base != fs.machine:
        raise ValueError("field and bounded machine disagree")
    q_halt = fs.machine.q_halt
    c0 = fs.curve(input_index).configs[0]
    if c0.q == q_halt:
        return SimulationVerdict("HALTED", c0, 0)
    for ev, _ in integrate_chart(fs, input_index, (0.0, 0.0), perturbation, l_max):
        c = ev.classification
        if isinstance(c, Configuration):
            if c.tape_size() > bounded.tape_size:
                return SimulationVerdict("OOM", height=ev.height)
            if c.q == q_halt:
                return SimulationVerdict("HALTED", c, ev.height)
        if math.hypot(float(fs.curve(ev.band).x[ev.height]), ev.height) > window:
            return SimulationVerdict("LOOP", height=ev.height)
    return SimulationVerdict("UNRESOLVED", budget=l_max)


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
