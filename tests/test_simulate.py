import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomp import simulate
from flowcomp.curves import RAMP_EPS
from flowcomp.field import FieldSpec, error_schedule
from flowcomp.logmag import LogMagnitude
from flowcomp.machine import (
    LOOP,
    UNRESOLVED,
    Configuration,
    Halted,
    MachineError,
    MachineSpec,
    OutOfMemory,
    TapeBoundedSpec,
    enumerate_inputs,
    run,
    run_bounded,
)
from flowcomp.robust import sample_perturbation
from flowcomp.simulate import (
    MISS,
    ChartTrajectory,
    ConfinementError,
    EventRecord,
    HaltingSetSpec,
    _sample_grid,
    classify_crossing,
    event_rows,
    format_verdict,
    integrate_chart,
    integrate_segment,
    read_verdict,
    simulate_bounded,
    simulate_input,
    trajectory_rows,
)
from flowcomp.sphere import delta_threshold, discrete_orbit_verdict
from test_machine import machine_specs


def mk(q2, f, shift, name):
    return MachineSpec(name, 2, 1, 2, {(1, d): (q2, f(d), shift) for d in range(10)})


@pytest.fixture(scope="module")
def incrementer():
    return mk(2, lambda d: (d + 1) % 10, 0, "inc")


@pytest.fixture(scope="module")
def spinner():
    return mk(1, lambda d: d, 0, "spin")


@pytest.fixture(scope="module")
def right_filler():
    return mk(1, lambda d: 9, 1, "fill")


@pytest.fixture(scope="module")
def fs(incrementer):
    return FieldSpec(incrementer, n_bands=2, l_max=6)


L_MAX = 5


def chart(fs, start, perturbation=None, l_max=L_MAX, reads=None):
    """The first `reads` items of band 0's crossing stream (all by default),
    gathered into a ChartTrajectory."""
    traj = ChartTrajectory(0)
    stream = integrate_chart(fs, 0, start, perturbation, l_max, samples=True)
    for ev, rows in itertools.islice(stream, reads):
        traj.events.append(ev)
        traj.samples.extend(rows)
    return traj


@pytest.fixture
def segments(monkeypatch):
    """The heights `integrate_chart` integrates, one entry per segment."""
    seen = []
    integrate = simulate.integrate_segment

    def counted(fs, band, height, *args):
        seen.append(height)
        return integrate(fs, band, height, *args)

    monkeypatch.setattr(simulate, "integrate_segment", counted)
    return seen


def test_on_curve_trajectory_stays_on_curve(fs):
    traj = chart(fs, (0.0, 0.0))
    assert len(traj.events) == 5
    assert all(e.rho_sign == 0 for e in traj.events)
    assert all(isinstance(e.classification, Configuration) for e in traj.events)


def test_rho_exact_decay(fs):
    traj = chart(fs, (0.0, 1e-3))
    for e in traj.events:
        assert e.rho_sign == 1
        assert e.rho_ln.ln() == pytest.approx(math.log(1e-3) - e.t, rel=1e-12)


def test_crossing_time_lower_bound(fs):
    traj = chart(fs, (0.0, 0.0))
    ts = np.array([0.0] + [e.t for e in traj.events])
    ss = np.array([0.0] + [e.s for e in traj.events])
    assert np.all(np.diff(ts) > np.diff(ss) / (16 * fs.lam))
    assert np.all(np.diff(ts) >= 1.0 / (16 * fs.lam))


def test_events_strictly_increasing(fs):
    traj = chart(fs, (0.0, 0.0))
    hs = [e.height for e in traj.events]
    assert hs == sorted(hs) and len(set(hs)) == len(hs)
    ss = [s for _, s, _, _ in traj.samples]
    assert all(b >= a for a, b in zip(ss, ss[1:]))


def test_segment_rows_do_not_depend_on_the_last_bit_of_its_length(fs):
    # a unit segment gets 20 rows every 0.05 of arc plus its anchor; a row
    # more would sit within 1e-16 of the anchor it duplicates
    rho = (0, LogMagnitude.zero())
    counts = []
    for length in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)):
        grid = _sample_grid(0.0, length)
        times = fs.speed(0).time(np.zeros(1), grid)
        _, _, rows = integrate_segment(fs, 0, 1, 0.0, float(times[-1]), rho, None, (grid, times))
        counts.append(len(rows))
        assert [s for _, s, _, _ in rows[:-1]] == np.arange(0.0, 1.0, 0.05).tolist()
    assert counts == [21, 21, 21]


def reference_times(fs, traj, start):
    """Sample and event times of a run rebuilt one segment at a time from
    the band's slowness integral speed.time(s0, grid)."""
    speed = fs.speed(traj.band)
    s0, t0 = start[0], 0.0
    samples, events = [], []
    for ev in traj.events:
        n = max(1, math.ceil((ev.s - s0) / simulate._SAMPLE_DS - 1e-9))
        grid = np.append(np.arange(s0, ev.s, simulate._SAMPLE_DS)[:n], ev.s)
        times = speed.time(np.array([s0]), grid)
        samples += (t0 + times).tolist()
        t0 += float(times[-1])
        events.append(t0)
        s0 = ev.s
    return samples, events


@pytest.mark.parametrize("case", ["on_curve", "off_curve", "perturbed", "early_stop"])
def test_batched_slowness_matches_per_segment_reference(fs, case):
    start, pert, reads = (0.0, 0.0), None, None
    if case in ("off_curve", "perturbed"):
        start = (RAMP_EPS / 2, 0.01)
    if case == "perturbed":
        pert = sample_perturbation(error_schedule(fs), seed=4)
    if case == "early_stop":
        reads = 3
    traj = chart(fs, start, pert, reads=reads)
    assert len(traj.events) == (3 if case == "early_stop" else 5)
    samples, events = reference_times(fs, traj, start)
    assert [t for t, _, _, _ in traj.samples] == samples
    assert [e.t for e in traj.events] == events
    if start[1] != 0.0:
        # rho0 does not move the flow time: every row up to the first crossing
        # is the slowness integral from the start
        first = [(t, s) for t, s, _, _ in traj.samples if s <= traj.events[0].s]
        t, s = np.array(first).T
        assert np.array_equal(t, fs.speed(0).time(np.array([start[0]]), s))


def test_a_read_that_stops_at_height_one_integrates_only_its_grid(fs, monkeypatch):
    # each height's sample grid and slowness integral are built when it is read
    from flowcomp.field import LevelSpeed

    seen = []
    time_to = LevelSpeed.time_to

    def counted(self, s):
        seen.append(np.atleast_1d(s))
        return time_to(self, s)

    monkeypatch.setattr(LevelSpeed, "time_to", counted)
    traj = chart(fs, (0.0, 0.0), reads=1)
    heights = fs.curve(0).arc_heights
    assert [e.height for e in traj.events] == [1]
    assert len(seen) == 1
    assert seen[0].tolist() == _sample_grid(0.0, float(heights[1])).tolist()


def test_a_verdict_flow_builds_no_grid_and_one_segment_per_height(spinner, right_filler,
                                                                  monkeypatch):
    # without `samples` the flow times come from the anchors alone: no
    # slowness integral on a grid, no rows, and one segment per height flown
    from flowcomp.field import LevelSpeed

    grids, seen = [], []
    time_to, integrate = LevelSpeed.time_to, simulate.integrate_segment

    def counted(fs, band, height, *args):
        out = integrate(fs, band, height, *args)
        seen.append((height, len(out[2])))
        return out

    monkeypatch.setattr(LevelSpeed, "time_to", lambda self, s: grids.append(s) or time_to(self, s))
    monkeypatch.setattr(simulate, "integrate_segment", counted)
    v, _, traj = simulate_input(FieldSpec(spinner, n_bands=1, l_max=6), 0, None, L_MAX)
    assert v is UNRESOLVED and traj.samples == []
    assert seen == [(l, 0) for l in range(1, L_MAX + 1)]
    seen.clear()
    bnd = TapeBoundedSpec(right_filler, -1, 1)
    assert simulate_bounded(FieldSpec(right_filler, n_bands=1, l_max=6), bnd, 0, 6, 50.0) == \
        OutOfMemory(2)
    assert seen == [(1, 0), (2, 0)] and grids == []


STARTS = [(0.0, 0.0), (RAMP_EPS / 2, 0.01), (-0.7, -0.02)]


def assert_anchor_flow_is_the_sampled_flow(fs, l_max, seeds):
    """Every band, start and perturbation: the crossings of the flow that
    builds no rows equal, bit for bit, those of the flow that does."""
    perturbations = [None] + [sample_perturbation(error_schedule(fs), seed) for seed in seeds]
    for band, start, p in itertools.product(range(fs.n_bands), STARTS, perturbations):
        sampled = [ev for ev, _ in integrate_chart(fs, band, start, p, l_max, samples=True)]
        anchored = list(integrate_chart(fs, band, start, p, l_max))
        assert [ev for ev, _ in anchored] == sampled, (band, start, p and p.seed)
        assert all(rows == [] for _, rows in anchored)


@pytest.mark.parametrize("machine", ["incrementer", "spinner", "right_filler"])
@pytest.mark.parametrize("n_bands, l_max", [(1, 60), (2, 20), (3, 9)])
def test_anchor_times_give_the_sampled_crossings(request, machine, n_bands, l_max):
    fs = FieldSpec(request.getfixturevalue(machine), n_bands=n_bands, l_max=l_max)
    assert_anchor_flow_is_the_sampled_flow(fs, l_max, seeds=(1, 7))


@settings(deadline=None)
@given(machine_specs(), st.integers(0, 2**16))
def test_anchor_times_give_the_sampled_crossings_on_drawn_machines(spec, seed):
    fs = FieldSpec(spec, n_bands=2, l_max=12)
    assert_anchor_flow_is_the_sampled_flow(fs, 12, seeds=(seed,))


def test_confinement_error_on_bad_start(fs, segments):
    with pytest.raises(ConfinementError):
        next(integrate_chart(fs, 0, (0.0, 0.07), None, L_MAX))
    with pytest.raises(ConfinementError):
        simulate_input(fs, 0, None, L_MAX, start=(0.0, 0.07))
    assert segments == []


@pytest.mark.parametrize("s0, rho0", [(RAMP_EPS, 0.0), (0.2, 0.0), (0.25, 0.0), (0.3, 0.0),
                                      (math.nan, 0.0), (-math.inf, 0.0), (0.0, math.nan)])
def test_start_off_the_straight_piece_or_not_finite_is_rejected(fs, segments, s0, rho0):
    # at or past RAMP_EPS the curve may bend while rho is visible in a double
    with pytest.raises(ValueError):
        next(integrate_chart(fs, 0, (s0, rho0), None, L_MAX))
    with pytest.raises(ValueError):
        simulate_input(fs, 0, None, L_MAX, start=(s0, rho0))
    assert segments == []


def test_start_just_below_ramp_eps_is_accepted(fs):
    traj = chart(fs, (math.nextafter(RAMP_EPS, 0.0), 0.01), l_max=1)
    assert [e.height for e in traj.events] == [1]


def test_classify_center_and_miss(fs):
    inside = classify_crossing(fs, 0, 1, (0, LogMagnitude.zero()))
    assert inside == Configuration(2, 1, 0)
    # 1/32 >> the half-width 1/(2**7 * 3) of the configuration at height 1
    assert classify_crossing(fs, 0, 1, (1, LogMagnitude.from_ln(math.log(1.0 / 32.0)))) is MISS


def test_classify_quarter_interval_bound(fs):
    # |rho| = A_{i,l}/4 is strictly inside the interval half-width
    from flowcomp.curves import interval_bound_log
    from flowcomp.logmag import LN2_FIX, LogMagnitude

    a4 = interval_bound_log(fs.machine.m, 0, 1) - LogMagnitude(2 * LN2_FIX, 0.0)
    cls = classify_crossing(fs, 0, 1, (1, a4))
    assert isinstance(cls, Configuration)


def test_simulate_halting_and_hit(fs, incrementer):
    hs = HaltingSetSpec.from_digits(2, {0: 1})
    v, hit, _ = simulate_input(fs, 0, hs, L_MAX)
    assert type(v) is Halted and v.steps == 1 and hit
    oracle = run(incrementer, Configuration(1, 0, 0), 20)
    assert isinstance(oracle, Halted) and oracle.config.r == v.config.r


def test_simulate_mismatched_constraint(fs):
    hs = HaltingSetSpec.from_digits(2, {0: 5})
    v, hit, _ = simulate_input(fs, 0, hs, L_MAX)
    assert type(v) is Halted and not hit


def test_simulate_second_input(fs):
    # input 1 has tape digit 1 at the head; output digit is 2
    hs = HaltingSetSpec.from_digits(2, {0: 2})
    v, hit, _ = simulate_input(fs, 1, hs, L_MAX)
    assert type(v) is Halted and hit


def test_simulate_looping(spinner):
    fss = FieldSpec(spinner, n_bands=1, l_max=6)
    v, hit, traj = simulate_input(fss, 0, HaltingSetSpec.from_digits(2, {0: 0}), L_MAX)
    assert v is UNRESOLVED and len(traj.events) == L_MAX == 5 and not hit
    assert format_verdict(v, L_MAX) == "UNRESOLVED 5"


def test_read_verdict_stops_at_the_first_halting_visit():
    halt = Configuration(2, 1, 0)

    def visits():
        yield 1, Configuration(1, 0, 0)
        yield 2, halt
        raise AssertionError("read past the halting visit")

    hs = HaltingSetSpec.from_digits(2, {0: 1})
    assert read_verdict(visits(), 2, hs) == (Halted(halt, 2), True)
    assert read_verdict(visits(), 2, None) == (Halted(halt, 2), False)


def test_read_verdict_unresolved_still_reports_a_hit():
    seen = [(1, Configuration(1, 5, 0)), (2, Configuration(1, 7, 0))]
    hs = HaltingSetSpec.from_digits(1, {0: 5})
    # a visit in the constrained family sets hit without halting
    assert read_verdict(iter(seen), 2, hs) == (UNRESOLVED, True)
    assert read_verdict(iter([]), 2, hs) == (UNRESOLVED, False)


def test_bounded_three_cases(incrementer, spinner, right_filler):
    window = 4.5
    cases = [
        (incrementer, TapeBoundedSpec(incrementer, -2, 2)),
        (spinner, TapeBoundedSpec(spinner, -2, 2)),
        (right_filler, TapeBoundedSpec(right_filler, -1, 1)),
    ]
    for machine, bnd in cases:
        fsb = FieldSpec(machine, n_bands=1, l_max=6)
        got = simulate_bounded(fsb, bnd, 0, 6, window)
        oracle = run_bounded(bnd, Configuration(machine.q0, 0, 0), 200)
        assert got == oracle, machine.name


def test_bounded_halt_height_matches_oracle_steps(incrementer):
    bnd = TapeBoundedSpec(incrementer, -2, 2)
    fsb = FieldSpec(incrementer, n_bands=1, l_max=6)
    got = simulate_bounded(fsb, bnd, 0, 6, 10.0)
    oracle = run_bounded(bnd, Configuration(1, 0, 0), 100)
    assert type(got) is Halted and got == oracle


def test_start_in_the_halting_state_halts_at_height_0():
    halted = MachineSpec("h", 1, 1, 1, {})
    fs = FieldSpec(halted, n_bands=1, l_max=3)
    c0 = Configuration(1, 0, 0)
    want = Halted(c0, 0)
    v, hit, traj = simulate_input(fs, 0, HaltingSetSpec.from_digits(1, {0: 0}), 3)
    assert (v, hit) == (want, True)
    assert traj.events == traj.samples == []  # no segment is integrated
    bnd = TapeBoundedSpec(halted, -2, 2)
    assert run_bounded(bnd, c0, 10) == Halted(c0, 0)
    assert simulate_bounded(fs, bnd, 0, 3, 10.0) == want


def test_every_driver_rejects_a_budget_beyond_the_field(spinner):
    # the budget is the number of heights flown: 1..fs.l_max, checked even
    # when the start already halts
    halted = MachineSpec("h", 1, 1, 1, {})
    for machine in (spinner, halted):
        f = FieldSpec(machine, n_bands=1, l_max=3)
        bnd = TapeBoundedSpec(machine, -2, 2)
        delta = delta_threshold(f.lam) / 2.0
        for l_max in (0, f.l_max + 1):
            with pytest.raises(ValueError, match="budget"):
                simulate_input(f, 0, None, l_max)
            with pytest.raises(ValueError, match="budget"):
                simulate_bounded(f, bnd, 0, l_max, 50.0)
            with pytest.raises(ValueError, match="budget"):
                discrete_orbit_verdict(f, 0, None, delta, l_max)


def test_a_full_budget_reads_the_same_from_flow_and_orbit(spinner):
    fss = FieldSpec(spinner, n_bands=1, l_max=3)
    want = UNRESOLVED
    v, _, traj = simulate_input(fss, 0, None, 3)
    assert v is want and len(traj.events) == 3 and format_verdict(v, 3) == "UNRESOLVED 3"
    delta = delta_threshold(fss.lam) / 2.0
    assert discrete_orbit_verdict(fss, 0, None, delta, 3)[0] == want


@settings(deadline=None)
@given(machine_specs())
def test_the_flow_is_the_machine_on_drawn_machines(spec):
    # every shift and 1-4 states, over 24 heights: the flow, the sphere's
    # time-delta orbit and direct execution give one verdict
    fs = FieldSpec(spec, n_bands=2, l_max=25)
    delta = delta_threshold(fs.lam) / 2.0
    for idx, config, _ in enumerate_inputs(spec, 2):
        want = run(spec, config, 24)
        assert simulate_input(fs, idx, None, 24)[0] == want
        assert discrete_orbit_verdict(fs, idx, None, delta, 24)[0] == want


@settings(deadline=None)
@given(machine_specs(), st.integers(-3, 0), st.integers(1, 3))
def test_the_bounded_flow_is_run_bounded_on_drawn_machines(spec, b_minus, b_plus):
    # out of memory on the move past a bound, or halted, at the machine's own
    # step; where the machine loops the flow stays in the window and runs out
    # of budget; an input tape past a bound raises on both sides
    bnd = TapeBoundedSpec(spec, b_minus, b_plus)
    fs = FieldSpec(spec, n_bands=3, l_max=25)
    for idx, config, _ in enumerate_inputs(spec, 3):
        try:
            want = run_bounded(bnd, config, 24)
        except MachineError:
            with pytest.raises(MachineError):
                simulate_bounded(fs, bnd, idx, 24, 1e12)
            continue
        assert simulate_bounded(fs, bnd, idx, 24, 1e12) == (UNRESOLVED if want is LOOP else want)


def chain(k):
    """A machine that halts after k steps: state q steps to q + 1 up to k + 1."""
    return MachineSpec(f"chain{k}", k + 1, 1, k + 1,
                       {(q, d): (q + 1, d, 0) for q in range(1, k + 1) for d in range(10)})


@pytest.mark.parametrize("k", [1, 3])
def test_reading_stops_the_flow_at_the_halting_height(k, segments):
    fsk = FieldSpec(chain(k), n_bands=1, l_max=6)
    v, _, traj = simulate_input(fsk, 0, None, 6)
    assert (type(v), v.steps) == (Halted, k)
    assert segments == list(range(1, k + 1)) and len(traj.events) == k
    segments.clear()
    v = simulate_bounded(fsk, TapeBoundedSpec(fsk.machine, -2, 2), 0, 6, 50.0)
    assert (type(v), v.steps) == (Halted, k) and segments == list(range(1, k + 1))


def test_bounded_oom_and_loop_stop_the_flow(spinner, right_filler, segments):
    # right_filler's head moves right at every step, past b+ = 1 on the move
    # into height 2; the spinner's anchors sit at x = 0.5, so hypot(0.5, l)
    # first leaves the window 4.5 at height 5
    for machine, bnd, want, stop in (
            (right_filler, TapeBoundedSpec(right_filler, -1, 1), OutOfMemory(2), 2),
            (spinner, TapeBoundedSpec(spinner, -2, 2), LOOP, 5)):
        segments.clear()
        v = simulate_bounded(FieldSpec(machine, n_bands=1, l_max=6), bnd, 0, 6, 4.5)
        assert v == want
        assert segments == list(range(1, stop + 1))


def test_a_start_that_halts_integrates_no_segment(segments):
    fs0 = FieldSpec(chain(0), n_bands=1, l_max=3)
    assert simulate_input(fs0, 0, None, 3)[0].steps == 0
    assert simulate_bounded(fs0, TapeBoundedSpec(fs0.machine, -2, 2), 0, 3, 10.0).steps == 0
    assert segments == []


def test_small_window_never_wrong_halted(spinner):
    # budget smaller than the window: must stay honest with UNRESOLVED
    fss = FieldSpec(spinner, n_bands=1, l_max=3)
    bnd = TapeBoundedSpec(spinner, -2, 2)
    got = simulate_bounded(fss, bnd, 0, 3, 50.0)
    assert got is UNRESOLVED


def test_halting_set_spec():
    hs = HaltingSetSpec.from_digits(2, {0: 1, -1: 3})
    assert hs.k == 1
    assert hs.matches(Configuration(2, 1, 3))
    assert not hs.matches(Configuration(2, 1, 0))
    assert not hs.matches(Configuration(1, 1, 3))
    # every position within -k..k is pinned (unspecified ones to blank)
    assert not hs.matches(Configuration(2, 91, 3))
    # positions beyond the constraint are unconstrained
    assert hs.matches(Configuration(2, 901, 3))


def test_format_verdict():
    assert format_verdict(LOOP, 7) == "LOOP"
    assert format_verdict(OutOfMemory(4), 7) == "OOM"
    assert format_verdict(UNRESOLVED, 7) == "UNRESOLVED 7"
    assert format_verdict(Halted(Configuration(2, 1, 0), 3), 7) == "HALTED 2 1 0 3"


def test_export_rows(fs):
    traj = chart(fs, (0.0, 1e-3), l_max=2)
    ev = event_rows(traj)
    assert ev[0][:3] == (0, 1, "InsideBox")
    rows = trajectory_rows(traj)
    assert all(len(r) == 6 for r in rows)
    assert rows[0][4] == 0 and rows[0][5] == 1


def test_trajectory_rows_name_the_next_height(fs):
    traj = chart(fs, (RAMP_EPS / 2, 0.0))
    traj.samples.append((1e9, traj.events[-1].s + 1.0, 0, 0.0))  # past the last anchor
    want = [next((e.height for e in traj.events if e.s >= s), -1)
            for _, s, _, _ in traj.samples]
    assert [r[5] for r in trajectory_rows(traj)] == want
    assert want[0] == 1 and want[-2] == 5 and want[-1] == -1


# -- closed-form crossing times ---------------------------------------------


def _solver_times(curve, speed, s0, rho0, targets):
    """Reference flow times T(s) + c(s) by solve_ivp on the s-equation.

    With T the slowness integral, the time correction c = t - T obeys
    dc/ds = -kappa rho0 e^{-T-c}/lambda; integrating c rather than t keeps
    the solver's relative tolerance on the small quantity it has to get right.
    """
    from scipy.integrate import solve_ivp

    def rhs(s, c):
        s = np.array([s])
        t = speed.time(np.array([s0]), s)[0] + c[0]
        return [-curve.kappa_at_arclength(s)[0] * rho0 * math.exp(-t) / speed(s)[0]]

    sol = solve_ivp(rhs, (s0, targets[-1]), [0.0], method="DOP853", t_eval=targets,
                    rtol=1e-13, atol=1e-14)
    return speed.time(np.array([s0]), targets) + sol.y[0]


@pytest.mark.parametrize("machine", ["incrementer", "right_filler"])
def test_flow_times_on_the_straight_piece_match_solver(request, machine):
    # kappa is zero below RAMP_EPS, and rho has decayed past what the curve's
    # bend could show in a double by the time it bends
    m = request.getfixturevalue(machine)
    starts = (-0.9, -RAMP_EPS / 2, 0.0, math.nextafter(RAMP_EPS, 0.0))
    for lambda_frac in (0.5, 0.999):
        fs = FieldSpec(m, n_bands=3, l_max=2, lambda_frac=lambda_frac)
        for band, s0, rho0 in itertools.product(range(3), starts, (0.0624, -0.0624)):
            curve, speed = fs.curve(band), fs.speed(band)
            # through rho's float-visible life, across the ramp, and the anchor
            transient = s0 + speed(np.array([s0])) * np.array([0.5, 2.0, 8.0, 30.0, 120.0])
            ramp = curve.arclength_of_param(np.array([0.02, 0.05, 0.25, 0.5, 0.9]))
            targets = np.unique(np.concatenate([transient, ramp, curve.arc_heights[1:2]]))
            want = _solver_times(curve, speed, s0, rho0, targets)
            assert np.array_equal(speed.time(np.array([s0]), targets), want), (band, s0, rho0)
