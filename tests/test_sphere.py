import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from flowcomp import sphere
from flowcomp.curves import RAMP_EPS, CurveFamily
from flowcomp.field import FieldSpec
from flowcomp.machine import UNRESOLVED, Halted, MachineSpec, load_machine
from flowcomp.simulate import HaltingSetSpec, simulate_input
from flowcomp.sphere import damping, delta_threshold, discrete_orbit_verdict

MACHINES = Path(__file__).resolve().parent.parent / "machines"


@pytest.fixture(scope="module")
def fs():
    inc = MachineSpec("inc", 2, 1, 2,
                      {(1, d): (2, (d + 1) % 10, 0) for d in range(10)})
    return FieldSpec(inc, n_bands=1, l_max=4)


def test_damping_profile_properties():
    r = np.linspace(0.0, 300.0, 400)
    vals = damping(r, np.zeros_like(r))
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0.0)  # strictly decreasing in radius
    assert float(damping(0.0, 0.0)) == pytest.approx(math.exp(1.0 - math.exp(1.0 / 64.0)))


def test_delta_threshold_algebra():
    assert delta_threshold(1.0) == RAMP_EPS / 32.0
    assert delta_threshold(0.001) == pytest.approx(0.3125)
    with pytest.raises(ValueError):
        delta_threshold(0.0)


def test_threshold_guard(fs):
    d0 = delta_threshold(fs.lam)
    with pytest.raises(ValueError):
        discrete_orbit_verdict(fs, 0, None, d0, 3)
    with pytest.raises(ValueError):
        discrete_orbit_verdict(fs, 0, None, 2.0 * d0, 3)
    # the step must be a positive number, too
    for delta in (-1.0, 0.0, -0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"delta = {delta} not in"):
            discrete_orbit_verdict(fs, 0, None, delta, 3)


def test_discrete_orbit_matches_continuous(fs):
    hs = HaltingSetSpec.from_digits(2, {0: 1})
    cont_v, cont_hit, _ = simulate_input(fs, 0, hs, 3)
    d0 = delta_threshold(fs.lam)
    disc_v, disc_hit, orbit = discrete_orbit_verdict(fs, 0, hs, d0 / 2.0, 3)
    assert type(cont_v) is Halted and disc_v == cont_v
    assert disc_hit == cont_hit
    assert orbit.band_gaps == []
    assert orbit.visited_heights[0] == 1


def test_discrete_orbit_visits_every_band(fs):
    # no halting constraint: the orbit runs the full budget
    spin = MachineSpec("spin", 2, 1, 2, {(1, d): (1, d, 0) for d in range(10)})
    fss = FieldSpec(spin, n_bands=1, l_max=4)
    d0 = delta_threshold(fss.lam)
    v, hit, orbit = discrete_orbit_verdict(fss, 0, None, d0 / 2.0, 3)
    assert v is UNRESOLVED and not hit
    assert orbit.visited_heights == [1, 2, 3]
    assert orbit.band_gaps == []


def test_orbit_iterates_monotone(fs):
    d0 = delta_threshold(fs.lam)
    _, _, orbit = discrete_orbit_verdict(fs, 0, None, d0 / 2.0, 2)
    assert np.all(np.diff(orbit.s_values) >= 0.0)
    assert orbit.times[1] - orbit.times[0] == pytest.approx(d0 / 2.0)


def test_warp_reads_the_curves_own_arc_length_nodes(fs, monkeypatch):
    # the warp is built on `_arc_maps`: no arc-length inversion, no point, no
    # slope evaluated again
    calls = []

    def counting(name, original):
        def wrapper(self, *args):
            calls.append(name)
            return original(self, *args)
        return wrapper

    for name in ("param_of_arclength", "point", "_slope"):
        monkeypatch.setattr(CurveFamily, name, counting(name, getattr(CurveFamily, name)))
    discrete_orbit_verdict(fs, 0, None, delta_threshold(fs.lam) / 2.0, 4)
    assert calls == []


def random_machine(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    rules = {(q, d): (int(rng.integers(1, m + 1)), int(rng.integers(0, 10)),
                      int(rng.integers(-1, 2)))
             for q in range(1, m) for d in range(10)}
    return MachineSpec(f"r{seed}", m, 1, m, rules)


def full_scan(fs, orbit, l_max):
    """(visited, gaps) from every iterate of the orbit, the verdict's loop
    with each height tested against the whole array."""
    curve = fs.curve(0)
    visited, gaps = [], []
    for l in range(1, l_max + 1):
        if not np.any(np.abs(orbit.s_values - float(curve.arc_heights[l])) < RAMP_EPS / 2.0):
            gaps.append(l)
            continue
        visited.append(l)
        if curve.configs[l].q == fs.machine.q_halt:
            break
    return visited, gaps


# the one-rule sample machines first, at the indices the tests below read
ONE_RULE = ("incrementer", "right_filler", "spinner")
SCAN_MACHINES = [load_machine(MACHINES / f"{name}.tm") for name in ONE_RULE]
SCAN_MACHINES += [load_machine(p) for p in sorted(MACHINES.glob("*.tm")) if p.stem not in ONE_RULE]
SCAN_MACHINES += [random_machine(seed) for seed in range(200, 204)]


@pytest.mark.parametrize("machine", SCAN_MACHINES, ids=lambda m: m.name)
def test_windowed_heights_match_a_full_scan(machine):
    fs = FieldSpec(machine, n_bands=1, l_max=8)
    d0 = delta_threshold(fs.lam)
    for delta in (d0 / 2.0, d0 / 3.0, 0.99 * d0):
        _, _, orbit = discrete_orbit_verdict(fs, 0, None, delta, 8)
        assert len(orbit.times) == len(orbit.s_values) == orbit.iterates
        assert (orbit.visited_heights, orbit.band_gaps) == full_scan(fs, orbit, 8)
        assert orbit.band_gaps == []


def test_coarse_steps_leave_gaps_as_a_full_scan_does(monkeypatch):
    # above the threshold the orbit can step over a height; the guard is
    # lifted so the verdict's gap branch runs
    fs = FieldSpec(SCAN_MACHINES[1], n_bands=1, l_max=8)
    monkeypatch.setattr(sphere, "delta_threshold", lambda lam: math.inf)
    d0 = RAMP_EPS / (32.0 * fs.lam)
    all_gaps = set()
    for factor in (20.0, 37.0, 55.0, 90.0):
        _, _, orbit = discrete_orbit_verdict(fs, 0, None, factor * d0, 8)
        assert (orbit.visited_heights, orbit.band_gaps) == full_scan(fs, orbit, 8)
        for s_l in np.linspace(0.0, float(orbit.warp[1][-1]), 301).tolist():
            want = bool(np.any(np.abs(orbit.s_values - s_l) < RAMP_EPS / 2.0))
            assert orbit.visits(s_l) == want
        all_gaps |= set(orbit.band_gaps)
        assert orbit.visited_heights
    assert all_gaps


def array_visits(orbit, s_l):
    """The window test on an array of every iterate in the window, two steps
    wider on each side: the form that bisection replaced."""
    t_of_s, grid = orbit.warp
    t_lo, t_hi = np.interp([s_l - RAMP_EPS / 2.0, s_l + RAMP_EPS / 2.0], grid, t_of_s)
    k = np.arange(max(int(t_lo / orbit.delta) - 2, 0),
                  min(int(t_hi / orbit.delta) + 3, orbit.iterates))
    return bool(np.any(np.abs(np.interp(k * orbit.delta, t_of_s, grid) - s_l) < RAMP_EPS / 2.0))


@pytest.mark.parametrize("machine", SCAN_MACHINES[:3], ids=lambda m: m.name)
def test_bisected_visits_match_the_window_array(machine, monkeypatch):
    # below and above the threshold (lifted, so some heights are stepped over),
    # at every height and at arc lengths just inside and outside the windows
    monkeypatch.setattr(sphere, "delta_threshold", lambda lam: math.inf)
    rng = np.random.default_rng(31)
    for l_max in (4, 8, 12):
        fs = FieldSpec(machine, n_bands=1, l_max=l_max)
        curve, d0 = fs.curve(0), RAMP_EPS / (32.0 * fs.lam)
        for factor in (0.5, 0.99, 20.0, 55.0):
            _, _, orbit = discrete_orbit_verdict(fs, 0, None, factor * d0, l_max)
            visited, gaps = [], []
            for l in range(1, l_max + 1):
                (visited if array_visits(orbit, float(curve.arc_heights[l])) else gaps).append(l)
                if visited[-1:] == [l] and curve.configs[l].q == fs.machine.q_halt:
                    break
            assert (orbit.visited_heights, orbit.band_gaps) == (visited, gaps)
            k = rng.integers(0, orbit.iterates, 200)
            edges = np.interp(k * orbit.delta, *orbit.warp)[:, None] + RAMP_EPS / 2.0 * np.array(
                [-1.0 - 1e-15, -1.0, -1.0 + 1e-15, 1.0 - 1e-15, 1.0, 1.0 + 1e-15])
            for s_l in edges.ravel().tolist() + np.linspace(0.0, orbit.warp[1][-1], 101).tolist():
                assert orbit.visits(s_l) == array_visits(orbit, s_l), (l_max, factor, s_l)


def fine_grid_warp(fs, l_max):
    """(t(s), s) on 400 nodes per unit of arc length, each placed by
    inverting arc length: the reference the orbit's warp must match."""
    curve = fs.curve(0)
    s_end = float(curve.arc_heights[l_max]) + RAMP_EPS
    grid = np.linspace(0.0, s_end, max(int(s_end * 400), 100) + 1)
    slow = 1.0 / (fs.lam * damping(*curve.point(curve.param_of_arclength(grid))))
    return np.concatenate([[0.0], np.cumsum(np.diff(grid) * (slow[1:] + slow[:-1]) / 2.0)]), grid


@pytest.mark.parametrize("machine", SCAN_MACHINES, ids=lambda m: m.name)
def test_warp_matches_a_fine_arc_length_grid(machine):
    fs = FieldSpec(machine, n_bands=1, l_max=8)
    d0 = delta_threshold(fs.lam)
    ref_t, ref_s = fine_grid_warp(fs, 8)
    anchors = fs.curve(0).arc_heights[1:9]
    for delta in (d0 / 2.0, d0 / 3.0, 0.99 * d0):
        _, _, orbit = discrete_orbit_verdict(fs, 0, None, delta, 8)
        t_of_s, grid = orbit.warp
        assert grid[-1] == pytest.approx(ref_s[-1], abs=1e-12)
        got, want = np.interp(anchors, grid, t_of_s), np.interp(anchors, ref_s, ref_t)
        # the reference trapezoid sum is itself about 1e-8 from the exact t
        # at the first anchor (8.4e-9 on right_filler); the warp is within
        # 2e-13 of quadrature (below)
        assert np.all(np.abs(got / want - 1.0) < 2e-8)
        assert orbit.iterates == int(ref_t[-1] / delta) + 1


def quadrature_warp(fs, band, l_max):
    """t at anchors 0..l_max and RAMP_EPS above the last: adaptive quadrature
    in u of the slowness times ds/du, split where the ramps start and end."""
    curve = fs.curve(band)

    def slowness(u):
        x, d1, _ = (v[0] for v in curve.lambda_eval(np.array([u])))
        return math.sqrt(1.0 + d1 * d1) / (fs.lam * float(damping(x, u)))

    cuts = [c for l in range(l_max) for c in (l, l + RAMP_EPS, l + 0.5, l + 1 - RAMP_EPS)]
    cuts += [l_max, l_max + RAMP_EPS]
    pieces = [quad(slowness, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for a, b in zip(cuts, cuts[1:])]
    t = np.cumsum([0.0] + pieces)
    return np.append(t[:-1:4], t[-1])


@pytest.mark.parametrize("machine", SCAN_MACHINES, ids=lambda m: m.name)
def test_warp_matches_quadrature_at_every_anchor(machine):
    # the Hermite rule with the slowness's exact s-derivative; a trapezoid
    # sum on the same nodes was 2.2e-8 off at anchor 1 on right_filler
    fs = FieldSpec(machine, n_bands=3, l_max=8)
    for band in range(3):
        _, _, orbit = discrete_orbit_verdict(fs, band, None, delta_threshold(fs.lam) / 2.0, 8)
        t_of_s, grid = orbit.warp
        want = quadrature_warp(fs, band, 8)
        got = np.append(np.interp(fs.curve(band).arc_heights[:9], grid, t_of_s), t_of_s[-1])
        assert np.all(np.abs(got[1:] / want[1:] - 1.0) < 1e-11)
