import math
from pathlib import Path

import numpy as np
import pytest

from flowcomp import sphere
from flowcomp.curves import RAMP_EPS
from flowcomp.field import FieldSpec, field_eval_plane
from flowcomp.machine import MachineSpec, load_machine
from flowcomp.simulate import HaltingSetSpec, IntegratorConfig, simulate_input
from flowcomp.sphere import (
    NORTH,
    DampingProfile,
    damp_and_push,
    delta_threshold,
    discrete_orbit_verdict,
    inverse_stereographic,
    stereographic,
    stereographic_push,
)

MACHINES = Path(__file__).resolve().parent.parent / "machines"


@pytest.fixture(scope="module")
def fs():
    inc = MachineSpec("inc", 2, 1, 2,
                      {(1, d): (2, (d + 1) % 10, 0) for d in range(10)})
    return FieldSpec(inc, n_bands=1, l_max=4)


def test_stereographic_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, 100)
    y = rng.uniform(-5, 5, 100)
    p = stereographic(x, y)
    assert np.allclose(np.sum(p * p, axis=-1), 1.0, atol=1e-12)
    xb, yb = inverse_stereographic(p)
    assert np.max(np.abs(xb - x)) < 1e-12
    assert np.max(np.abs(yb - y)) < 1e-12


def test_origin_maps_to_south_pole():
    assert np.allclose(stereographic(0.0, 0.0), [0.0, 0.0, -1.0])


def test_pole_has_no_preimage():
    with pytest.raises(ValueError):
        inverse_stereographic(np.array(NORTH))


def test_push_matches_finite_differences():
    h = 1e-6
    for x, y, vx, vy in [(0.3, -0.7, 1.0, 0.0), (2.0, 1.5, -0.4, 0.9)]:
        got = stereographic_push(x, y, vx, vy)
        fd = (stereographic(x + h * vx, y + h * vy)
              - stereographic(x - h * vx, y - h * vy)) / (2 * h)
        assert np.max(np.abs(got - fd)) < 1e-8


def test_push_is_tangent():
    p = stereographic(1.2, -0.4)
    v = stereographic_push(1.2, -0.4, 0.3, 0.7)
    assert abs(float(np.dot(p, v))) < 1e-12


def test_damping_profile_properties():
    g = DampingProfile()
    r = np.linspace(0.0, 300.0, 400)
    vals = g(r, np.zeros_like(r))
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0.0)  # strictly decreasing in radius
    assert float(g(0.0, 0.0)) == pytest.approx(math.exp(1.0 - math.exp(1.0 / 64.0)))
    with pytest.raises(ValueError):
        DampingProfile(scale=0.0)


def test_sphere_field_vanishes_at_pole_and_off_band(fs):
    Y = damp_and_push(fs)
    assert np.allclose(Y(np.array(NORTH)), 0.0)
    # a point far from every band maps to a zero of the planar field
    p = stereographic(0.9, -3.0)
    assert field_eval_plane(fs, 0.9, -3.0) == (0.0, 0.0)
    assert np.allclose(Y(p), 0.0)


def test_sphere_field_is_damped_push(fs):
    Y = damp_and_push(fs)
    x, y = (float(v) for v in fs.curve(0).point(0.5))
    vx, vy = field_eval_plane(fs, x, y)
    assert (vx, vy) != (0.0, 0.0)
    # damping times lam/lambda_0(s): every level runs at the top speed
    s = float(fs.curve(0).arclength_of_param(0.5))
    g = float(DampingProfile()(x, y)) * fs.lam / float(fs.speed(0)(s))
    want = stereographic_push(x, y, g * vx, g * vy)
    assert np.allclose(Y(stereographic(x, y)), want, atol=1e-15)


def test_delta_threshold_algebra():
    assert delta_threshold(1.0) == RAMP_EPS / 32.0
    assert delta_threshold(0.001) == pytest.approx(0.3125)
    with pytest.raises(ValueError):
        delta_threshold(0.0)


def test_threshold_guard(fs):
    d0 = delta_threshold(fs.lam)
    with pytest.raises(ValueError):
        discrete_orbit_verdict(fs, 0, None, d0)
    with pytest.raises(ValueError):
        discrete_orbit_verdict(fs, 0, None, 2.0 * d0)


def test_discrete_orbit_matches_continuous(fs):
    cfg = IntegratorConfig(l_max=3)
    hs = HaltingSetSpec.from_digits(2, {0: 1})
    cont_v, cont_hit, _ = simulate_input(fs, 0, hs, cfg)
    d0 = delta_threshold(fs.lam)
    disc_v, disc_hit, orbit = discrete_orbit_verdict(fs, 0, hs, d0 / 2.0, cfg)
    assert disc_v.kind == cont_v.kind == "HALTED"
    assert disc_v.height == cont_v.height
    assert disc_hit == cont_hit
    assert orbit.band_gaps == []
    assert orbit.visited_heights[0] == 1


def test_discrete_orbit_visits_every_band(fs):
    cfg = IntegratorConfig(l_max=3)
    # no halting constraint: the orbit runs the full budget
    spin = MachineSpec("spin", 2, 1, 2, {(1, d): (1, d, 0) for d in range(10)})
    fss = FieldSpec(spin, n_bands=1, l_max=4)
    d0 = delta_threshold(fss.lam)
    v, hit, orbit = discrete_orbit_verdict(fss, 0, None, d0 / 2.0, cfg)
    assert v.kind == "UNRESOLVED" and not hit
    assert orbit.visited_heights == [1, 2, 3]
    assert orbit.band_gaps == []


def test_orbit_iterates_monotone(fs):
    d0 = delta_threshold(fs.lam)
    _, _, orbit = discrete_orbit_verdict(fs, 0, None, d0 / 2.0,
                                         IntegratorConfig(l_max=2))
    assert np.all(np.diff(orbit.s_values) >= 0.0)
    assert orbit.times[1] - orbit.times[0] == pytest.approx(d0 / 2.0)



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


SCAN_MACHINES = [load_machine(p) for p in sorted(MACHINES.glob("*.tm"))]
SCAN_MACHINES += [random_machine(seed) for seed in range(200, 204)]


@pytest.mark.parametrize("machine", SCAN_MACHINES, ids=lambda m: m.name)
def test_windowed_heights_match_a_full_scan(machine):
    fs = FieldSpec(machine, n_bands=1, l_max=8)
    d0 = delta_threshold(fs.lam)
    for delta in (d0 / 2.0, d0 / 3.0, 0.99 * d0):
        _, _, orbit = discrete_orbit_verdict(fs, 0, None, delta, IntegratorConfig(l_max=8))
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
        _, _, orbit = discrete_orbit_verdict(fs, 0, None, factor * d0, IntegratorConfig(l_max=8))
        assert (orbit.visited_heights, orbit.band_gaps) == full_scan(fs, orbit, 8)
        for s_l in np.linspace(0.0, float(orbit.warp[1][-1]), 301).tolist():
            want = bool(np.any(np.abs(orbit.s_values - s_l) < RAMP_EPS / 2.0))
            assert orbit.visits(s_l) == want
        all_gaps |= set(orbit.band_gaps)
        assert orbit.visited_heights
    assert all_gaps
