import math

import numpy as np
import pytest

from flowcomp.curves import RAMP_EPS, ChartError
from scipy.integrate import quad

from flowcomp.field import (
    GAMMA0,
    LAMBDA0,
    ErrorSchedule,
    FieldSpec,
    contraction_speed_limit,
    cutoff,
    error_schedule,
    field_eval_chart,
    field_eval_plane,
    measure_box_derivative_bound,
    measure_c0,
    potential_eval,
    potential_plane,
    verify_gradient,
)
from flowcomp.logmag import LogMagnitude
from flowcomp.machine import MachineSpec


def make_machine(q2, sym_of, shift, name="t"):
    rules = {(1, d): (q2, sym_of(d), shift) for d in range(10)}
    return MachineSpec(name, 2, 1, 2, rules)


@pytest.fixture(scope="module")
def fs():
    machine = make_machine(2, lambda d: (d + 1) % 10, 0, "inc")
    return FieldSpec(machine, n_bands=2, l_max=4)


def test_lambda0_closed_form():
    assert LAMBDA0 == pytest.approx(1.0 / (320 * math.log(15) + 32 * math.log(2)))
    assert LAMBDA0 == pytest.approx(0.001125167232596558, rel=1e-12)
    assert GAMMA0 == pytest.approx(4 * LAMBDA0 / 31)


def test_speed_fraction_validated():
    machine = make_machine(2, lambda d: d, 0)
    with pytest.raises(ValueError):
        FieldSpec(machine, 1, 2, lambda_frac=1.0)
    assert FieldSpec(machine, 1, 2, lambda_frac=0.5).lam < LAMBDA0


def test_cutoff_shape():
    assert float(cutoff(0.0)) == 1.0
    assert float(cutoff(0.5)) == 1.0
    assert float(cutoff(1.0)) == 0.0
    assert float(cutoff(2.0)) == 0.0
    mid = cutoff(np.linspace(0.5, 1.0, 50))
    assert np.all(np.diff(mid) <= 0.0)


def test_chart_field_values(fs):
    # s = 1 lies before the ramp into anchor 1: the speed of level 0
    xs, xr = field_eval_chart(fs, 0, 1.0, 0.0)
    assert xs == pytest.approx(fs.level_speed(0, 0)) and xr == 0.0
    # vertical piece: kappa = 0 at an anchor height, where level 2 starts
    s2 = float(fs.curve(0).arc_heights[2])
    xs, xr = field_eval_chart(fs, 0, s2, 1.0 / 32.0)
    assert xs == pytest.approx(fs.level_speed(0, 2)) and xr == -1.0 / 32.0


def test_level_speeds(fs):
    m = fs.machine.m
    assert fs.level_speed(0, 0) == pytest.approx(0.5 * contraction_speed_limit(m, 0, 0))
    assert fs.level_speed(1, 2) == pytest.approx(0.5 * contraction_speed_limit(m, 1, 2))
    assert fs.level_speed(0, 0) < fs.lam
    speed = fs.speed(0)
    assert np.array_equal(speed.levels,
                          [fs.level_speed(0, l) for l in range(len(speed.anchors))])


def test_speed_below_contraction_limit_on_every_segment(fs):
    m = fs.machine.m
    for band in range(fs.n_bands):
        speed = fs.speed(band)
        heights = speed.anchors
        for l in range(len(heights) - 1):
            s = np.linspace(heights[l], heights[l + 1], 2001)
            lam = speed(s)
            assert np.all(lam <= contraction_speed_limit(m, band, l))
            # the step down to the next level happens inside the last eps
            assert np.all(lam >= fs.level_speed(band, l + 1))
            before = s <= heights[l + 1] - RAMP_EPS
            assert np.all(lam[before] == fs.level_speed(band, l))
            assert lam[-1] == pytest.approx(fs.level_speed(band, l + 1))


def test_crossing_time_is_integral_of_slowness(fs):
    speed = fs.speed(0)
    s1 = float(speed.anchors[1])
    for a, b in ((0.0, s1), (0.3, s1 - 0.004), (-0.004, 2.5)):
        points = [p for p in speed.anchors[1:] for p in (p - RAMP_EPS, p) if a < p < b]
        want = quad(lambda s: 1.0 / float(speed(s)), a, b, points=points or None,
                    epsrel=1e-13, limit=200)[0]
        assert float(speed.time(a, b)) == pytest.approx(want, rel=1e-9)


def test_chart_speed_bounds(fs):
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = float(rng.uniform(0.0, fs.curve(0).arc_heights[-1]))
        rho = float(rng.uniform(-1 / 16, 1 / 16))
        xs, _ = field_eval_chart(fs, 0, s, rho)
        lam = float(fs.speed(0)(s))
        assert lam / 2 < xs < 16 * lam


def test_chart_rejects_outside(fs):
    with pytest.raises(ChartError):
        field_eval_chart(fs, 0, 1.0, 1.0 / 16.0)
    with pytest.raises(ChartError):
        potential_eval(fs, 0, 1.0, 0.07)


def test_potential_values(fs):
    assert potential_eval(fs, 0, 0.0, 0.0) == 0.0
    # the tangential part is the integral of lambda_0(s) along the curve
    speed = fs.speed(0)
    points = [p for p in speed.anchors[1:] for p in (p - RAMP_EPS, p) if p < 2.0]
    tangential = quad(lambda s: float(speed(s)), 0.0, 2.0, points=points,
                      epsrel=1e-13, limit=200)[0]
    assert potential_eval(fs, 0, 2.0, 0.01) == pytest.approx(tangential - 5e-5,
                                                             rel=1e-9)


def test_potential_chart_gradient(fs):
    # chart-coordinate finite differences against the displayed chart field,
    # using the chart metric (the s-derivative picks up the 1/(1-kappa*rho)
    # factor of the curvilinear frame)
    h = 1e-6
    for s, rho in ((0.5, 0.01), (2.3, -0.02), (1.144, 0.0)):
        dfds = (potential_eval(fs, 0, s + h, rho) - potential_eval(fs, 0, s - h, rho)) / (2 * h)
        dfdr = (potential_eval(fs, 0, s, rho + h) - potential_eval(fs, 0, s, rho - h)) / (2 * h)
        xs, xr = field_eval_chart(fs, 0, s, rho)
        kappa = float(fs.curve(0).kappa_at_arclength(s))
        assert dfds / (1 - kappa * rho) == pytest.approx(xs, rel=1e-6)
        assert dfdr == pytest.approx(xr, rel=1e-6, abs=1e-12)


def test_plane_field_zero_off_bands(fs):
    assert field_eval_plane(fs, 1.5, 2.0) == (0.0, 0.0)
    assert field_eval_plane(fs, -3.0, 0.0) == (0.0, 0.0)
    with pytest.raises(ChartError):
        potential_plane(fs, 1.5, 2.0)


def test_plane_field_vertical_piece(fs):
    x0 = float(fs.curve(0).x[2])
    fx, fy = field_eval_plane(fs, x0, 2.0)
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert fy == pytest.approx(fs.level_speed(0, 2))


def test_gradient_identity(fs):
    rep = verify_gradient(fs, 200, seed=1)
    assert rep["max_rel_error"] < 1e-6
    assert rep["max_curl"] < 1e-8


def test_transversality(fs):
    c0 = measure_c0(fs, 500, seed=0)
    assert c0 > 0.0


def test_forward_invariance_sign(fs):
    # d(rho)/dt = -rho: the normal component always points back to the curve
    for rho in (0.01, -0.03, 1e-9):
        _, xr = field_eval_chart(fs, 0, 1.3, rho)
        assert xr == -rho


@pytest.fixture(scope="module")
def schedule(fs):
    return error_schedule(fs)


def test_schedule_monotone(schedule):
    assert schedule.threshold(0, 1) < schedule.threshold(0, 0)
    assert schedule.threshold(1, 1) < schedule.threshold(1, 0)
    # depends only on i + l through the interval bound
    d = schedule.threshold(0, 1).diff_ln(schedule.threshold(1, 0))
    assert d == pytest.approx(0.0, abs=1e-9)


def test_schedule_positive(schedule):
    for th in schedule.thresholds.values():
        assert not th.is_zero
        assert th > LogMagnitude.zero()


def test_schedule_formula(schedule, fs):
    # min always lands on the interval branch here: ln(A/8) << ln(eps/2)
    from flowcomp.curves import interval_bound_log

    th = schedule.threshold(0, 0)
    expected = (
        interval_bound_log(fs.machine.m, 0, 1)
        + (math.log(schedule.M) - schedule.M * schedule.tau(0, 0) - 3 * math.log(2))
    )
    assert th.diff_ln(expected) == pytest.approx(0.0, abs=1e-9)


def test_schedule_per_box_crossing_time(schedule, fs):
    # each box's budget is the top-speed one scaled to its slowest level
    ratio = schedule.tau(0, 2) / schedule.tau(0, 1)
    assert ratio == pytest.approx(fs.level_speed(0, 2) / fs.level_speed(0, 3))
    assert schedule.tau(0, 1) == pytest.approx(schedule.tau(1, 0))
    # M*tau ~ 7e8 here: carried in the fixed-point part, the float offsets
    # ln M and ln 8 survive it exactly
    from flowcomp.curves import interval_bound_log

    mt = LogMagnitude.fixed(schedule.M * schedule.tau(1, 2))
    base = interval_bound_log(fs.machine.m, 1, 3) - mt
    d = schedule.threshold(1, 2).diff_ln(base)
    assert d == pytest.approx(math.log(schedule.M) - 3 * math.log(2), abs=1e-12)


def test_schedule_cap_scaling(schedule):
    d = schedule.cap(0, 0).diff_ln(schedule.threshold(0, 0))
    assert d == pytest.approx(math.log(0.1))


def test_envelope(schedule):
    assert schedule.envelope_check(1.0)
    assert schedule.fit_envelope_constant() >= 1.0


def test_box_derivative_bound_finite(fs):
    M = measure_box_derivative_bound(fs, n=8)
    assert 0.0 < M < 100.0
