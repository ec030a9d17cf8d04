import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from flowcomp.curves import (
    RAMP_EPS,
    BandChart,
    ChartError,
    CurveFamily,
    bump_profile,
    curve_records,
    flat,
    interval_bound_log,
)
from flowcomp.field import cutoff
from flowcomp.machine import MachineSpec, load_machine
from flowcomp.robust import _bump01, _ln_bump

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def make_machine(q2, sym_of, shift, name="t"):
    rules = {(1, d): (q2, sym_of(d), shift) for d in range(10)}
    return MachineSpec(name, 2, 1, 2, rules)


@pytest.fixture(scope="module")
def profile():
    return bump_profile()


@pytest.fixture(scope="module")
def incrementer():
    return make_machine(2, lambda d: (d + 1) % 10, 0)


@pytest.fixture(scope="module")
def curve(incrementer):
    return CurveFamily(incrementer, band=0, l_max=3)


# -- bump profile -----------------------------------------------------------


def mp_ramp(t):
    return mp.exp(-1 / (t * (1 - t)))


def test_bump_integrals(profile):
    # frozen oracle values (adaptive quadrature at 1e-11 abs tolerance)
    assert profile.Z == pytest.approx(0.007029858406609572, abs=1e-12)
    assert profile.full_integral == pytest.approx(0.007029858406609656, abs=1e-12)
    assert profile.full_integral > 7e-3
    # 30-digit references: the Hermite rule is within a few dozen ulps, and
    # its own error estimate (every other node against all) is that small too
    with mp.workdps(30):
        lo, hi = mp.mpf(RAMP_EPS), 1 - mp.mpf(RAMP_EPS)
        assert abs(profile.Z - mp.quad(mp_ramp, [lo, 0.5, hi])) < 5e-17
        assert abs(profile.full_integral - mp.quad(mp_ramp, [0, 0.5, 1])) < 5e-17
    assert 0.0 < profile.quad_error < 1e-16


def test_bump_sup_expression(profile):
    assert profile.sup_expression < 1e-1
    # peak location/value frozen from a dense scan
    assert profile.sup_expression == pytest.approx(0.07757846, rel=1e-5)


def test_beta_endpoints_and_symmetry(profile):
    assert float(profile.beta(RAMP_EPS)) == 0.0
    assert float(profile.beta(1 - RAMP_EPS)) == pytest.approx(1.0, abs=1e-14)
    assert float(profile.beta(0.5)) == pytest.approx(0.5, abs=1e-12)
    # beta(t) + beta(1-t) = 1 by symmetry of the integrand
    for t in (0.1, 0.25, 0.37):
        assert float(profile.beta(t) + profile.beta(1 - t)) == pytest.approx(1.0, abs=1e-9)


def test_beta_clamped_outside_ramp(profile):
    assert float(profile.beta(0.0)) == 0.0
    assert float(profile.beta(1.0)) == pytest.approx(1.0, abs=1e-14)


def test_beta_and_its_integral_match_mpmath(profile):
    sigma = np.random.default_rng(5).uniform(-0.05, 1.05, 20)
    with mp.workdps(30):
        lo, hi = mp.mpf(RAMP_EPS), 1 - mp.mpf(RAMP_EPS)
        Z = mp.quad(mp_ramp, [lo, 0.5, hi])
        for s in sigma.tolist():
            c = min(max(mp.mpf(s), lo), hi)
            beta = mp.quad(mp_ramp, [lo, c]) / Z
            # by parts: the integral of beta to c is c beta(c) - int x beta'(x) dx
            integral = (c * beta - mp.quad(lambda x: x * mp_ramp(x), [lo, c]) / Z
                        + max(mp.mpf(s) - hi, 0))
            assert abs(float(profile.beta(s)) - beta) < 1e-13, s
            assert abs(float(profile.beta_integral(s)) - integral) < 1e-13, s


# -- curve family -----------------------------------------------------------


def test_anchor_values(curve):
    # blank input encodes to 1/2; one increment step gives 1/(4*3) = 1/12,
    # then the halting state is fixed
    assert curve.x[0] == pytest.approx(0.5)
    assert curve.x[1] == pytest.approx(1.0 / 12.0)
    assert np.all(curve.x[1:] == curve.x[1])


def test_band_translation(incrementer):
    cf = CurveFamily(incrementer, band=1, l_max=2)
    # input (r, s) = (1, 0) encodes to 1/(2*3) = 1/6, translated by +2
    assert cf.x[0] == pytest.approx(2 + 1.0 / 6.0)
    assert np.all(cf.x >= 2.0) and np.all(cf.x <= 3.0)


def test_vertical_near_anchors(curve):
    eps = RAMP_EPS
    for u in (0.0, eps / 2, 1.0 - eps / 2, 1.0, 2.0 + eps):
        val, d1, d2 = curve.lambda_eval(u)
        assert d1 == 0.0 and d2 == 0.0
        assert val in (pytest.approx(curve.x[0]), pytest.approx(curve.x[1]))


def test_lambda_derivative_matches_finite_difference(curve):
    h = 1e-6
    for u in (0.3, 0.5, 0.62):
        vm, dm, _ = curve.lambda_eval(u - h)
        vp, dp, _ = curve.lambda_eval(u + h)
        _, d1, d2 = curve.lambda_eval(u)
        assert d1 == pytest.approx((vp - vm) / (2 * h), rel=1e-6, abs=1e-9)
        # second derivative against the analytic first derivative
        assert d2 == pytest.approx((dp - dm) / (2 * h), rel=1e-6, abs=1e-9)


def test_curvature_bound(curve):
    u = np.linspace(-1.0, curve.l_max + 1, 5000)
    kap = curve.curvature(u)
    assert np.max(np.abs(kap)) < 100.0 / 7.0 < 15.0


def test_curvature_value_frozen(curve):
    # mid-ramp curvature of the first segment, frozen oracle
    assert float(curve.curvature(0.3)) == pytest.approx(3.262197511240804, rel=1e-9)


def test_arc_heights_monotone_and_gap_at_least_one(curve):
    h = curve.arc_heights
    gaps = np.diff(h)
    assert np.all(gaps >= 1.0 - 1e-12)
    # constant segments have gap exactly 1
    assert gaps[1] == pytest.approx(1.0, abs=1e-10)
    # first segment is longer (it carries the ramp from 1/2 to 1/12)
    assert gaps[0] == pytest.approx(1.144735666, rel=1e-8)


def test_arclength_roundtrip(curve):
    u = np.linspace(-0.9, curve.l_max + 0.9, 500)
    s = curve.arclength_of_param(u)
    assert np.max(np.abs(curve.param_of_arclength(s) - u)) < 1e-12


def test_arclength_matches_quad_anchors(curve):
    got = curve.arclength_of_param(np.arange(curve.l_max + 2, dtype=float))
    assert np.max(np.abs(got - curve.arc_heights)) < 1e-9


def random_machine(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    rules = {(q, d): (int(rng.integers(1, m + 1)), int(rng.integers(0, 10)),
                      int(rng.integers(-1, 2)))
             for q in range(1, m) for d in range(10)}
    return MachineSpec(f"r{seed}", m, 1, m, rules)


def sample_curves():
    for path in sorted(MACHINES.glob("*.tm")):
        for band in range(3):
            yield CurveFamily(load_machine(path), band, 20)
    for seed in range(20):
        yield CurveFamily(random_machine(seed), seed % 3, 12)


def quad_arc_heights(curve):
    """Reference: adaptive quadrature of the speed over each unit of height,
    split where the ramp starts and ends."""
    def speed(u):
        return math.sqrt(1.0 + curve.lambda_eval(u)[1] ** 2)

    gaps = [quad(speed, l, l + 1, points=[l + RAMP_EPS, l + 1 - RAMP_EPS],
                 epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for l in range(curve.l_max + 1)]
    return np.concatenate([[0.0], np.cumsum(gaps)])


def test_arc_heights_match_quadrature_reference():
    for curve in sample_curves():
        ref = quad_arc_heights(curve)
        assert np.max(np.abs(curve.arc_heights - ref)) < 1e-11, curve.machine.name


def test_anchors_invert_to_their_heights():
    for curve in sample_curves():
        heights = np.arange(curve.l_max + 2, dtype=float)
        got = curve.param_of_arclength(curve.arc_heights)
        assert np.max(np.abs(got - heights)) < 1e-12, curve.machine.name


# -- the shared bump ----------------------------------------------------------


def _rel_close(new, old):
    """Equal to 1e-15 relative per unit of exponent, and exactly 0 where old
    is.  exp turns a rounding of its argument a into a relative error of
    about |a| ulps, and the closed forms below round their arguments
    differently from flat(x); below the normal range, where values reach at
    the support's edges, doubles keep only a few ulps of absolute precision."""
    new, old = np.asarray(new), np.asarray(old)
    zero = old == 0.0
    with np.errstate(divide="ignore"):
        scale = np.maximum(1.0, np.abs(np.log(np.where(zero, 1.0, old))))
    tol = 1e-15 * scale * np.abs(old) + 4 * np.finfo(float).smallest_subnormal
    return bool(np.all(new[zero] == 0.0) and np.all(np.abs(new - old) <= tol))


def test_flat_reproduces_the_old_closed_forms():
    rng = np.random.default_rng(0)
    t = np.concatenate([rng.uniform(-0.5, 1.5, 20000),
                        np.linspace(-0.25, 1.25, 15001), [0.0, 1.0]])
    inside = (t > 0.0) & (t < 1.0)
    ti = np.where(inside, t, 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = np.where(inside, np.exp(-1.0 / ti - 1.0 / (1.0 - ti)), 0.0)
        piece = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        bump = np.where(inside, np.exp(1.0 - 0.25 / (ti * (1.0 - ti))), 0.0)
        ln_bump = 1.0 - 0.25 / (ti * (1.0 - ti))
    assert _rel_close(flat(t * (1.0 - t)), ramp)
    assert np.array_equal(flat(t), piece)
    assert _rel_close(_bump01(t), bump)
    assert np.array_equal(_ln_bump(4.0 * ti * (1.0 - ti))[inside], ln_bump[inside])
    # the cutoff keeps its pieces: 1 up to 1/2, 0 from 1 on
    c = cutoff(t)
    assert np.all(c[t <= 0.5] == 1.0) and np.all(c[t >= 1.0] == 0.0)


def test_interval_bound_log():
    lb = interval_bound_log(2, 0, 1)
    assert lb.ln() == pytest.approx(-(6 * math.log(2) + 100 * math.log(15)), rel=1e-14)
    # huge levels stay exact
    big = interval_bound_log(2, 3, 5)
    assert big.diff_ln(interval_bound_log(2, 3, 4)) == pytest.approx(
        -9 * 10**8 * math.log(15), rel=1e-12
    )
    with pytest.raises(ValueError):
        interval_bound_log(2, -1, 0)


# -- band chart -------------------------------------------------------------


def test_chart_roundtrip(curve):
    ch = BandChart(curve)
    for s, rho in ((0.0, 0.0), (1.7, 0.01), (0.45, -0.03), (3.2, 0.055)):
        x, y = ch.chart_to_plane(s, rho)
        s2, rho2 = ch.plane_to_chart(x, y)
        assert s2 == pytest.approx(s, abs=1e-10)
        assert rho2 == pytest.approx(rho, abs=1e-12)
    # arrays give the scalar calls' points bit for bit
    rng = np.random.default_rng(2)
    s = rng.uniform(-0.5, float(curve.arc_heights[-1]), 200)
    rho = rng.uniform(-0.0624, 0.0624, 200)
    x, y = ch.chart_to_plane(s, rho)
    assert list(zip(x.tolist(), y.tolist())) == [
        ch.chart_to_plane(a, b) for a, b in zip(s.tolist(), rho.tolist())]
    assert all(type(v) is float for v in ch.chart_to_plane(1.0, 0.01))


def test_chart_vertical_sign_convention(curve):
    # on a vertical piece the normal is (-1, 0): rho = -(x - x_l)
    ch = BandChart(curve)
    x_l = curve.x[2]
    s, rho = ch.plane_to_chart(x_l + 0.02, 2.0)
    assert rho == pytest.approx(-0.02)
    assert s == pytest.approx(float(curve.arc_heights[2]), abs=1e-9)


def test_chart_rejects_far_points(curve):
    ch = BandChart(curve)
    with pytest.raises(ChartError):
        ch.plane_to_chart(curve.x[2] + 0.2, 2.0)
    with pytest.raises(ChartError):
        ch.chart_to_plane(1.0, 0.0626)
    with pytest.raises(ChartError):
        ch.chart_to_plane(np.array([1.0, 2.0]), np.array([0.01, -0.0625]))


def test_distance_bound_keeps_every_chart_point():
    # the bound that runs before Newton rejects no point of the chart: points
    # placed within the half-width come back with their own s and rho
    rng = np.random.default_rng(20261018)
    machines = [load_machine(path) for path in sorted(MACHINES.glob("*.tm"))]
    machines += [random_machine(seed) for seed in range(100, 109)]
    n = 2000
    half = n // 2
    for k, machine in enumerate(machines):
        curve = CurveFamily(machine, k % 3, int(rng.integers(6, 13)))
        ch = BandChart(curve)
        # half the heights in the middle of the ramps, where the curve is
        # steepest and a foot lies farthest from its point's height; the rest
        # anywhere, below u = 0 too, where the curve extends vertically
        u = np.concatenate([rng.integers(0, curve.l_max + 1, half)
                            + rng.uniform(0.3, 0.7, half),
                            rng.uniform(-0.5, curve.l_max + 1.0, n - half)])
        # half the offsets past 0.05, next to the half-width
        rho = rng.choice([-1.0, 1.0], n) * np.concatenate(
            [rng.uniform(0.05, 0.0624, half), rng.uniform(0.0, 0.0624, n - half)])
        s = curve.arclength_of_param(u)
        x, y = ch.chart_to_plane(s, rho)
        # the bound is below each point's squared distance, rho^2
        assert np.all(ch._distance_bound(x, y) <= rho * rho * (1.0 + 1e-9)), machine.name
        s2, rho2 = ch.plane_to_chart(x, y)
        assert np.max(np.abs(s2 - s)) < 1e-12, machine.name
        assert np.max(np.abs(rho2 - rho)) < 1e-12, machine.name


def test_far_point_is_off_the_chart():
    # Newton alone stops at s = 0.9957, rho = 0.0033 for this point, which is
    # 0.373 from the curve (nearest at u ~ 0.439)
    curve = CurveFamily(load_machine(MACHINES / "incrementer.tm"), 0, 9)
    with pytest.raises(ChartError, match="farther than 1/16"):
        BandChart(curve).plane_to_chart(0.0955, 0.1721)
    x, y = curve.point(np.linspace(-1.0, 10.0, 200001))
    assert np.min(np.hypot(x - 0.0955, y - 0.1721)) > 0.37


def test_points_past_the_ends_keep_their_chart():
    # beyond its ends the curve extends vertically: rho = x_end - x, and s
    # stays at the top end or runs on at unit speed below u = 0
    curve = CurveFamily(load_machine(MACHINES / "right_filler.tm"), 0, 9)
    ch = BandChart(curve)
    top, bottom = curve.x[-1], curve.x[0]
    assert ch.plane_to_chart(top + 0.03, 10.5) == (curve.arc_heights[-1], -0.03)
    assert ch.plane_to_chart(top - 0.05, 40.0) == (curve.arc_heights[-1], 0.05)
    for x, y in ((bottom - 0.02, -3.0), (bottom + 0.06, -20.0), (bottom + 0.02, -1.02)):
        s, rho = ch.plane_to_chart(x, y)
        assert s == pytest.approx(y, abs=1e-12) and rho == pytest.approx(bottom - x, abs=1e-12)
    with pytest.raises(ChartError):
        ch.plane_to_chart(top + 0.07, 12.0)


def test_points_far_below_the_start_are_projected_in_one_step():
    # Newton used to start these at u = -0.75 with steps of at most 0.5, and
    # stopped 60 steps later at s = -30.75 for the point at height -40
    curve = CurveFamily(load_machine(MACHINES / "right_filler.tm"), 0, 9)
    ch = BandChart(curve)
    bottom = curve.x[0]
    for y in (-30.0, -40.0, -1000.0):
        s, rho = ch.plane_to_chart(bottom + 0.02, y)
        assert (s, rho) == (pytest.approx(y, abs=1e-12), pytest.approx(-0.02, abs=1e-12))
    assert ch.plane_to_chart(bottom + 0.02, -1.0)[0] == -1.0


def test_curve_records(curve):
    recs = curve_records(curve)
    s, x, y, kap = recs[0]
    assert (s, x, y) == (0.0, pytest.approx(0.5), pytest.approx(0.0))
    assert all(b[0] > a[0] for a, b in zip(recs, recs[1:]))
    assert max(abs(r[3]) for r in recs) < 15.0
