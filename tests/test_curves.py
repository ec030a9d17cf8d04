import math
from pathlib import Path

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


def test_bump_integrals(profile):
    # frozen oracle values (adaptive quadrature at 1e-11 abs tolerance)
    assert profile.Z == pytest.approx(0.007029858406609572, abs=1e-12)
    assert profile.full_integral == pytest.approx(0.007029858406609656, abs=1e-12)
    assert profile.full_integral > 7e-3


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


def test_curve_records(curve):
    recs = curve_records(curve, ds=0.01)
    s, x, y, kap = recs[0]
    assert (s, x, y) == (0.0, pytest.approx(0.5), pytest.approx(0.0))
    assert all(b[0] > a[0] for a, b in zip(recs, recs[1:]))
    assert max(abs(r[3]) for r in recs) < 15.0
