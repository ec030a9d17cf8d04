import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from flowcomp.curves import (
    _ARC_CELLS,
    _REACH,
    CHART_HALF_WIDTH,
    RAMP_EPS,
    BandChart,
    ChartError,
    CurveFamily,
    bump_profile,
    curve_records,
    flat,
    hermite_cumulative,
    interval_bound_log,
    window_reduce,
)
from flowcomp.field import cutoff
from flowcomp.logmag import LogMagnitude
from flowcomp.machine import MachineSpec, load_machine
from flowcomp.robust import _bump01

MACHINES = Path(__file__).resolve().parent.parent / "machines"
# the one-rule sample machines, then the late halters: the tests that give
# each machine a band and a height budget in list order put the random
# machines between them, so every machine keeps the draws it had before the
# late halters were shipped
ONE_RULE = ("incrementer", "right_filler", "spinner")
ONE_RULE_MACHINES = [load_machine(MACHINES / f"{name}.tm") for name in ONE_RULE]
LATE_HALTERS = [load_machine(p) for p in sorted(MACHINES.glob("*.tm")) if p.stem not in ONE_RULE]


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
    # the curvature bound kbar reads it as an upper bound: at least the
    # 30-digit maximum, at t near 0.30334, and within the 1e-9 pad of it
    with mp.workdps(30):
        def g(t):
            return mp_ramp(t) * (1 / t**2 - 1 / (1 - t) ** 2)

        peak = g(mp.findroot(lambda t: mp.diff(g, t), 0.3033))
        assert peak <= profile.sup_expression <= peak * (1 + 2e-9)


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
    val, d1, d2 = curve.lambda_eval(np.array([0.0, eps / 2, 1.0 - eps / 2, 1.0, 2.0 + eps]))
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)
    for v in val.tolist():
        assert v in (pytest.approx(curve.x[0]), pytest.approx(curve.x[1]))


def test_lambda_derivative_matches_finite_difference(curve):
    h = 1e-6
    u = np.array([0.3, 0.5, 0.62])
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
    assert curve.curvature(np.array([0.3]))[0] == pytest.approx(3.262197511240804, rel=1e-9)


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


def test_curves_and_boxes_stay_in_the_encoding_range():
    # every state is at least 1, so every encoded value is at most 1/2 and
    # every half-width at most 1/64: band i's curve, which only ramps between
    # its anchors, stays in [2i, 2i + 1/2] on every arc-grid node, which
    # `field._locate` relies on, and every plotted box is drawn at 0.02
    curves = [*sample_curves(), *(CurveFamily(random_machine(seed), seed % 3, 12)
                                  for seed in range(600, 700))]
    box = LogMagnitude.from_prime_exponents(6, 0, 0)
    for curve in curves:
        x = curve._arc_maps[4] - 2 * curve.band
        assert 0.0 <= x.min() and x.max() <= 0.5, curve.machine.name
        assert all(p.ln_half_width() <= box for p in curve.points), curve.machine.name


def quad_arc_heights(curve):
    """Reference: adaptive quadrature of the speed over each unit of height,
    split where the ramp starts and ends."""
    def speed(u):
        return math.sqrt(1.0 + curve.lambda_eval(np.array([u]))[1][0] ** 2)

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
    assert _rel_close(flat(t * (1.0 - t)), ramp)
    assert np.array_equal(flat(t), piece)
    assert _rel_close(_bump01(t), bump)
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
    s, rho = np.array([0.0, 1.7, 0.45, 3.2]), np.array([0.0, 0.01, -0.03, 0.055])
    s2, rho2 = ch.plane_to_chart(*ch.chart_to_plane(s, rho))
    assert s2 == pytest.approx(s, abs=1e-10)
    assert rho2 == pytest.approx(rho, abs=1e-12)


def test_chart_to_plane_evaluates_lambda_once(curve, monkeypatch):
    # the point and the normal come from one frame: one lambda_eval per call
    calls = []
    lambda_eval = CurveFamily.lambda_eval

    def counting(self, u):
        calls.append(len(u))
        return lambda_eval(self, u)

    monkeypatch.setattr(CurveFamily, "lambda_eval", counting)
    s, rho = np.array([0.0, 1.7, 0.45, 3.2]), np.array([0.0, 0.01, -0.03, 0.055])
    x, y = BandChart(curve).chart_to_plane(s, rho)
    assert calls == [4]
    u = curve.param_of_arclength(s)
    val, d1, _ = lambda_eval(curve, u)
    w = np.sqrt(1.0 + d1 * d1)
    assert (x == val + rho * (-1.0 / w)).all() and (y == u + rho * (d1 / w)).all()


def test_chart_vertical_sign_convention(curve):
    # on a vertical piece the normal is (-1, 0): rho = -(x - x_l)
    ch = BandChart(curve)
    x_l = curve.x[2]
    s, rho = ch.plane_to_chart(np.array([x_l + 0.02]), np.array([2.0]))
    assert rho[0] == pytest.approx(-0.02)
    assert s[0] == pytest.approx(float(curve.arc_heights[2]), abs=1e-9)


def test_chart_rejects_far_points(curve):
    ch = BandChart(curve)
    s, rho = ch.plane_to_chart(np.array([curve.x[2] + 0.2]), np.array([2.0]))
    assert np.isnan(s[0]) and np.isnan(rho[0])
    with pytest.raises(ChartError):
        ch.chart_to_plane(np.array([1.0]), np.array([0.0626]))
    with pytest.raises(ChartError):
        ch.chart_to_plane(np.array([1.0, 2.0]), np.array([0.01, -0.0625]))


def test_distance_bound_keeps_every_chart_point():
    # the bound that runs before Newton rejects no point of the chart: points
    # placed within the half-width come back with their own s and rho
    rng = np.random.default_rng(20261018)
    machines = ONE_RULE_MACHINES + [random_machine(seed) for seed in range(100, 109)]
    machines += LATE_HALTERS
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


def test_far_points_leave_the_chart_without_overflow(incrementer):
    # a finite x past 1e154 would overflow a squared distance; it, a far
    # negative x and inf land on no chart, and a near point keeps its (s, rho)
    ch = BandChart(CurveFamily(incrementer, 0, 4))
    near = ch.plane_to_chart(np.array([0.09]), np.array([1.0]))
    assert np.all(np.isfinite(near))
    s, rho = ch.plane_to_chart(np.array([0.09, 1.5e154, -1e300, np.inf]), np.full(4, 1.0))
    assert (s[0], rho[0]) == (near[0][0], near[1][0])
    assert np.all(np.isnan(s[1:])) and np.all(np.isnan(rho[1:]))


def reference_cell_boxes(curve):
    """(bottom, top, left, right) of a box around each cell of the arc-length
    grid, the end cells repeated `_REACH` times on either side, then the hulls
    over each window of 2 `_REACH` + 1 boxes: the reference for the hull table
    and for a box bound, tighter than the hull's."""
    u, *_, val, _ = curve._arc_maps
    bottom, top = u[:-1].copy(), u[1:].copy()
    bottom[0], top[-1] = -np.inf, np.inf
    boxes = bottom, top, np.minimum(val[:-1], val[1:]), np.maximum(val[:-1], val[1:])
    boxes = [np.concatenate((b[:1].repeat(_REACH), b, b[-1:].repeat(_REACH))) for b in boxes]
    return boxes + [window_reduce(np.minimum, boxes[2], 2 * _REACH + 1),
                    window_reduce(np.maximum, boxes[3], 2 * _REACH + 1)]


def full_box_bound(curve, x, y):
    """The least squared distance of each point to the 2 _REACH + 1 cell boxes
    around its height: a bound at or above the hull's, below the distance."""
    bottom, top, left, right = reference_cell_boxes(curve)[:4]
    k0 = np.searchsorted(top[_REACH:-_REACH], y)
    best = np.full(x.shape, np.inf)
    for j in range(2 * _REACH + 1):
        k = k0 + j
        dx = x - np.minimum(np.maximum(x, left[k]), right[k])
        dy = y - np.minimum(np.maximum(y, bottom[k]), top[k])
        np.minimum(best, dx * dx + dy * dy, out=best)
    return best


def test_hull_prefilter_keeps_the_bound_below_and_the_held_set():
    # points across each band and past its edges, at every height and below
    # and above the curve's ends; at 1/16 +- 1e-12 off the curve; and within
    # 1/16 of either side of the hull in the middle of the steepest ramp, where
    # the hull holds points that the boxes do not.  On the sample machines and
    # random ones; the last two sets have an rng of their own, so each machine
    # keeps the band and height budget it had
    rng, edge_rng = np.random.default_rng(17), np.random.default_rng(18)
    machines = ONE_RULE_MACHINES + [random_machine(seed) for seed in range(300, 309)]
    machines += LATE_HALTERS
    n, m, total, hull_only = 9000, 2500, 0, 0
    for k, machine in enumerate(machines):
        curve = CurveFamily(machine, k % 3, int(rng.integers(3, 13)))
        ch = BandChart(curve)
        x = 2 * curve.band + np.concatenate([rng.uniform(-0.25, 1.25, n // 2),
                                             curve.x[rng.integers(0, curve.l_max + 2, n // 2)]
                                             + rng.uniform(-0.08, 0.08, n // 2)])
        y = rng.uniform(-1.5, curve.l_max + 2.5, n)
        u = edge_rng.uniform(-0.5, curve.l_max + 1.0, m)
        rho = (edge_rng.choice([-1.0, 1.0], m)
               * (CHART_HALF_WIDTH + edge_rng.choice([-1e-12, 1e-12], m)))
        (gx, gy), _, normal, _, _ = curve.frame(u)
        top, hull_left, hull_right = ch._cell_boxes
        ramp = np.argmax(np.abs(np.diff(curve.x))) + edge_rng.uniform(0.3, 0.7, m)
        k, side = np.searchsorted(top, ramp), edge_rng.choice([-1.0, 1.0], m)
        beside = (np.where(side < 0, hull_left[k], hull_right[k])
                  + side * edge_rng.uniform(0.0, CHART_HALF_WIDTH, m))
        x = np.concatenate([x, gx + rho * normal[0], beside])
        y = np.concatenate([y, gy + rho * normal[1], ramp])
        hull, box = ch._distance_bound(x, y), full_box_bound(curve, x, y)
        assert np.all(hull <= box), machine.name
        held, beyond = hull < CHART_HALF_WIDTH**2, box >= CHART_HALF_WIDTH**2
        # the points the box scan spared Newton land on no chart
        assert np.all(np.isnan(ch.plane_to_chart(x[beyond], y[beyond])[0])), machine.name
        total += len(x)
        hull_only += np.count_nonzero(held & beyond)
    assert total >= 100_000 and hull_only >= 10_000


def test_hulls_match_sliding_window_min_and_max():
    rng = np.random.default_rng(41)
    machines = ONE_RULE_MACHINES + [random_machine(seed) for seed in range(500, 509)]
    machines += LATE_HALTERS
    width = 2 * _REACH + 1
    for k, machine in enumerate(machines):
        curve = CurveFamily(machine, k % 3, int(rng.integers(1, 13)))
        top, *hulls = BandChart(curve)._cell_boxes
        boxes = reference_cell_boxes(curve)
        assert top.tobytes() == boxes[1][_REACH:-_REACH].tobytes(), machine.name
        for got, box, reduce in zip(hulls, boxes[2:4], (np.min, np.max)):
            want = reduce(np.lib.stride_tricks.sliding_window_view(box, width), axis=1)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), machine.name


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 35, 64])
def test_window_reduce_matches_sliding_windows(width):
    rng = np.random.default_rng(width)
    for n in (width, width + 1, 300):
        a = rng.normal(size=n)
        a[rng.integers(0, n, n // 4)] = 0.5  # ties
        windows = np.lib.stride_tricks.sliding_window_view(a, width)
        assert window_reduce(np.minimum, a, width).tobytes() == windows.min(axis=1).tobytes()
        assert window_reduce(np.maximum, a, width).tobytes() == windows.max(axis=1).tobytes()


def reference_arc_maps(curve):
    """`_arc_maps` with the ramp evaluated for this curve alone, on its own grid."""
    u_grid = np.linspace(-1.0, curve.l_max + 1, _ARC_CELLS * (curve.l_max + 2) + 1)
    _, sigma, mid = curve._ramp(u_grid[_ARC_CELLS:2 * _ARC_CELLS])
    sm, profile = sigma[mid], bump_profile()
    anchors = np.concatenate([curve.x[:1], curve.x])
    xl, xr = anchors[:-1, None], anchors[1:, None]
    dx = xr - xl
    val = np.where(sigma >= 1.0 - RAMP_EPS, xr, xl)
    d1, d2 = np.zeros(val.shape), np.zeros(val.shape)
    val[:, mid] = xl + profile.beta(sm) * dx
    d1[:, mid] = profile.dbeta(sm) * dx
    d2[:, mid] = d1[:, mid] * (1.0 / sm**2 - 1.0 / (1.0 - sm) ** 2)
    val, d1, d2 = (np.append(a, end) for a, end in zip((val, d1, d2), (curve.x[-1], 0.0, 0.0)))
    w = np.sqrt(1.0 + d1**2)
    s_arr = hermite_cumulative(u_grid, w, d1 * d2 / w)
    s_arr -= s_arr[_ARC_CELLS]
    return u_grid, s_arr, w, 1.0 / w, val, d1


@pytest.mark.parametrize("l_max", [1, 2, 3, 9, 40, 250])
def test_arc_maps_match_lambda_eval_on_their_grid(l_max):
    # the shared ramp rows give every node the bits `lambda_eval` gives it,
    # and those of the ramp evaluated for each curve on its own grid
    machines = ONE_RULE_MACHINES + [random_machine(400 + l_max)] + LATE_HALTERS
    for k, machine in enumerate(machines):
        curve = CurveFamily(machine, k % 3, l_max)
        u = np.linspace(-1.0, l_max + 1, _ARC_CELLS * (l_max + 2) + 1)
        val, d1, d2 = curve.lambda_eval(u)
        w = np.sqrt(1.0 + d1**2)
        s = hermite_cumulative(u, w, d1 * d2 / w)
        s -= s[_ARC_CELLS]
        for got, want, old in zip(curve._arc_maps, (u, s, w, 1.0 / w, val, d1),
                                  reference_arc_maps(curve)):
            assert got.tobytes() == want.tobytes() == old.tobytes(), machine.name


def test_far_point_is_off_the_chart():
    # Newton alone stops at s = 0.9957, rho = 0.0033 for this point, which is
    # 0.373 from the curve (nearest at u ~ 0.439)
    curve = CurveFamily(load_machine(MACHINES / "incrementer.tm"), 0, 9)
    s, rho = BandChart(curve).plane_to_chart(np.array([0.0955]), np.array([0.1721]))
    assert np.isnan(s[0]) and np.isnan(rho[0])
    x, y = curve.point(np.linspace(-1.0, 10.0, 200001))
    assert np.min(np.hypot(x - 0.0955, y - 0.1721)) > 0.37


def test_points_past_the_ends_keep_their_chart():
    # beyond its ends the curve extends vertically: rho = x_end - x, and s
    # stays at the top end or runs on at unit speed below u = 0
    curve = CurveFamily(load_machine(MACHINES / "right_filler.tm"), 0, 9)
    ch = BandChart(curve)
    top, bottom = curve.x[-1], curve.x[0]
    s, rho = ch.plane_to_chart(np.array([top + 0.03, top - 0.05]), np.array([10.5, 40.0]))
    assert s.tolist() == [curve.arc_heights[-1]] * 2 and rho.tolist() == [-0.03, 0.05]
    x, y = np.array([bottom - 0.02, bottom + 0.06, bottom + 0.02]), np.array([-3.0, -20.0, -1.02])
    s, rho = ch.plane_to_chart(x, y)
    assert s == pytest.approx(y, abs=1e-12) and rho == pytest.approx(bottom - x, abs=1e-12)
    s, rho = ch.plane_to_chart(np.array([top + 0.07]), np.array([12.0]))
    assert np.isnan(s[0]) and np.isnan(rho[0])


def test_points_far_below_the_start_are_projected_in_one_step():
    # Newton used to start these at u = -0.75 with steps of at most 0.5, and
    # stopped 60 steps later at s = -30.75 for the point at height -40
    curve = CurveFamily(load_machine(MACHINES / "right_filler.tm"), 0, 9)
    ch = BandChart(curve)
    y = np.array([-30.0, -40.0, -1000.0, -1.0])
    s, rho = ch.plane_to_chart(np.full(4, curve.x[0] + 0.02), y)
    assert s == pytest.approx(y, abs=1e-12) and rho == pytest.approx(-0.02, abs=1e-12)
    assert s[-1] == -1.0


def test_curve_records(curve):
    recs = curve_records(curve)
    s, x, y, kap = recs[0]
    assert (s, x, y) == (0.0, pytest.approx(0.5), pytest.approx(0.0))
    assert all(b[0] > a[0] for a, b in zip(recs, recs[1:]))
    assert max(abs(r[3]) for r in recs) < 15.0
