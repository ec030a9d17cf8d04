import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from flowcomp.curves import (RAMP_EPS, RHO0, ChartError, bump_profile, hermite_cumulative,
                             hermite_eval, interval_bound_log)
from scipy.integrate import quad

from flowcomp.field import (
    GAMMA0,
    LAMBDA0,
    FieldSpec,
    check_height_budget,
    contraction_speed_limit,
    cutoff,
    derivative_bound,
    error_schedule,
    field_eval_plane,
    height_ceiling,
    potential_plane,
    verify_gradient,
    _chart_field,
    _chart_potential,
    _locate,
    _sample_points,
)
from flowcomp.logmag import FIX, LogMagnitude
from flowcomp.robust import EPS0
from flowcomp.machine import MachineSpec, load_machine
from hypothesis import given, settings
from hypothesis import strategies as st
from test_curves import random_machine
from test_machine import machine_specs

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def crossing_time(fs, i, l):
    """tau_il of the error schedule: (max anchor gap + 1) / Gamma0 at the top
    speed, scaled by the top speed over that of height l + 1."""
    gap = max(float(np.max(np.diff(fs.curve(b).arc_heights))) for b in range(fs.n_bands))
    return (gap + 1.0) / GAMMA0 * fs.lam / fs.level_speed(i, l + 1)


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


@pytest.mark.parametrize("frac", [0.5, 1e-3])
def test_height_ceiling_is_where_the_floats_end(frac):
    # at the default speed the schedule's M tau bounds it, at 1e-3 the speed
    machine = load_machine(MACHINES / "spinner.tm")
    k = height_ceiling(frac)
    assert k == {0.5: 302, 1e-3: 301}[frac]
    with pytest.raises(ValueError, match=f"ceiling {k}"):
        FieldSpec(machine, 2, k - 1, lambda_frac=frac)
    fs = FieldSpec(machine, 1, k - 1, lambda_frac=frac)  # reaches level k
    speed = fs.speed(0)
    assert speed.levels[-1] >= sys.float_info.min
    assert np.all(np.isfinite(speed.time_to(speed.anchors)))
    mt = derivative_bound(fs) * crossing_time(fs, 0, k - 1)  # that of level k
    assert math.isfinite(mt)
    base = interval_bound_log(machine.m, 0, k) - LogMagnitude.fixed(mt)
    assert error_schedule(fs)[(0, k - 1)].fix == base.fix
    # one level deeper, the speed is subnormal or M tau overflows
    step = contraction_speed_limit(k + 1) / contraction_speed_limit(k)
    assert speed.levels[-1] * step < sys.float_info.min or not math.isfinite(mt / step)


def test_cutoff_shape():
    assert float(cutoff(0.0)) == 1.0
    assert float(cutoff(0.5)) == 1.0
    assert float(cutoff(1.0)) == 0.0
    assert float(cutoff(2.0)) == 0.0
    mid = cutoff(np.linspace(0.5, 1.0, 50))
    assert np.all(np.diff(mid) <= 0.0)


def chart_components(fs, s, rho):
    """Tangential and normal components of band 0's plane field at one chart point."""
    s, rho = np.array([s]), np.array([rho])
    vx, vy = _chart_field(fs, np.zeros(1, dtype=int), s, rho)
    curve = fs.curve(0)
    _, (tx, ty), (nx, ny), _, _ = curve.frame(curve.param_of_arclength(s))
    return (vx * tx + vy * ty).item(), (vx * nx + vy * ny).item()


def test_chart_field_values(fs):
    # s = 1 lies before the ramp into anchor 1: the speed of level 0
    xs, xr = chart_components(fs, 1.0, 0.0)
    assert xs == pytest.approx(fs.level_speed(0, 0)) and xr == pytest.approx(0.0, abs=1e-18)
    # vertical piece: kappa = 0 at an anchor height, where level 2 starts;
    # the cutoff is 1 up to |rho| = RHO0/2
    s2 = float(fs.curve(0).arc_heights[2])
    xs, xr = chart_components(fs, s2, RHO0 / 2)
    assert xs == pytest.approx(fs.level_speed(0, 2)) and xr == pytest.approx(-RHO0 / 2)


def test_level_speeds(fs):
    assert fs.level_speed(0, 0) == pytest.approx(0.5 * contraction_speed_limit(0))
    assert fs.level_speed(1, 2) == pytest.approx(0.5 * contraction_speed_limit(1 + 2))
    assert fs.level_speed(0, 0) < fs.lam
    speed = fs.speed(0)
    assert np.array_equal(speed.levels,
                          [fs.level_speed(0, l) for l in range(len(speed.anchors))])


def test_speed_below_contraction_limit_on_every_segment(fs):
    for band in range(fs.n_bands):
        speed = fs.speed(band)
        heights = speed.anchors
        for l in range(len(heights) - 1):
            s = np.linspace(heights[l], heights[l + 1], 2001)
            lam = speed(s)
            assert np.all(lam <= contraction_speed_limit(band + l))
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
        assert speed.time(np.array([a]), np.array([b]))[0] == pytest.approx(want, rel=1e-9)


def test_chart_speed_bounds(fs):
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = float(rng.uniform(0.0, fs.curve(0).arc_heights[-1]))
        # the cutoff is 1 up to |rho| = RHO0/2
        rho = float(rng.uniform(-RHO0 / 2, RHO0 / 2))
        xs, _ = chart_components(fs, s, rho)
        lam = float(fs.speed(0)(s))
        assert lam / 2 < xs < 16 * lam


def test_chart_rejects_outside(fs):
    with pytest.raises(ChartError):
        fs.chart(0).chart_to_plane(np.array([1.0]), np.array([1.0 / 16.0]))
    with pytest.raises(ChartError):
        fs.chart(0).chart_to_plane(np.array([1.0]), np.array([-0.07]))


def test_potential_values(fs):
    assert fs.speed(0).potential(np.zeros(1)).tolist() == [0.0]
    # the tangential part is the integral of lambda_0(s) along the curve
    speed = fs.speed(0)
    points = [p for p in speed.anchors[1:] for p in (p - RAMP_EPS, p) if p < 2.0]
    tangential = quad(lambda s: float(speed(s)), 0.0, 2.0, points=points,
                      epsrel=1e-13, limit=200)[0]
    got = _chart_potential(fs, np.zeros(1, dtype=int), np.array([2.0]), np.array([0.01]))
    assert got[0] == pytest.approx(tangential - 5e-5, rel=1e-9)


def test_ramp_potential_matches_mpmath(fs):
    # the potential across the speed step before anchor 1, against a 17-digit
    # quadrature of lambda with the ramp beta itself from quadrature; the
    # bound is the rounding of the two potentials whose difference is taken
    speed = fs.speed(0)
    start = speed.anchors[1] - RAMP_EPS
    with mp.workdps(17):
        lo, hi = mp.mpf(RAMP_EPS), 1 - mp.mpf(RAMP_EPS)

        def g(t):
            return mp.exp(-1 / (t * (1 - t)))

        Z = mp.quad(g, [lo, 0.5, hi])
        slow0, slow1 = 1 / mp.mpf(speed.levels[0]), 1 / mp.mpf(speed.levels[1])

        def lam(sigma):
            beta = mp.quad(g, [lo, min(max(sigma, lo), hi)]) / Z
            return 1 / (slow0 + (slow1 - slow0) * beta)

        for sigma in (0.3, 1.0):
            ref = RAMP_EPS * mp.quad(lam, [0, lo, min(sigma, 0.5), sigma])
            end, begin = speed.potential(np.array([start + RAMP_EPS * sigma, start]))
            got = end - begin
            assert abs(got - ref) < 1e-13 * ref, sigma


# -- the old whole-table forms, kept as references ---------------------------


def reference_potential(speed, s):
    """Lambda_i(s) from every ramp row of the band, built at once."""
    profile, grid = bump_profile(), np.linspace(0.0, 1.0, 4001)
    r1 = speed._slow[1:, None] / speed._slow[:-1, None] - 1.0
    vals = 1.0 / (1.0 + r1 * profile.beta(grid))
    cum = hermite_cumulative(grid, vals, -r1 * profile.dbeta(grid) * vals * vals)
    seg = (np.diff(speed.anchors) - RAMP_EPS + RAMP_EPS * cum[:, -1]) * speed.levels[:-1]
    at_anchor = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.atleast_1d(np.asarray(s, dtype=float))
    k, sigma = speed._locate(s)
    lam = speed.levels[k]
    out = at_anchor[k] + lam * (np.minimum(s, speed._next[k] - RAMP_EPS) - speed.anchors[k])
    for kk in np.unique(k[sigma > 0.0]).tolist():
        m = (k == kk) & (sigma > 0.0)
        ramp = hermite_eval(grid, cum[kk], vals[kk], np.minimum(sigma[m], 1.0))
        out[m] += RAMP_EPS * lam[m] * ramp
    return out


def reference_time_to(speed, s):
    """The flow time with the ramp term evaluated at every point."""
    k, sigma = speed._locate(s)
    return (speed._anchor_time[k] + (s - speed.anchors[k]) * speed._slow[k]
            + speed._dslow[k] * RAMP_EPS * bump_profile().beta_integral(sigma))


def reference_anchor_times(speed, s0: float) -> list:
    """[time_to(s0), time_to(anchor 1), ...] as verdict flows once took them,
    for s0 below RAMP_EPS on level 0's straight piece."""
    times = speed._anchor_time.tolist()
    times[0] += (s0 - float(speed.anchors[0])) * float(speed._slow[0])
    return times


class ReferenceRows:
    """The potential's ramp rows as `LevelSpeed` once built them: appended as
    reads climbed, with an offset into the rows already built."""

    def __init__(self, speed):
        self.anchors, self.levels, self._slow = speed.anchors, speed.levels, speed._slow
        self._vals, self._cum = [], []

    def _potential_tables(self, k: int):
        n = len(self._cum)
        if k >= n:
            grid, beta, dbeta = bump_profile().level_rows
            r1 = self._slow[n + 1:k + 2, None] / self._slow[n:k + 1, None] - 1.0
            vals = 1.0 / (1.0 + r1 * beta)
            self._vals.extend(vals)
            self._cum.extend(hermite_cumulative(grid, vals, -r1 * dbeta * vals * vals))
            ends = RAMP_EPS * np.array([c[-1] for c in self._cum])
            seg = (np.diff(self.anchors[:k + 2]) - RAMP_EPS + ends) * self.levels[:k + 1]
            self._at_anchor = np.concatenate([[0.0], np.cumsum(seg)])
        return self._vals, self._cum, self._at_anchor


def points_across_the_anchors(speed, n=4000):
    """Arc lengths from below s = 0 to past the last anchor: a uniform grid,
    each anchor and ramp start, points an ulp away, and points across each ramp."""
    a = speed.anchors
    ramps = a[1:] - RAMP_EPS
    sigma = np.array([1.0 / 4001.0, RAMP_EPS, 0.011, 0.03, 0.06, 0.3, 0.7, 0.99, 0.995])
    s = np.concatenate([np.linspace(-0.5, a[-1] + 0.5, n), a, ramps, np.nextafter(a, -np.inf),
                        np.nextafter(a, np.inf), np.nextafter(ramps, np.inf),
                        (ramps[:, None] + RAMP_EPS * sigma).ravel()])
    return np.sort(s)


@pytest.mark.parametrize("l_max", [9, 20])
@pytest.mark.parametrize("n_bands", [1, 2, 3])
def test_potential_rows_built_as_read_match_the_whole_table(n_bands, l_max):
    machine = load_machine(MACHINES / "right_filler.tm")
    for band in range(n_bands):
        speed = FieldSpec(machine, n_bands, l_max).speed(band)
        s = points_across_the_anchors(speed)
        want = reference_potential(speed, s)
        for stop in np.linspace(0, len(s), 12).astype(int)[1:]:  # growing prefixes
            assert np.array_equal(speed.potential(s[:stop]), want[:stop])
        assert len(speed._cum) == len(speed.anchors) - 1
        growing = FieldSpec(machine, n_bands, l_max).speed(band)
        for k in range(0, len(s), 7):  # ascending, so the rows grow one at a time
            assert growing.potential(s[k:k + 1]).tolist() == [want[k]], s[k]
        assert np.array_equal(speed.potential(np.array([])), np.array([]))


@pytest.mark.parametrize("name", ["incrementer", "right_filler", "spinner"])
def test_time_to_skips_the_ramp_only_where_it_is_zero(name):
    fs = FieldSpec(load_machine(MACHINES / f"{name}.tm"), n_bands=2, l_max=9)
    for band in range(2):
        speed = fs.speed(band)
        s = points_across_the_anchors(speed)
        assert np.array_equal(speed.time_to(s), reference_time_to(speed, s))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


START = st.one_of(st.floats(-RAMP_EPS / 2, RAMP_EPS / 2, exclude_min=True, exclude_max=True),
                  st.sampled_from([0.0, math.nextafter(RAMP_EPS, 0.0)]))


@settings(deadline=None)
@given(machine_specs(), st.integers(1, 3), st.integers(1, 12), START)
def test_one_clock_and_one_pass_rows_are_the_old_paths_on_drawn_machines(spec, n_bands, l_max,
                                                                         s0):
    fs = FieldSpec(spec, n_bands, l_max)
    for band in range(n_bands):
        speed = fs.speed(band)
        times = speed.time_to(np.array([s0, *speed.anchors[1:]]))
        assert bits(times) == bits(reference_anchor_times(speed, s0))
        ref, top = ReferenceRows(speed), len(speed.anchors) - 1
        for level in (1, 3, top):  # reads that climb, each past the rows built
            speed.potential(speed.anchors[[min(level, top)]])
            want = ref._potential_tables(min(level, top - 1))
            assert [bits(a) for a in (speed._vals, speed._cum, speed._at_anchor)] == \
                [bits(a) for a in want]


def test_window_fit_builds_only_the_rows_it_reads():
    # the extend3d window at --lmax 8 reads heights 0 to 2: three ramp rows, not ten
    from flowcomp.beltrami import fit_window_polynomial

    fs = FieldSpec(load_machine(MACHINES / "right_filler.tm"), n_bands=1, l_max=8)
    fit_window_polynomial(fs, (0.0, 1.0, 0.0, 2.0), degree=3)
    assert 1 <= len(fs.speed(0)._cum) <= 3 < len(fs.speed(0).anchors) - 1


def test_plane_field_zero_off_bands(fs):
    x, y = np.array([1.5, -3.0]), np.array([2.0, 0.0])
    vx, vy = field_eval_plane(fs, x, y)
    assert vx.tolist() == vy.tolist() == [0.0, 0.0]
    assert np.all(np.isnan(potential_plane(fs, x, y)))


def test_plane_field_vertical_piece(fs):
    fx, fy = field_eval_plane(fs, fs.curve(0).x[2:3], np.array([2.0]))
    assert fx[0] == pytest.approx(0.0, abs=1e-12)
    assert fy[0] == pytest.approx(fs.level_speed(0, 2))


def _plane_cloud(fs, seed=11):
    """Seeded plane points: anywhere, beside the curves (some beyond the
    chart half-width) and within 1e-3 of the band edges 2i +- 1/16, where a
    point's candidate bands change."""
    rng = np.random.default_rng(seed)
    top = fs.l_max + 1.0
    xs = [rng.uniform(-0.5, 2 * fs.n_bands + 0.5, 60)]
    ys = [rng.uniform(-1.0, top, 60)]
    for i in range(fs.n_bands):
        u = rng.uniform(-0.5, top - 0.5, 60)
        xs.append(fs.curve(i).point(u)[0] + rng.uniform(-0.08, 0.08, 60))
        ys.append(u)
    for i in range(fs.n_bands + 1):
        for edge in (2 * i - 1.0 / 16.0, 2 * i + 1.0 / 16.0):
            xs.append(edge + rng.uniform(-1e-3, 1e-3, 8))
            ys.append(rng.uniform(-1.0, top, 8))
    return np.concatenate(xs), np.concatenate(ys)


def test_plane_points_off_every_chart_get_nan(fs):
    x, y = _plane_cloud(fs)
    band, s, rho = _locate(fs, x, y)
    off = band < 0
    assert 0 < np.count_nonzero(off) < len(x)
    assert np.all(np.isnan(s[off]) & np.isnan(rho[off]))
    vx, vy = field_eval_plane(fs, x, y)
    pot = potential_plane(fs, x, y)
    assert np.all((vx[off] == 0.0) & (vy[off] == 0.0) & np.isnan(pot[off]))
    assert not np.any(np.isnan(pot[~off]))
    for i in range(fs.n_bands):
        ci_s, ci_rho = fs.chart(i).plane_to_chart(x, y)
        assert np.array_equal(np.isnan(ci_s), np.isnan(ci_rho))


@pytest.mark.parametrize("name", ["incrementer", "right_filler", "spinner"])
def test_locating_a_subset_matches_the_whole(name):
    # the window fit locates its grid once and evaluates the kept samples on
    # those chart points, so a subset must locate to the same bits
    fs = FieldSpec(load_machine(str(MACHINES / f"{name}.tm")), n_bands=2, l_max=6)
    x, y = _plane_cloud(fs, seed=5)
    m = np.random.default_rng(5).random(len(x)) < 0.5
    whole = _locate(fs, x, y)
    part = _locate(fs, x[m], y[m])
    for a, b in zip(whole, part):
        assert a[m].tobytes() == b.tobytes()
    assert _chart_potential(fs, *whole).tobytes() == potential_plane(fs, x, y).tobytes()


def two_pass_locate(fs, x, y):
    """The locate loop that projected every band's left candidates, then every
    band's right ones: one `plane_to_chart` call per band and candidate."""
    band = np.full(x.shape, -1)
    s, rho = np.full((2,) + x.shape, np.nan)
    left = np.floor((x - 1.0 / 16.0) / 2.0)
    right = np.floor((x + 1.0 / 16.0) / 2.0)
    for cand in (left, np.where(right != left, right, -1.0)):
        for i in range(fs.n_bands):
            todo = (band < 0) & (cand == i)
            if not todo.any():
                continue
            si, ri = fs.chart(i).plane_to_chart(x[todo], y[todo])
            held = ~np.isnan(si)
            hit = todo.copy()
            hit[todo] = held
            band[hit], s[hit], rho[hit] = i, si[held], ri[held]
    return band, s, rho


@pytest.mark.parametrize("name", ["incrementer", "right_filler", "spinner"])
def test_one_pass_per_band_locates_as_the_two_pass_loop(name):
    # points within 1/16 of the band borders x = 2i, where a point has two
    # candidate bands, and x = 2i + 1, and points beside the curves
    fs = FieldSpec(load_machine(str(MACHINES / f"{name}.tm")), n_bands=3, l_max=6)
    rng = np.random.default_rng(23)
    n, top = 3000, fs.l_max + 1.0
    u = rng.uniform(-1.0, top, 2 * n)
    beside = np.concatenate([fs.curve(i).point(u[i::3])[0] for i in range(3)])
    x = np.concatenate([rng.integers(0, 2 * fs.n_bands + 1, n) + rng.uniform(-1, 1, n) / 16.0,
                        beside + rng.uniform(-0.08, 0.08, 2 * n)])
    y = np.concatenate([rng.uniform(-1.0, top, n), u[0::3], u[1::3], u[2::3]])
    got, want = _locate(fs, x, y), two_pass_locate(fs, x, y)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    border = x[:n] - 2 * np.floor(x[:n] / 2 + 0.25)  # offset from the nearest even x
    held = got[0][:n] >= 0
    assert np.any(held & (np.abs(border) < 1.0 / 16.0) & (got[0][:n] > 0)), name
    assert set(got[0].tolist()) == {-1, 0, 1, 2}, name


def test_window_fit_locates_once(fs, monkeypatch):
    from flowcomp import beltrami
    from flowcomp.beltrami import fit_window_polynomial

    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return _locate(*args)

    monkeypatch.setattr(beltrami, "_locate", counted)
    rep = fit_window_polynomial(fs, (0.0, 1.0, 0.0, 2.0), degree=3)
    assert calls == [48 * 48]
    assert rep["samples"] > 0


def test_gradient_identity(fs):
    rep = verify_gradient(fs, 200, seed=1)
    assert rep["max_rel_error"] < 1e-6
    assert rep["max_curl"] < 1e-8


def test_transversality(fs):
    # c0 > 0: X . e_y on a band whose width scales with the local flow speed,
    # since the normal part -rho*N can beat the lambda-sized tangential part
    # on ramps once |rho| ~ lambda
    x, y = _sample_points(fs, 500, 0, lambda i, s: min(RHO0, float(fs.speed(i)(s)) / 4.0))
    assert np.min(field_eval_plane(fs, x, y)[1]) > 0.0


def test_forward_invariance_sign(fs):
    # d(rho)/dt = -rho, times the cutoff: the normal component always points
    # back to the curve
    for rho in (0.01, -0.03, 1e-9):
        _, xr = chart_components(fs, 1.3, rho)
        assert xr == pytest.approx(-float(cutoff(abs(rho) / RHO0)) * rho, rel=1e-9)


@pytest.fixture(scope="module")
def schedule(fs):
    return error_schedule(fs)


def test_schedule_monotone(schedule):
    assert schedule[(0, 1)] < schedule[(0, 0)]
    assert schedule[(1, 1)] < schedule[(1, 0)]
    # depends only on i + l through the interval bound
    d = schedule[(0, 1)].diff_ln(schedule[(1, 0)])
    assert d == pytest.approx(0.0, abs=1e-9)


def test_schedule_positive(schedule):
    for th in schedule.values():
        assert not th.is_zero
        assert th > LogMagnitude.zero()


def test_schedule_formula(schedule, fs):
    # min always lands on the interval branch here: ln(A/8) << ln(eps/2)
    M = derivative_bound(fs)
    th = schedule[(0, 0)]
    expected = (
        interval_bound_log(fs.machine.m, 0, 1)
        + (math.log(M) - M * crossing_time(fs, 0, 0) - 3 * math.log(2))
    )
    assert th.diff_ln(expected) == pytest.approx(0.0, abs=1e-9)


def test_schedule_per_box_crossing_time(schedule, fs):
    # each box's budget is the top-speed one scaled to its slowest level;
    # M*tau ~ 3e9 here: carried in the fixed-point part, the float offsets
    # ln M and ln 8 survive it exactly
    M = derivative_bound(fs)
    for i, l in schedule:
        mt = LogMagnitude.fixed(M * crossing_time(fs, i, l))
        base = interval_bound_log(fs.machine.m, i, l + 1) - mt
        d = schedule[(i, l)].diff_ln(base)
        assert d == pytest.approx(math.log(M) - 3 * math.log(2), abs=1e-12), (i, l)


def test_schedule_cap_scaling(schedule):
    d = (schedule[(0, 0)] + math.log(EPS0)).diff_ln(schedule[(0, 0)])
    assert d == pytest.approx(math.log(0.1))


def test_envelope(schedule):
    # ln eps <= -e^r, the decay envelope at C = 1, with r the radius of the
    # box's farthest corner
    for (i, l), th in schedule.items():
        assert th <= LogMagnitude.from_ln(-math.exp(math.hypot(2 * i + 1, l + 1.25)))


@pytest.mark.parametrize("frac", [0.001, 0.5, 0.999])
@pytest.mark.parametrize("name", ["incrementer", "right_filler", "spinner"])
def test_schedule_is_the_full_formula_to_the_ceiling(name, frac):
    # the schedule drops the min and the -1 of eps^i_l = (M/(e^{M tau} - 1))
    # * min(eps/2, A_{i,l+1}/8): at every box up to the deepest level the
    # height budget admits, A/8 is the min and M tau is past 1e6
    l_max = height_ceiling(frac) - 2
    check_height_budget(2, l_max, frac)
    with pytest.raises(ValueError):
        check_height_budget(2, l_max + 1, frac)
    fs = FieldSpec(load_machine(MACHINES / f"{name}.tm"), 2, l_max, lambda_frac=frac)
    M = derivative_bound(fs)
    schedule = error_schedule(fs)
    assert sorted(schedule) == [(i, l) for i in range(2) for l in range(l_max + 1)]
    for (i, l), th in schedule.items():
        mt = M * crossing_time(fs, i, l)
        a = interval_bound_log(fs.machine.m, i, l + 1)
        assert mt > 1e6 and a - math.log(8.0) < math.log(RAMP_EPS / 2), (i, l)
        with mp.workdps(60):  # M tau is a double; its log(expm1) is within e^-1e6 of it
            growth = mp.log(mp.expm1(mt))
        with mp.workdps(len(str(abs(th.fix))) + 20):
            ln_a = mp.mpf(a.fix) / FIX + a.off
            ref = min(mp.log(mp.mpf(RAMP_EPS) / 2), ln_a - mp.log(8)) + mp.log(M) - growth
            assert abs(mp.mpf(th.fix) / FIX + th.off - ref) < 1e-9, (i, l)


def _jacobian_norms(fs, x, y, h=1e-5):
    """Central-difference Jacobian norm of the plane field at each point: the
    reference that `derivative_bound` must bound from above."""
    vx, vy = field_eval_plane(fs, np.array([x + h, x - h, x, x]), np.array([y, y, y + h, y - h]))
    j = np.array([[vx[0] - vx[1], vx[2] - vx[3]],
                  [vy[0] - vy[1], vy[2] - vy[3]]]) / (2 * h)
    return np.linalg.norm(j, 2, axis=(0, 1))


def test_box_derivative_bound_finite():
    # S1 = sup |(t chi)'| = 4.07727 dominates; the lambda-sized terms add
    # little even at the fastest admissible speed
    machine = make_machine(2, lambda d: d, 0)
    for frac in (0.01, 0.5, 0.99):
        M = derivative_bound(FieldSpec(machine, 1, 2, lambda_frac=frac))
        assert 4.07727 < M < 4.49


BOUND_MACHINES = [load_machine(str(MACHINES / f"{name}.tm"))
                  for name in ("incrementer", "right_filler", "spinner")]
BOUND_MACHINES += [random_machine(seed) for seed in range(300, 304)]


@pytest.mark.parametrize("machine", BOUND_MACHINES, ids=lambda m: m.name)
def test_derivative_bound_holds_on_the_peak_shell(machine):
    # |(t chi)'| peaks at |rho| = 0.656 RHO0, in a shell thinner than a
    # 25 x 25 grid's spacing (which read M = 1.0000 here): draw most points
    # there, the rest anywhere inside the cutoff, along every box's arc
    fs = FieldSpec(machine, n_bands=2, l_max=9)
    M = derivative_bound(fs)
    rng = np.random.default_rng(13)
    sup = 0.0
    for i in range(fs.n_bands):
        heights = fs.curve(i).arc_heights
        for l in range(fs.l_max + 1 - i):
            s = rng.uniform(heights[l], heights[l + 1], 160)
            t = np.concatenate([rng.uniform(0.62, 0.69, 120), rng.uniform(0.0, 1.0, 40)])
            rho = RHO0 * t * rng.choice([-1.0, 1.0], 160)
            x, y = fs.chart(i).chart_to_plane(s, rho)
            sup = max(sup, float(np.max(_jacobian_norms(fs, x, y))))
    assert 4.077 < sup <= M <= 4.49


def test_error_schedule_locates_no_plane_point(monkeypatch):
    from flowcomp import field

    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return _locate(*args)

    monkeypatch.setattr(field, "_locate", counted)
    fs = FieldSpec(load_machine(str(MACHINES / "right_filler.tm")), n_bands=2, l_max=6)
    assert sorted(error_schedule(fs)) == [(i, l) for i in range(2) for l in range(7)]
    assert calls == []


@pytest.mark.parametrize("name", ["incrementer", "right_filler"])
def test_box_derivative_bound_on_a_fine_grid(name):
    # far points once reached the charts at wrong feet, and the field jumped
    # there: the sampled norm at n = 200 read 879.3 and 1,153.1
    fs = FieldSpec(load_machine(str(MACHINES / f"{name}.tm")), n_bands=1, l_max=9)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 200), np.linspace(-0.25, 1.25, 200))
    assert np.max(_jacobian_norms(fs, x, y)) <= derivative_bound(fs)
