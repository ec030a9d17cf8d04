import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from flowcomp import robust
from flowcomp.curves import RAMP_EPS, CurveFamily, interval_bound_log
from flowcomp.field import LAMBDA0, FieldSpec, contraction_speed_limit, error_schedule
from flowcomp.logmag import LN2_FIX, LogMagnitude
from flowcomp.machine import MachineSpec, TapeBoundedSpec, load_machine
from flowcomp.robust import (
    PerturbationSpec,
    contraction_check,
    resource_estimate,
    sample_perturbation,
    space_bound_of_norm,
)
from flowcomp.simulate import (
    HaltingSetSpec,
    _sample_grid,
    integrate_chart,
    integrate_segment,
    simulate_bounded,
    simulate_input,
)

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def mk(q2, f, shift, name):
    return MachineSpec(name, 2, 1, 2, {(1, d): (q2, f(d), shift) for d in range(10)})


@pytest.fixture(scope="module")
def incrementer():
    return mk(2, lambda d: (d + 1) % 10, 0, "inc")


@pytest.fixture(scope="module")
def fs(incrementer):
    return FieldSpec(incrementer, n_bands=2, l_max=5)


@pytest.fixture(scope="module")
def schedule(fs):
    return error_schedule(fs)


# -- perturbations ----------------------------------------------------------


def test_amplitudes_below_caps(schedule):
    p = sample_perturbation(schedule, seed=1)
    for key, bump in p.bumps.items():
        assert bump.amplitude <= schedule.cap(*key)


def test_sup_norm_on_box(schedule):
    p = sample_perturbation(schedule, seed=2)
    rng = np.random.default_rng(0)
    cap = schedule.cap(0, 1)
    # K box for (i, l) = (0, 1) spans [0, 1] x [3/4, 9/4]
    for _ in range(2000):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.75, 2.25))
        assert p.magnitude(x, y) <= cap


def test_support_restricted(schedule):
    p = sample_perturbation(schedule, seed=3)
    # bump (0, 1) lives on (-1/4, 3/4) x (5/4, 7/4)
    for x, y in ((-0.3, 1.5), (0.25, 1.1), (0.8, 1.5), (1.5, 1.5)):
        assert p.magnitude(x, y).is_zero
    assert not p.magnitude(0.25, 1.5).is_zero
    # the support covers [0, 1/2], where every encoded value of band 0 lies
    assert not p.magnitude(0.0, 1.5).is_zero
    assert not p.magnitude(0.5, 1.5).is_zero


def test_seeds_differ(schedule):
    a = sample_perturbation(schedule, seed=1)
    b = sample_perturbation(schedule, seed=2)
    assert any(
        a.bumps[k].amplitude.diff_ln(b.bumps[k].amplitude) != 0.0 for k in a.bumps
    )


def test_deterministic_per_seed(schedule):
    a = sample_perturbation(schedule, seed=9)
    b = sample_perturbation(schedule, seed=9)
    assert all(
        a.bumps[k].amplitude.diff_ln(b.bumps[k].amplitude) == 0.0
        and a.bumps[k].sign == b.bumps[k].sign
        for k in a.bumps
    )


def test_verdict_stable_under_perturbation(fs, schedule):
    hs = HaltingSetSpec.from_digits(2, {0: 1})
    base, base_hit, _ = simulate_input(fs, 0, hs, 5)
    for seed in range(5):
        p = sample_perturbation(schedule, seed)
        v, hit, traj = simulate_input(fs, 0, hs, 5, perturbation=p)
        assert (v.kind, hit) == (base.kind, base_hit)
        # confinement: every crossing well inside the quarter-interval bound
        for e in traj.events:
            if e.rho_sign == 0:
                continue
            bound = interval_bound_log(fs.machine.m, 0, e.height) - LogMagnitude(
                2 * LN2_FIX, 0.0
            )
            assert e.rho_ln < bound


def _mp_forced_rho(fs, band, l, bump):
    """(sign, ln|rho|) bump (band, l) forces at anchor l + 1, by mpmath.

    Integrates amplitude * shape * (dir . n) * e^{-(t1 - t)} dt in arc length
    over the support, with t1 - t the integral of 1/lambda_i(s) from s to
    the anchor, both by tanh-sinh quadrature at 30 digits.  The integrand's
    peak is found by its own ternary search and given as a breakpoint.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 30
    curve, speed = fs.curve(band), fs.speed(band)
    lam = fs.level_speed(band, l)
    s_lo = float(curve.arclength_of_param(l + 0.25))
    s_top = float(curve.arclength_of_param(l + 0.75))
    s_end = float(curve.arc_heights[l + 1])
    t_top = mp.quad(lambda s: 1 / mp.mpf(float(speed(float(s)))),
                    [s_top, s_end - RAMP_EPS, s_end])

    def ln_shape_and_dot(s):
        u = float(curve.param_of_arclength(float(s)))
        x, d1, _ = curve.lambda_eval(u)
        dot = (bump.direction[1] * d1 - bump.direction[0]) / math.sqrt(1 + d1 * d1)
        tx = mp.mpf(x) - 2 * band + mp.mpf(1) / 4
        ty = 2 * (mp.mpf(u) - l - mp.mpf(1) / 4)
        if not 0 < ty < 1:
            return -mp.inf, dot
        return 2 - 1 / (4 * tx * (1 - tx)) - 1 / (4 * ty * (1 - ty)), dot

    def integrand(s):
        ln_shape, dot = ln_shape_and_dot(s)
        return dot * mp.exp(ln_shape - (s_top - s) / lam) / lam

    def ln_kernel(s):
        return ln_shape_and_dot(s)[0] - (s_top - s) / lam

    lo, hi = mp.mpf(s_lo + s_top) / 2, mp.mpf(s_top) - mp.mpf(10) ** -14
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (a, hi) if ln_kernel(a) < ln_kernel(b) else (lo, b)
    peak = float(lo + hi) / 2
    d = s_top - peak
    points = sorted({s_lo, s_top, *(min(max(peak + k * d, s_lo), s_top)
                                    for k in (-3, -1, -0.3, -0.1, -0.03, 0, 0.03, 0.1, 0.3))})
    total = mp.quad(integrand, points)
    sign = bump.sign * (1 if total > 0 else -1)
    return sign, bump.amplitude.ln() + float(mp.log(abs(total)) - t_top)


def test_forcing_matches_mpmath_at_height_1(fs, schedule):
    p = sample_perturbation(schedule, seed=3)
    ev, _ = next(integrate_chart(fs, 0, (0.0, 0.0), p, 1))
    sign, ln_rho = _mp_forced_rho(fs, 0, 0, p.bumps[(0, 0)])
    assert ev.rho_sign == sign
    assert ev.rho_ln.ln() == pytest.approx(ln_rho, abs=0.01)


def test_forcing_matches_mpmath_at_level_5(fs, schedule):
    # from anchor 5 to anchor 6 only bump (0, 5) acts; its peak sits ~1e-5
    # below the support's edge and the forced rho is ~e^(-6.6e10)
    p = sample_perturbation(schedule, seed=3)
    a, b = (float(s) for s in fs.curve(0).arc_heights[5:7])
    grid = _sample_grid(a, b)
    _, (rho_sign, rho_ln), _ = integrate_segment(fs, 0, 6, a, 0.0, (0, LogMagnitude.zero()),
                                                 p, (grid, fs.speed(0).time(a, grid)))
    sign, ln_rho = _mp_forced_rho(fs, 0, 5, p.bumps[(0, 5)])
    assert rho_sign == sign
    assert rho_ln.ln() == pytest.approx(ln_rho, abs=0.01)


def test_perturbed_run_makes_no_arc_length_inversion(fs, schedule, monkeypatch):
    # each segment ends at an anchor, where the curve parameter is the height
    p = sample_perturbation(schedule, seed=3)
    calls = []
    invert = CurveFamily.param_of_arclength

    def counted(self, s):
        calls.append(s)
        return invert(self, s)

    monkeypatch.setattr(CurveFamily, "param_of_arclength", counted)
    _, _, traj = simulate_input(fs, 0, None, 5, perturbation=p)
    assert traj.events[0].rho_sign != 0 and calls == []


# sha256 of every forced crossing (t, rho sign, ln|rho| fixed and float
# parts) of the incrementer and right_filler, 2 bands, l_max 6, seeds 0-4
FORCED_CROSSINGS_SHA256 = "2d250d22e8d99b17f400bbcbebe9def93e4a9b0709427ae6b981cf7ccc170c2b"


def test_forced_crossings_are_pinned(incrementer):
    rows = []
    for m in (incrementer, mk(1, lambda d: 9, 1, "fill")):
        fs6 = FieldSpec(m, n_bands=2, l_max=6)
        sched = error_schedule(fs6)
        for seed in range(5):
            p = sample_perturbation(sched, seed)
            for band in range(2):
                rows += [f"{e.t!r} {e.rho_sign} {e.rho_ln.fix} {e.rho_ln.off!r}"
                         for e, _ in integrate_chart(fs6, band, (0.0, 0.0), p, 6)]
    assert len(rows) == 2 * 5 * 2 * 6
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == FORCED_CROSSINGS_SHA256


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_forcing_converges_in_its_window(incrementer, frac, monkeypatch):
    # every box of bands 0-2 up to band + height 11: the 401-point window
    # against 3,201 points on a wider one (half-width 20 peak widths)
    fs3 = FieldSpec(incrementer, n_bands=3, l_max=11, lambda_frac=frac)
    sched = error_schedule(fs3)
    perts = [sample_perturbation(sched, seed) for seed in range(3)]
    keys = sorted(sched.thresholds)
    coarse = [p.forcing(fs3, *key) for p in perts for key in keys]
    monkeypatch.setattr(robust, "_FORCING_POINTS", 3201)
    monkeypatch.setattr(robust, "_FORCING_HALF_WIDTH", 20.0)
    fine = [p.forcing(fs3, *key) for p in perts for key in keys]
    for (sign, ln_rho), (fine_sign, fine_ln) in zip(coarse, fine):
        assert sign == fine_sign != 0
        assert abs(ln_rho.diff_ln(fine_ln)) < 5e-9


def test_bounded_verdict_stable_under_perturbation():
    # HALTED (incrementer), OOM (right_filler) and LOOP (spinner) verdicts
    for name in ("incrementer", "right_filler", "spinner"):
        machine = load_machine(MACHINES / f"{name}.tm")
        fs3 = FieldSpec(machine, n_bands=3, l_max=12)
        sched = error_schedule(fs3)
        perts = [sample_perturbation(sched, seed) for seed in range(5)]
        for bounds in ((-2, 2), (-1, 1), (-3, 5)):
            bounded = TapeBoundedSpec(machine, *bounds)
            for index in range(3):
                base = simulate_bounded(fs3, bounded, index, 12, 10.0)
                for p in perts:
                    got = simulate_bounded(fs3, bounded, index, 12, 10.0, perturbation=p)
                    assert got == base, (name, bounds, index, p.seed)


# -- contraction ------------------------------------------------------------


def test_contraction_passes_below_speed_limit(incrementer):
    lim = contraction_speed_limit(incrementer.m, 0, 0)
    rep = contraction_check(incrementer, lam=0.5 * lim, band=0, height=0, j=1)
    assert rep["ok"] and rep["worst_margin"] > 0.0


def test_contraction_fails_at_large_speed(incrementer):
    rep = contraction_check(incrementer, lam=100 * LAMBDA0, band=0, height=0, j=1)
    assert not rep["ok"] and rep["worst_margin"] < 0.0


def test_contraction_deep_level(incrementer):
    # the admissible speed shrinks double-exponentially with the level
    lim = contraction_speed_limit(incrementer.m, 1, 4)
    assert lim < contraction_speed_limit(incrementer.m, 0, 0)
    rep = contraction_check(incrementer, lam=0.5 * lim, band=1, height=4, j=2)
    assert rep["ok"]


def test_contraction_rejects_bad_j(incrementer):
    with pytest.raises(ValueError):
        contraction_check(incrementer, lam=1e-5, band=0, height=0, j=0)


# -- resource estimates -----------------------------------------------------


def test_resource_nested_forms():
    r = resource_estimate(1.0, 1.0)
    assert r.lnln_h1() == pytest.approx(math.e, abs=1e-12)
    # ln eps = ln C - e^{e^{C s_b}}: fixed part is the double exponential
    assert r.ln_eps.fix == -r.ln_h1.fix
    assert r.ln_eps.ln() == pytest.approx(-math.exp(math.e), rel=1e-12)


def test_resource_monotone():
    rs = [resource_estimate(s, 1.0) for s in (1.0, 2.0, 3.0, 5.0)]
    for a, b in zip(rs, rs[1:]):
        assert b.ln_h1 > a.ln_h1
        assert b.ln_eps < a.ln_eps


def test_resource_inverse_reading():
    r = resource_estimate(4.0, 1.5)
    assert space_bound_of_norm(r.ln_h1, 1.5) == pytest.approx(4.0, rel=1e-9)


def test_resource_domain():
    with pytest.raises(ValueError):
        resource_estimate(0.5, 1.0)
    with pytest.raises(OverflowError):
        resource_estimate(20.0, 1.0)


def test_resource_estimate_keeps_decimal_precision():
    import decimal

    prec = decimal.getcontext().prec
    resource_estimate(5.0).ln_h1.fix  # the exact integer is built on first read
    assert decimal.getcontext().prec == prec


def test_resource_huge_but_exact(estimate_sb10):
    # e^{C s_b} ~ 22026: the double exponential has ~9600 digits, kept exact
    r = estimate_sb10
    assert r.ln_h1.fix > 10 ** 9500
    assert space_bound_of_norm(r.ln_h1, 1.0) == pytest.approx(10.0, rel=1e-12)


def exact_digits(d, fix):
    return 10 ** (d - 1) <= fix < 10**d


def test_digit_count_from_inner_matches_the_exact_integer(estimate_sb10):
    rng = np.random.default_rng(20261018)
    cases = [(10.0, 1.0)]
    for _ in range(30):
        s_b = float(rng.uniform(1.0, 9.0))
        cases.append((s_b, float(rng.uniform(0.01, 9.0 / s_b))))
    # the s_b = 10 integer is the shared one: same s_b, C and inner
    built = {(estimate_sb10.s_b, estimate_sb10.C): estimate_sb10}
    for s_b, C in cases:
        est = resource_estimate(s_b, C)
        digits = est.fixed_digits()
        assert "ln_h1" not in est.__dict__  # read from inner alone
        assert exact_digits(digits, built.get((s_b, C), est).ln_h1.fix), (s_b, C)


def test_digit_count_next_to_a_power_of_ten_reads_the_exact_integer():
    # inner = e^C within ~1e-13 of k ln 10 puts e^inner 10^30 on either side
    # of 10^(k+30), inside the guard, where the exact integer decides
    for k in (200, 300, 500):
        C = math.log(k * math.log(10.0))
        counts = []
        for c in (C, math.nextafter(C, 0.0)):
            est = resource_estimate(1.0, c)
            digits = est.fixed_digits()
            assert "ln_h1" in est.__dict__
            assert exact_digits(digits, est.ln_h1.fix)
            counts.append(digits)
        assert counts == [k + 31, k + 30]
