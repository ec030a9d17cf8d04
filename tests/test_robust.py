import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from flowcomp.curves import RAMP_EPS, CurveFamily, interval_bound_log
from flowcomp.field import (
    LAMBDA0,
    FieldSpec,
    contraction_speed_limit,
    error_schedule,
    height_ceiling,
)
from flowcomp.logmag import FIX, LN2_FIX, LogMagnitude
from flowcomp.machine import MachineSpec, TapeBoundedSpec, load_machine
from flowcomp.robust import (
    EPS0,
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


def bump_magnitude(p, key, x, y):
    """ln |P(x, y)| where only box `key`'s bump can reach: the forcing along
    that bump's own direction, whose dot product with it is 1."""
    return p.normal_component(x, y, *p.bumps[key].direction)[1]


def test_amplitudes_below_caps(schedule):
    p = sample_perturbation(schedule, seed=1)
    for key, bump in p.bumps.items():
        assert bump.amplitude <= schedule[key] + math.log(EPS0)


def test_sup_norm_on_box(schedule):
    p = sample_perturbation(schedule, seed=2)
    rng = np.random.default_rng(0)
    cap = schedule[(0, 1)] + math.log(EPS0)
    # K box for (i, l) = (0, 1) spans [0, 1] x [3/4, 9/4]
    for _ in range(2000):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.75, 2.25))
        assert bump_magnitude(p, (0, 1), x, y) <= cap


def test_support_restricted(schedule):
    p = sample_perturbation(schedule, seed=3)
    # bump (0, 1) lives on (-1/4, 3/4) x (5/4, 7/4)
    for x, y in ((-0.3, 1.5), (0.25, 1.1), (0.8, 1.5), (1.5, 1.5)):
        assert bump_magnitude(p, (0, 1), x, y).is_zero
    assert not bump_magnitude(p, (0, 1), 0.25, 1.5).is_zero
    # the support covers [0, 1/2], where every encoded value of band 0 lies
    assert not bump_magnitude(p, (0, 1), 0.0, 1.5).is_zero
    assert not bump_magnitude(p, (0, 1), 0.5, 1.5).is_zero


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
        assert (v, hit) == (base, base_hit)
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
        u = curve.param_of_arclength(np.array([float(s)]))
        x, d1, _ = (v[0] for v in curve.lambda_eval(u))
        u = u[0]
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
    _, (rho_sign, rho_ln), _ = integrate_segment(fs, 0, 6, 0.0, (0, LogMagnitude.zero()),
                                                 p, (grid, fs.speed(0).time(np.array([a]), grid)))
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
FORCED_CROSSINGS_SHA256 = "ff28152d9895c1c4c0014059e2b2e4992de7583460680e656c297bcfeefa9609"


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


def _mp_forcing_error(p, fs, band, l):
    """(sign, reference sign, error in nats) of `p.forcing(fs, band, l)` against
    mpmath, both less the amplitude and e^(-T_top), which they carry alike.

    The reference takes the program's floats: the level speed lam, the time
    T_top from the support's top edge to the anchor, and at the edge x and
    lambda', whose speed w is the float sqrt(1 + lambda'^2).  Below the edge,
    at depth delta, lambda' is the ramp's closed form flat(sigma(1 - sigma))
    scaled to the edge, and x and K(delta) - w delta, K the arc length, its
    integrals by 8-point Gauss-Legendre.  The integrand is
    (d_y lambda' - d_x) times both bumps times e^(-K/lam), in v = ln(delta/delta*),
    delta* = (8c)^(-1/2), c = w/lam, where the bumps' -1/(8 delta) and the
    kernel's -c delta make -z cosh v, z = sqrt(c/2): that is evaluated in mpmath,
    at 40 + (band + l)/2 digits, since z reaches 1e151.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    bump = p.bumps[(band, l)]
    sign, ln_rho = p.forcing(fs, band, l)
    curve, speed = fs.curve(band), fs.speed(band)
    u_top = l + 0.75
    x_top, slope_top, _ = (float(v[0]) for v in curve.lambda_eval(np.array([u_top])))
    t_top = float(speed.time(curve.arclength_of_param(np.array([u_top])),
                             curve.arc_heights[l + 1:l + 2])[0])
    gl_nodes, gl_weights = (a.tolist() for a in np.polynomial.legendre.leggauss(8))
    with mp.workdps(40 + (band + l) // 2):
        lam = mp.mpf(float(speed.levels[l]))
        w = mp.mpf(math.sqrt(1.0 + slope_top * slope_top))
        w_exact = mp.sqrt(1 + mp.mpf(slope_top) ** 2)
        d_x, d_y = (mp.mpf(d) for d in bump.direction)
        c = w / lam
        d_star, z = 1 / mp.sqrt(8 * c), mp.sqrt(c / 2)

        def slope(delta):
            sigma = mp.mpf(3) / 4 - delta
            return slope_top * mp.exp(mp.mpf(16) / 3 - 1 / (sigma * (1 - sigma)))

        def integrand(v):
            delta = d_star * mp.exp(v)
            x, arc = mp.mpf(x_top), mp.mpf(0)  # x and K - w delta
            for node, weight in zip(gl_nodes, gl_weights) if slope_top else ():
                d1 = slope(delta * (1 + mp.mpf(node)) / 2)
                x -= delta / 2 * weight * d1
                arc += delta / 2 * weight * (mp.sqrt(1 + d1 * d1) - w_exact)
            t = x - 2 * band + mp.mpf(1) / 4
            e = (mp.mpf(7) / 4 - 1 / (4 * t * (1 - t)) - delta / (2 * (1 - 2 * delta))
                 - arc / lam - 2 * z * mp.sinh(v / 2) ** 2)
            return (d_y * slope(delta) - d_x) * mp.exp(e + v)

        # out to e^-50 of the peak; tanh-sinh drops terms below 10^-dps, so
        # the integrand is kept near 1 and delta*, e^-z and the width outside
        width = 2 * mp.asinh(mp.sqrt(50 / z))
        top = min(width, -mp.log(2 * d_star))  # delta <= 1/2
        total = mp.quad(lambda r: integrand(width * r), [-1, top / width])
        ref = mp.log(width * d_star * abs(total)) - z - mp.log(lam)
        rest = ln_rho - bump.amplitude + LogMagnitude.fixed(t_top)
        err = float(mp.mpf(rest.fix) / FIX + rest.off - ref)
    return sign, bump.sign * (1 if total > 0 else -1), err


@pytest.mark.parametrize("frac", [0.5, 0.1])
def test_forcing_matches_mpmath_on_a_vertical_curve_to_the_ceiling(frac):
    # the spinner's band-0 curve is vertical: lambda' = 0 and K(delta) = delta
    fs1 = FieldSpec(load_machine(MACHINES / "spinner.tm"), n_bands=1, l_max=301,
                    lambda_frac=frac)
    p = sample_perturbation(error_schedule(fs1), seed=0)
    for l in (0, 12, 26, 50, 150, 300):
        sign, ref_sign, err = _mp_forcing_error(p, fs1, 0, l)
        assert sign == ref_sign != 0 and abs(err) < 1e-9, (l, err)


def test_forcing_matches_mpmath_on_a_moving_curve():
    # two states taking turns on a blank tape: lambda' = -+0.17 on band 0 and
    # -+0.057 on band 1 at every support's top edge
    alt = MachineSpec("alt", 3, 1, 3, {(q, d): (3 - q, d, 0) for q in (1, 2) for d in range(10)})
    fs2 = FieldSpec(alt, n_bands=2, l_max=40)
    assert abs(fs2.curve(0).lambda_eval(np.array([40.75]))[1][0]) == pytest.approx(0.1717, abs=1e-4)
    p = sample_perturbation(error_schedule(fs2), seed=1)
    for band, l in ((0, 0), (0, 3), (1, 12), (0, 40)):
        sign, ref_sign, err = _mp_forcing_error(p, fs2, band, l)
        assert sign == ref_sign != 0 and abs(err) < 1e-9, (band, l, err)


def test_every_box_forces_up_to_the_float_ceiling():
    # bands 0-2 of right_filler, every box up to band + height 299
    fs3 = FieldSpec(load_machine(MACHINES / "right_filler.tm"), n_bands=3,
                    l_max=height_ceiling(0.5) - 3)
    p = sample_perturbation(error_schedule(fs3), seed=0)
    for key in p.bumps:
        sign, ln_rho = p.forcing(fs3, *key)
        assert sign != 0 and not ln_rho.is_zero, key


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
    lim = contraction_speed_limit(0)
    rep = contraction_check(incrementer, lam=0.5 * lim, band=0, height=0, j=1)
    assert rep["ok"] and rep["worst_margin"] > 0.0


def test_contraction_fails_at_large_speed(incrementer):
    rep = contraction_check(incrementer, lam=100 * LAMBDA0, band=0, height=0, j=1)
    assert not rep["ok"] and rep["worst_margin"] < 0.0


def test_contraction_deep_level(incrementer):
    # the admissible speed shrinks double-exponentially with the level
    lim = contraction_speed_limit(1 + 4)
    assert lim < contraction_speed_limit(0)
    rep = contraction_check(incrementer, lam=0.5 * lim, band=1, height=4, j=2)
    assert rep["ok"]


def test_contraction_rejects_bad_j(incrementer):
    with pytest.raises(ValueError):
        contraction_check(incrementer, lam=1e-5, band=0, height=0, j=0)


@pytest.mark.parametrize("lam", [0.0, -1e-5, math.nan, math.inf])
def test_contraction_rejects_a_speed_not_positive_and_finite(incrementer, lam):
    with pytest.raises(ValueError):
        contraction_check(incrementer, lam=lam, band=0, height=0, j=1)


# (band, height, j, speed): below the speed limit at levels 0 and 5, and the
# failing case at 100 times the base speed
CONTRACTION_CASES = pytest.mark.parametrize("band, height, j, lam", [
    (0, 0, 1, 0.5 * contraction_speed_limit(0)),
    (1, 4, 2, 0.5 * contraction_speed_limit(5)),
    (0, 1, 1, 100.0 * LAMBDA0)], ids=["level0", "level5", "too_fast"])


@CONTRACTION_CASES
def test_contraction_probe_times_match_solver(incrementer, band, height, j, lam):
    # the docstring's ODE ds/dt = lam/(1 - kappa(s) rho0 e^{-t}) from s^i_l,
    # integrated for the distance travelled, each probe time an event
    from scipy.integrate import solve_ivp

    rep = contraction_check(incrementer, lam, band, height, j)
    curve = CurveFamily(incrementer, band, height + 1)
    s_lo = float(curve.arc_heights[height])
    ln_a = interval_bound_log(incrementer.m, band, height)
    rho0 = math.exp(ln_a.ln() - j * math.log(2.0))

    def rhs(t, y):
        kappa = float(curve.curvature(curve.param_of_arclength(np.array([s_lo + y[0]])))[0])
        return [lam / (1.0 - kappa * rho0 * math.exp(-t))]

    targets = [s for s, _, _ in rep["probes"]]
    events = [lambda t, y, d=s - s_lo: y[0] - d for s in targets]
    sol = solve_ivp(rhs, (0.0, 2.0 * (targets[-1] - s_lo) / lam), [0.0], events=events,
                    rtol=1e-10, atol=1e-14)
    want = [float(te[0]) for te in sol.t_events]
    got = [t for _, t, _ in rep["probes"]]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


@CONTRACTION_CASES
def test_contraction_margins_match_closed_form(incrementer, band, height, j, lam):
    # margin = ln A_{i,l+1} - (j+1) ln2 - (ln A_{i,l} - j ln2 - t), with
    # ln A_{i,l} = -(m+4) ln2 - 10^(i+l+1) ln15 in 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    m = incrementer.m

    def ln_a(level):
        return -(m + 4) * mpmath.log(2) - 10 ** (level + 1) * mpmath.log(15)

    rep = contraction_check(incrementer, lam, band, height, j)
    for _, t, margin in rep["probes"]:
        with mpmath.workdps(50):
            want = (ln_a(band + height + 1) - (j + 1) * mpmath.log(2)
                    - (ln_a(band + height) - j * mpmath.log(2) - mpmath.mpf(t)))
        assert abs(margin - want) <= 1e-13 * max(abs(want), t), (t, margin, want)
    assert rep["worst_margin"] == min(margin for _, _, margin in rep["probes"])


# -- resource estimates -----------------------------------------------------


def test_resource_nested_forms():
    r = resource_estimate(1.0, 1.0)
    assert r.lnln_h1() == pytest.approx(math.e, abs=1e-12)
    # ln eps = ln C - e^{e^{C s_b}}: fixed part is the double exponential
    assert r.ln_eps.fix == -r.ln_h1.fix
    assert r.ln_eps.ln() == pytest.approx(-math.exp(math.e), rel=1e-12)


def test_norm_bound_at_most_1_has_no_lnln():
    # C < 1 is accepted and its digits are defined, but ln C + e^(e^(C s_b)) < 0
    r = resource_estimate(1.0, 0.01)
    assert r.fixed_digits() == 31
    with pytest.raises(ValueError, match="at most 1"):
        r.lnln_h1()


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
