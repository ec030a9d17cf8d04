"""Acceptance gate: one test per criterion, one printed verdict line each.

Criterion 1 gates on the properties of the prime-power interval encoding
that the verifier relies on: exact widths, injectivity, exact log forms,
intervals inside (0, 1), and widths at least the bound A_{i,l} on every
level of the acceptance machines.  It reports, without gating, how far the
encoding is from global disjointness, which is false for it (neighboring
intervals overlap and points crowd within factors of 2) and which the
verifier never uses: a crossing is compared only with the box of the
configuration its own curve carries at that band and height.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from flowcomp.beltrami import Poly2, beltrami_from_potential, residuals
from flowcomp.curves import RAMP_EPS, CurveFamily, bump_profile, interval_bound_log
from flowcomp.field import (
    LAMBDA0,
    FieldSpec,
    contraction_speed_limit,
    error_schedule,
    verify_gradient,
)
from flowcomp.logmag import LN2_FIX, LogMagnitude
from flowcomp.machine import (
    Configuration,
    EncodedPoint,
    Halted,
    MachineSpec,
    OutOfMemory,
    TapeBoundedSpec,
    encode,
    enumerate_inputs,
    interval_of,
    run,
    run_bounded,
    trajectory,
)
from flowcomp.robust import (
    contraction_check,
    resource_estimate,
    sample_perturbation,
    space_bound_of_norm,
)
from flowcomp.simulate import (
    HaltingSetSpec,
    simulate_bounded,
    simulate_input,
)
from flowcomp.sphere import delta_threshold, discrete_orbit_verdict


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def uniform_machine(name, q2, out_digit_of, shift):
    return MachineSpec(name, 2, 1, 2,
                       {(1, d): (q2, out_digit_of(d), shift) for d in range(10)})


INCREMENTER = uniform_machine("incrementer", 2, lambda d: (d + 1) % 10, 0)
SPINNER = uniform_machine("spinner", 1, lambda d: d, 0)
RIGHT_FILLER = uniform_machine("right_filler", 1, lambda d: 9, 1)

MACHINES = (INCREMENTER, SPINNER, RIGHT_FILLER)
N_INPUTS = 5
L_MAX = 20
WINDOW = 25.0


class Case:
    """One machine/input pair of the oracle-equivalence suite."""

    def __init__(self, fs, machine, index, config):
        self.fs = fs
        self.machine = machine
        self.index = index
        self.config = config
        self.oracle = run(machine, config, L_MAX)
        if isinstance(self.oracle, Halted):
            digits = {0: self.oracle.config.digit(0)}
        else:
            digits = {0: 0}
        self.constraint = HaltingSetSpec.from_digits(machine.q_halt, digits)
        self.verdict, self.hit, self.traj = simulate_input(
            fs, index, self.constraint, L_MAX)


@pytest.fixture(scope="module")
def suite():
    cases = []
    for machine in MACHINES:
        # budget one height past the escape window so bounded runs of the
        # looping machine can actually leave it
        fs = FieldSpec(machine, n_bands=N_INPUTS, l_max=int(WINDOW) + 3)
        for index, config, _ in enumerate_inputs(machine, N_INPUTS):
            cases.append(Case(fs, machine, index, config))
    return cases


# ---------------------------------------------------------------------------


def _ln_fraction(a: Fraction) -> float:
    return math.log(a.numerator) - math.log(a.denominator)


def test_criterion_01_encoding_soundness():
    t0 = time.time()
    bound = 10**6
    points = []
    q = 1
    while 2**q <= bound:
        r = 0
        while 2**q * 3**r <= bound:
            s = 0
            while 2**q * 3**r * 5**s <= bound:
                n = 2**q * 3**r * 5**s
                points.append((Fraction(1, n), q, r, s))
                s += 1
            r += 1
        q += 1
    width_ok = all(
        (a + a / 32) - (a - a / 32) == Fraction(1, 2 ** (q + 4) * 3**r * 5**s)
        for a, q, r, s in points
    )
    injective = len({p[0] for p in points}) == len(points)
    # classification compares ln|rho| with these log forms
    log_forms_ok = all(
        abs(EncodedPoint(q, r, s).ln_value().ln() - _ln_fraction(a)) < 1e-12
        and abs(EncodedPoint(q, r, s).ln_half_width().ln() - _ln_fraction(a / 32)) < 1e-12
        for a, q, r, s in points
    )
    # inside (0, 1), so the translated boxes of different bands are disjoint
    inside_ok = all(
        2 * band < lo and hi < 2 * band + 1
        for _, q, r, s in points
        for band in range(6)
        for lo, hi in [interval_of(EncodedPoint(q, r, s), band)]
    )
    # the full width of the configuration at (i, l) is at least A_{i,l}: the
    # error schedule and the confinement bound of criteria 5 and 7 rest on it
    ln2 = LogMagnitude(LN2_FIX, 0.0)
    level_margins = []
    for machine in MACHINES:
        for band, config, _ in enumerate_inputs(machine, 6):
            for l, c in enumerate(trajectory(machine, config, L_MAX)):
                width = encode(c).ln_half_width() + ln2
                level_margins.append(
                    width.diff_ln(interval_bound_log(machine.m, band, l)))
    levels_ok = min(level_margins) >= 0.0
    points.sort()
    overlaps = sum(
        1 for (a, *_), (b, *_) in zip(points, points[1:])
        if a + a / 32 > b - b / 32
    )
    gap_violations = 0
    values = [p[0] for p in points]
    for i, a in enumerate(values):
        for b in values[max(0, i - 64):i + 64]:
            if b != a and a / 2 < b < 2 * a:
                gap_violations += 1
                break
    elapsed = time.time() - t0
    ok = (width_ok and injective and log_forms_ok and inside_ok and levels_ok
          and elapsed < 5.0)
    report(1, "encoding soundness", ok,
           f"{len(points)} points, width exact: {width_ok}, injective: "
           f"{injective}, log forms exact: {log_forms_ok}, inside (0, 1): "
           f"{inside_ok}; width >= A_(i,l) at {len(level_margins)} levels of "
           f"3 machines x 6 bands: {levels_ok} (least margin "
           f"{min(level_margins):.1f} nats), {elapsed:.2f}s [not gated: "
           f"{overlaps} overlapping neighbor pairs and {gap_violations} "
           "factor-2 exclusion violations; global disjointness is false for "
           "this encoding (1/16 lies between 1/48 and 1/12, the intervals of "
           "1/4050 and 1/4096 overlap) and the verifier never uses it: a "
           "crossing is compared only with the box of its own curve's "
           "configuration]")


def test_criterion_02_quadrature_facts():
    t0 = time.time()
    bp = bump_profile()
    ok = (bp.full_integral > 7e-3
          and bp.sup_expression < 1e-1
          and bp.quad_error <= 1e-8
          and time.time() - t0 < 1.0)
    report(2, "quadrature facts", ok,
           f"integral {bp.full_integral:.9f} > 7e-3, sup {bp.sup_expression:.6f}"
           f" < 0.1, quadrature error {bp.quad_error:.2e} <= 1e-8")


def test_criterion_03_curvature_bound():
    t0 = time.time()
    worst = 0.0
    for machine in MACHINES:
        for band in range(6):
            curve = CurveFamily(machine, band, L_MAX)
            for l in range(L_MAX + 1):
                u = np.linspace(l, l + 1, 10_000)
                worst = max(worst, float(np.max(np.abs(curve.curvature(u)))))
    elapsed = time.time() - t0
    ok = worst < 15.0 and elapsed < 30.0
    report(3, "curvature bound", ok,
           f"max |curvature| {worst:.4f} < 15 over 3 machines x 6 bands x "
           f"{L_MAX + 1} segments, {elapsed:.1f}s")


def test_criterion_04_gradient_identity():
    fs = FieldSpec(INCREMENTER, n_bands=3, l_max=6)
    rep = verify_gradient(fs, samples=1000, seed=0)
    ok = rep["max_rel_error"] < 1e-6
    report(4, "gradient identity", ok,
           f"max relative error {rep['max_rel_error']:.3e} < 1e-6 "
           f"at {rep['samples']} in-band points")


def test_criterion_05_contraction_certificate():
    rng = np.random.default_rng(5)
    worst = math.inf
    for _ in range(100):
        band = int(rng.integers(0, 21))
        height = int(rng.integers(0, 21 - band))
        j = int(rng.integers(1, 9))
        lam = 0.5 * contraction_speed_limit(band + height)
        rep = contraction_check(INCREMENTER, lam, band, height, j)
        assert rep["ok"], (band, height, j)
        worst = min(worst, rep["worst_margin"])
    negative = contraction_check(INCREMENTER, 100.0 * LAMBDA0, 0, 1, 1)
    ok = worst > 0.0 and not negative["ok"]
    report(5, "contraction certificate", ok,
           f"100 random (band, height, halving) cases pass, worst margin "
           f"{worst:.3e} nats; negative test at 100x the base speed fails "
           f"as expected (margin {negative['worst_margin']:.1f})")


def _bounded_spec(machine):
    return TapeBoundedSpec(machine, -1, 1) if machine is RIGHT_FILLER \
        else TapeBoundedSpec(machine, -2, 2)


def test_criterion_06_oracle_equivalence(suite):
    t0 = time.time()
    mismatches = []
    for case in suite:
        if case.verdict != case.oracle or case.hit != isinstance(case.oracle, Halted):
            mismatches.append((case.machine.name, case.index, "input"))
        bounded = _bounded_spec(case.machine)
        got = simulate_bounded(case.fs, bounded, case.index, int(WINDOW) + 2, WINDOW)
        oracle = run_bounded(bounded, case.config, 500)
        if got != oracle:
            mismatches.append((case.machine.name, case.index, "bounded"))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 120.0
    report(6, "oracle equivalence", ok,
           f"3 machines x {N_INPUTS} inputs, height budget {L_MAX}, window "
           f"{WINDOW:g}: 0 mismatches, {elapsed:.1f}s"
           if ok else f"mismatches: {mismatches}, {elapsed:.1f}s")


def test_criterion_07_perturbation_robustness(suite):
    t0 = time.time()
    changed = []
    unconfined = 0
    for case in suite:
        schedule = error_schedule(case.fs)
        base = (case.verdict, case.hit)
        for trial in range(20):
            pert = sample_perturbation(schedule, 10_000 + 100 * trial + case.index)
            verdict, hit, traj = simulate_input(
                case.fs, case.index, case.constraint, L_MAX, perturbation=pert)
            if (verdict, hit) != base:
                changed.append((case.machine.name, case.index, trial))
            quarter = LogMagnitude(2 * LN2_FIX, 0.0)
            for e in traj.events:
                bound = interval_bound_log(case.machine.m, e.band, e.height) - quarter
                if e.rho_sign != 0 and e.rho_ln.diff_ln(bound) >= 0.0:
                    unconfined += 1
    elapsed = time.time() - t0
    ok = not changed and unconfined == 0
    report(7, "perturbation robustness", ok,
           f"20 scheduled perturbations per case: {len(changed)} verdict "
           f"changes, {unconfined} crossings outside the quarter-interval "
           f"confinement bound, {elapsed:.0f}s "
           "[each level runs at half its contraction speed limit, so the "
           "normal coordinate decays by more than the bound's drop of "
           "15^(9*10^(band+height+1)) per height, and each box forces it by "
           "at most its scheduled amplitude, below A_(i,l+1)/8]")


def test_criterion_08_set_to_set_starts(suite):
    t0 = time.time()
    rng = np.random.default_rng(8)
    disagreements = []
    for case in suite:
        alpha = 2.0 ** -case.machine.q0 * 3.0 ** -case.config.r \
            * 5.0 ** -case.config.s
        radius = alpha / 128.0  # quarter of the encoded interval
        for trial in range(10):
            start = (float(rng.uniform(-RAMP_EPS / 2, RAMP_EPS / 2)),
                     float(rng.uniform(-radius, radius)))
            _, hit, _ = simulate_input(case.fs, case.index, case.constraint,
                                       L_MAX, start=start)
            if hit != case.hit:
                disagreements.append((case.machine.name, case.index, trial))
    elapsed = time.time() - t0
    ok = not disagreements
    report(8, "set-to-set start robustness", ok,
           f"10 random starts in quarter-interval x half-eps strip per case: "
           f"{len(disagreements)} hit-flag disagreements, {elapsed:.0f}s")


def test_criterion_09_cauchy_kovalevskaya_lift():
    t0 = time.time()
    X = Poly2.variable("x")
    Y = Poly2.variable("y")
    rng = np.random.default_rng(9)
    rand4 = Poly2({(i, j): Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
                   for i in range(5) for j in range(5 - i)})
    all_exact = True
    for F in (Poly2.zero(), X, X * Y, rand4):
        v, u = beltrami_from_potential(F, 1, K=20)
        rep = residuals(u, v, F, 1)
        all_exact &= (rep["curl_residual_order"] is None
                      and rep["div_residual_order"] is None
                      and rep["plane_restriction_ok"])
    _, u = beltrami_from_potential(X, 1, K=20)
    g = np.linspace(-1.0, 1.0, 21)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    ux, uy, uz = u.evaluate(xx, yy, zz)
    grid_err = max(float(np.max(np.abs(ux - np.cos(zz)))),
                   float(np.max(np.abs(uy + np.sin(zz)))),
                   float(np.max(np.abs(uz))))
    elapsed = time.time() - t0
    ok = all_exact and grid_err < 1e-12 and elapsed < 30.0
    report(9, "series lift", ok,
           f"4 planar data: residuals vanish through order 18 exactly, "
           f"plane restriction exact; closed-form grid error {grid_err:.2e} "
           f"< 1e-12, {elapsed:.1f}s")


def test_criterion_10_sphere_time_delta_map(suite):
    t0 = time.time()
    mismatches = []
    gaps = 0
    for case in suite:
        delta = delta_threshold(case.fs.lam) / 2.0
        verdict, hit, orbit = discrete_orbit_verdict(
            case.fs, case.index, case.constraint, delta, L_MAX)
        if hit != case.hit or verdict != case.verdict:
            mismatches.append((case.machine.name, case.index))
        gaps += len(orbit.band_gaps)
    elapsed = time.time() - t0
    ok = not mismatches and gaps == 0
    report(10, "sphere time-delta map", ok,
           f"step at half the threshold: {len(mismatches)} flag mismatches, "
           f"{gaps} height bands skipped by the orbit, {elapsed:.0f}s")


def test_criterion_11_resource_estimator():
    est1 = resource_estimate(1.0, 1.0)
    # at C = 1, s_b = 1 the nested form collapses to ln ln H1 = e exactly
    forms_ok = (est1.lnln_h1() == math.e
                and est1.ln_eps.fix == -est1.ln_h1.fix
                and est1.ln_eps.off == est1.ln_h1.off == 0.0)
    fixes = [resource_estimate(float(sb)).ln_h1.fix for sb in range(1, 9)]
    monotone = all(a < b for a, b in zip(fixes, fixes[1:]))
    round_trip = abs(space_bound_of_norm(resource_estimate(3.0).ln_h1) - 3.0) < 1e-9
    ok = forms_ok and monotone and round_trip
    report(11, "resource estimator", ok,
           f"nested form exact at unit arguments (ln ln bound = e), threshold "
           f"and norm bound are exact mirrors, strictly monotone over space "
           f"bounds 1..8, inverse round-trip error < 1e-9")
