"""Scheduled perturbations, the contraction certificate, and the
nested-exponential resource estimator.

Perturbations are finite sums of compactly supported smooth bumps, one per
box, with amplitudes drawn below the error-schedule caps.  The amplitudes
live far below double precision, so they are carried as signed log
magnitudes; only the bump shape is evaluated in floating point.  What a bump
adds to the normal coordinate of a trajectory is its amplitude times the
closed-form kernel of its box (`FieldSpec.forcing_kernel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np

from .curves import RAMP_EPS, CurveFamily, flat, interval_bound_log
from .field import FieldSpec
from .logmag import FIX, LN2_FIX, LogMagnitude
from .machine import MachineSpec

# scale of the perturbation amplitude caps below the schedule's thresholds
EPS0 = 0.1
# contraction certificate: probes at |s - s^i_{l+1}| <= 0.9 RAMP_EPS
_CONTRACTION_PROBES = 11


def _bump01(t):
    """Smooth bump on (0, 1), peak value 1 at t = 1/2: e * flat(4t(1 - t))."""
    t = np.asarray(t, dtype=float)
    return math.e * flat(4.0 * t * (1.0 - t))


@dataclass(frozen=True)
class _BoxBump:
    sign: int
    amplitude: LogMagnitude  # ln of the bump's peak magnitude
    direction: tuple  # unit vector


class PerturbationSpec:
    """Seeded sum of per-box bumps bounded by the schedule caps.

    Each box (i, l) contributes one bump supported on
    (2i - 1/4, 2i + 3/4) x (l + 1/4, l + 3/4), so the supports are pairwise
    disjoint and the sup over any box equals that box's own amplitude.  The
    x-support covers [2i, 2i + 1/2], where every encoded value of band i
    lies, so every trajectory passes through every bump of its band, where
    the x-factor of the shape is at least e^(-1/3).
    """

    def __init__(self, schedule: dict, seed: int):
        self.seed = seed
        keys = sorted(schedule)
        # per box (amplitude fraction, sign, angle), each as low + (high - low) r,
        # which is how rng.uniform(low, high) forms it, bit for bit
        draws = np.random.default_rng(seed).random((len(keys), 3)).tolist()
        self.bumps = {}
        for key, (r_amp, r_sign, r_angle) in zip(keys, draws):
            theta = 2.0 * math.pi * r_angle
            self.bumps[key] = _BoxBump(
                1 if r_sign < 0.5 else -1,
                schedule[key] + math.log(EPS0) + math.log(1e-3 + (1.0 - 1e-3) * r_amp),
                (math.cos(theta), math.sin(theta)),
            )

    def _locate(self, x: float, y: float):
        i = int(math.floor((x + 0.25) / 2.0))
        fx = x - 2 * i
        fy = y - math.floor(y)
        if not (-0.25 < fx < 0.75 and 0.25 < fy < 0.75):
            return None
        l = int(math.floor(y))
        bump = self.bumps.get((i, l))
        if bump is None:
            return None
        shape = float(_bump01(fx + 0.25) * _bump01(2.0 * (fy - 0.25)))
        if shape <= 0.0:
            return None
        return bump, shape

    def normal_component(self, x: float, y: float, nx: float, ny: float):
        """(sign, ln|P . n|) of the forcing along a unit normal."""
        hit = self._locate(x, y)
        if hit is None:
            return 0, LogMagnitude.zero()
        bump, shape = hit
        dot = bump.direction[0] * nx + bump.direction[1] * ny
        if dot == 0.0:
            return 0, LogMagnitude.zero()
        sign = bump.sign * (1 if dot > 0 else -1)
        return sign, bump.amplitude + math.log(shape * abs(dot))

    def forcing(self, fs: FieldSpec, band: int, l: int):
        """(sign, ln|rho|) box (band, l) adds to the normal coordinate by anchor
        l + 1, on a segment that enters below the box's support: the amplitude
        times the box's closed-form kernel, `FieldSpec.forcing_kernel`."""
        bump = self.bumps.get((band, l))
        if bump is None:
            return 0, LogMagnitude.zero()
        a, b, ln_scale = fs.forcing_kernel(band, l)
        total = bump.direction[1] * a - bump.direction[0] * b
        if total == 0.0:
            return 0, LogMagnitude.zero()
        return (bump.sign * (1 if total > 0 else -1),
                bump.amplitude + ln_scale + math.log(abs(total)))


def sample_perturbation(schedule: dict, seed: int) -> PerturbationSpec:
    return PerturbationSpec(schedule, seed)


# ---------------------------------------------------------------------------
# contraction certificate


def contraction_check(machine: MachineSpec, lam: float, band: int, height: int,
                      j: int) -> dict:
    """Certify one step of the interval contraction under the chart flow.

    Starts at arc length s^i_l with ln|rho(0)| = ln A_{i,l} - j ln2 and
    flows ds/dt = lam/(1 - kappa(s) rho(t)) with the exact decay
    rho(t) = rho(0) e^{-t}.  The probe times, where |s - s^i_{l+1}| < RAMP_EPS,
    are the slowness integral (s - s^i_l)/lam: curvature moves them by less
    than |rho(0)| max|kappa| < 15 A_{i,l} < 1e-10.  At each probe the claim
    ln|rho(t)| < ln A_{i,l+1} - (j+1) ln2 is checked in exact log arithmetic.
    Returns a report with the worst margin (positive = pass).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"speed {lam} is not positive and finite")
    curve = CurveFamily(machine, band, height + 1)
    m = machine.m
    w0 = interval_bound_log(m, band, height) - LogMagnitude(j * LN2_FIX, 0.0)
    bound = interval_bound_log(m, band, height + 1) - LogMagnitude((j + 1) * LN2_FIX, 0.0)
    s_lo = float(curve.arc_heights[height])
    s_hi = float(curve.arc_heights[height + 1])
    targets = s_hi + np.linspace(-0.9 * RAMP_EPS, 0.9 * RAMP_EPS, _CONTRACTION_PROBES)
    times = (targets - s_lo) / lam
    probes = []
    worst = math.inf
    for s, t in zip(targets.tolist(), times.tolist()):
        margin = bound.diff_ln(w0 - t)  # positive iff strictly inside
        worst = min(worst, margin)
        probes.append((s, t, margin))
    return {
        "ok": worst > 0.0,
        "worst_margin": worst,
        "probes": probes,
        "lam": lam,
        "band": band,
        "height": height,
        "j": j,
    }


# ---------------------------------------------------------------------------
# resource estimator


# e^{C s_b} beyond this makes `.fix` >10^5 digits; only its exact readers pay
MAX_NESTED = 13.0
_DIGITS_GUARD = 1e-12  # digit counts this near a power of ten read `.fix`


def _exp_fix(x: float) -> int:
    """e^x * 10^30 as an exact-enough integer, x possibly in the millions."""
    with localcontext() as ctx:
        ctx.prec = int(x / math.log(10.0)) + 50
        return int(Decimal(x).exp() * FIX)


@dataclass(frozen=True)
class ResourceEstimate:
    s_b: float
    C: float
    inner: float  # e^{C s_b}

    @cached_property
    def ln_h1(self) -> LogMagnitude:  # ln of the norm bound C e^{e^{e^{C s_b}}}
        return LogMagnitude(_exp_fix(self.inner), math.log(self.C))

    @cached_property
    def ln_eps(self) -> LogMagnitude:  # ln of the threshold C e^{-e^{e^{C s_b}}}
        return LogMagnitude(-self.ln_h1.fix, self.ln_h1.off)

    def lnln_h1(self) -> float:
        """ln ln of the norm bound; exactly e^{C s_b} when C = 1.  A bound of at
        most 1, which C < 1 allows, has no ln ln: a ValueError."""
        if self.inner >= 700:
            return self.inner  # ln(lnC + e^y) -> y for huge y
        if (ln_h1 := math.log(self.C) + math.exp(self.inner)) <= 0.0:
            raise ValueError(f"the norm bound e^{ln_h1:.6g} is at most 1: it has no ln ln")
        return math.log(ln_h1)

    def fixed_digits(self) -> int:
        """Decimal digits of ln_h1.fix = floor(e^inner 10^30): floor(q) + 31
        for q = inner / ln 10 in 40 digits (Decimal(inner) is exact).  Within
        the guard of a whole number k, the exact integer is compared with
        10^(k + 30) instead."""
        with localcontext() as ctx:
            ctx.prec = 40
            q = Decimal(self.inner) / ctx.ln(10)
            k = round(q)
            if abs(q - k) > _DIGITS_GUARD:
                return int(q) + 31
        return k + 30 + (self.ln_h1.fix >= 10 ** (k + 30))


def resource_estimate(s_b: float, C: float = 1.0) -> ResourceEstimate:
    """Nested-exponential cost of simulating a space bound s_b.

    ln eps = ln C - e^{e^{C s_b}} and ln H1 = ln C + e^{e^{C s_b}}, kept in
    the fixed-point log representation so the doubly huge part is exact.
    """
    if s_b < 1 or C <= 0:
        raise ValueError("need s_b >= 1 and C > 0")
    x = C * s_b
    if x > MAX_NESTED:
        raise OverflowError(f"C*s_b = {x} too large for the fixed-point representation")
    return ResourceEstimate(s_b, C, math.exp(x))


def space_bound_of_norm(ln_h1: LogMagnitude, C: float = 1.0) -> float:
    """Inverse reading: the space bound a given norm budget affords.

    Solves ln H1 = ln C + e^{e^{C s_b}} for s_b, i.e. s_b is (doubly) the
    log-log of the norm budget.  For budgets whose log overflows a float,
    the ln C offset is negligible and `math.log` takes the fixed-point int.
    """
    if ln_h1.fix > 10**15 * FIX:
        return math.log(math.log(ln_h1.fix) - math.log(FIX)) / C
    y = ln_h1.ln() - math.log(C)
    if y <= 1.0:
        raise ValueError("norm budget too small")
    return math.log(math.log(y)) / C
