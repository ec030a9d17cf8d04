"""Planar gradient field on the bands, its potential, and the error schedule.

In chart coordinates the field on band i is (lambda_i(s)/(1 - kappa(s) rho),
-rho) with potential Lambda_i(s) - rho**2/2, where lambda_i is the per-level
flow speed of `LevelSpeed` and Lambda_i its integral along the curve.  In the
plane the field is the Cartesian gradient of the same potential, multiplied
by a smooth cutoff in |rho| so it extends by zero outside the tubular
neighborhoods.  The error schedule turns the per-box interval bounds into
admissible perturbation sup-norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .curves import (
    CHART_HALF_WIDTH,
    RAMP_EPS,
    RHO0,
    BandChart,
    ChartError,
    CurveFamily,
    bump_profile,
    flat,
    interval_bound_log,
)
from .logmag import LN2, LogMagnitude, lm_min
from .machine import MachineSpec

LAMBDA0 = 1.0 / (320.0 * math.log(15.0) + 32.0 * math.log(2.0))
GAMMA0 = 4.0 * LAMBDA0 / 31.0
LN8 = 3.0 * LN2
# scale of the perturbation amplitude caps below the schedule's thresholds
EPS0 = 0.1


def cutoff(t):
    """Smooth transition: 1 for t <= 1/2, 0 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = flat(1.0 - t)
    b = flat(2.0 * (t - 0.5))
    return a / (a + b + 1e-300)


def contraction_speed_limit(m: int, band: int, height: int) -> float:
    """Largest flow speed for which the one-step contraction can certify.

    The slowest admissible crossing takes time (gap - eps)/(16 lam) >=
    (1 - eps)/(16 lam), eps = RAMP_EPS; the required log drop is the
    interval-bound gap plus one halving.  Level gaps grow like
    9*10^(i+l+1) ln15, so the admissible speed shrinks double-exponentially
    with i + l.
    """
    drop = 9 * 10 ** (band + height + 1) * math.log(15.0) + LN2
    return (1.0 - RAMP_EPS) / (16.0 * drop)


class FieldSpec:
    """Per-machine planar field: lazy band charts plus the flow constants.

    `lam` = lambda_frac * LAMBDA0 is the top speed: it fixes the time-delta
    threshold and the time of the sphere field.  The flow itself runs on
    band i from height l to l + 1 at the level speed
    lambda_frac * contraction_speed_limit(m, i, l), which is far below `lam`
    (see `LevelSpeed`).
    """

    def __init__(self, machine: MachineSpec, n_bands: int, l_max: int,
                 lambda_frac: float = 0.5):
        if not 0.0 < lambda_frac < 1.0:
            raise ValueError("lambda_frac must be in (0, 1): the flow speed "
                             "must stay below the contraction ceiling")
        if n_bands < 1 or l_max < 1:
            raise ValueError("need at least one band and one height")
        self.machine = machine
        self.n_bands = n_bands
        self.l_max = l_max
        self.lambda_frac = lambda_frac
        self.lam = lambda_frac * LAMBDA0
        self._charts: dict[int, BandChart] = {}
        self._speeds: dict[int, LevelSpeed] = {}

    def level_speed(self, band: int, height: int) -> float:
        """Flow speed on band `band` from height `height` to the next."""
        return self.lambda_frac * contraction_speed_limit(self.machine.m, band, height)

    def speed(self, band: int) -> "LevelSpeed":
        if band not in self._speeds:
            self._speeds[band] = LevelSpeed(self, band)
        return self._speeds[band]

    @cached_property
    def box_derivative_bound(self) -> float:
        return measure_box_derivative_bound(self)

    def curve(self, band: int) -> CurveFamily:
        return self.chart(band).curve

    def chart(self, band: int) -> BandChart:
        if not 0 <= band < self.n_bands:
            raise ValueError(f"band {band} outside 0..{self.n_bands - 1}")
        if band not in self._charts:
            self._charts[band] = BandChart(CurveFamily(self.machine, band, self.l_max))
        return self._charts[band]


class LevelSpeed:
    """The flow speed lambda_i(s) along the curve of one band.

    From anchor l to anchor l + 1 the speed is `FieldSpec.level_speed(i, l)`.
    Over the last RAMP_EPS of arc before anchor l + 1, inside the vertical piece,
    the slowness 1/lambda steps from level l to level l + 1 along the bump
    ramp beta, so the time to cross any stretch has a closed form.  Below
    s = 0 the speed is that of level 0, past the last anchor that of the last
    level.
    """

    _GRID = np.linspace(0.0, 1.0, 4001)

    def __init__(self, fs: FieldSpec, band: int):
        self.anchors = np.asarray(fs.curve(band).arc_heights, dtype=float)
        self.levels = np.array([fs.level_speed(band, l) for l in range(len(self.anchors))])
        self._slow = 1.0 / self.levels
        # slowness step at the next anchor; none past the last one
        self._dslow = np.append(np.diff(self._slow), 0.0)
        self._next = np.append(self.anchors[1:], np.inf)
        ramp = RAMP_EPS * float(bump_profile().beta_integral(1.0))
        seg = np.diff(self.anchors) * self._slow[:-1] + self._dslow[:-1] * ramp
        self._anchor_time = np.concatenate([[0.0], np.cumsum(seg)])
        self._ramps: dict[int, CubicSpline] = {}

    def _locate(self, s):
        k = np.clip(np.searchsorted(self.anchors, s, side="right") - 1,
                    0, len(self.anchors) - 1)
        return k, (s - self._next[k]) / RAMP_EPS + 1.0

    def __call__(self, s):
        """lambda_i(s); array friendly."""
        k, sigma = self._locate(s)
        return 1.0 / (self._slow[k] + self._dslow[k] * bump_profile().beta(sigma))

    def time_to(self, s):
        """Flow time from s = 0 to s along the curve; array friendly."""
        k, sigma = self._locate(s)
        return (self._anchor_time[k] + (s - self.anchors[k]) * self._slow[k]
                + self._dslow[k] * RAMP_EPS * bump_profile().beta_integral(sigma))

    def time(self, s_a, s_b):
        """Flow time from s_a to s_b, the integral of 1/lambda_i."""
        return self.time_to(s_b) - self.time_to(s_a)

    def _ramp_cumulative(self, k: int) -> np.ndarray:
        """Integral of lambda/lambda_k over the ramp before anchor k + 1, on the grid."""
        ratio = self._slow[k + 1] / self._slow[k]
        vals = 1.0 / (1.0 + (ratio - 1.0) * bump_profile().beta(self._GRID))
        return cumulative_simpson(vals, x=self._GRID, initial=0.0)

    def _ramp_potential(self, k: int) -> CubicSpline:
        if k not in self._ramps:
            self._ramps[k] = CubicSpline(self._GRID, self._ramp_cumulative(k))
        return self._ramps[k]

    @cached_property
    def _anchor_potential(self) -> np.ndarray:
        seg = [(self.anchors[k + 1] - self.anchors[k] - RAMP_EPS
                + RAMP_EPS * self._ramp_cumulative(k)[-1]) * self.levels[k]
               for k in range(len(self.anchors) - 1)]
        return np.concatenate([[0.0], np.cumsum(seg)])

    def potential(self, s: float) -> float:
        """Lambda_i(s): the integral of lambda_i from 0 to s."""
        k, sigma = self._locate(s)
        lam = self.levels[k]
        out = self._anchor_potential[k] + lam * (min(s, self._next[k] - RAMP_EPS)
                                                 - self.anchors[k])
        if sigma > 0.0:
            out += RAMP_EPS * lam * float(self._ramp_potential(k)(min(sigma, 1.0)))
        return float(out)


def field_eval_chart(fs: FieldSpec, band: int, s: float, rho: float):
    if abs(rho) >= CHART_HALF_WIDTH:
        raise ChartError(f"|rho| = {abs(rho)} outside the chart")
    kappa = float(fs.curve(band).kappa_at_arclength(s))
    return float(fs.speed(band)(s)) / (1.0 - kappa * rho), -rho


def potential_eval(fs: FieldSpec, band: int, s: float, rho: float) -> float:
    if abs(rho) >= CHART_HALF_WIDTH:
        raise ChartError(f"|rho| = {abs(rho)} outside the chart")
    return fs.speed(band).potential(s) - rho * rho / 2.0


def _locate(fs: FieldSpec, x: float, y: float):
    """(band, chart, s, rho) for an in-chart plane point, else None."""
    cands = {int(math.floor((x - CHART_HALF_WIDTH) / 2.0)),
             int(math.floor((x + CHART_HALF_WIDTH) / 2.0))}
    for i in sorted(cands):
        if not 0 <= i < fs.n_bands:
            continue
        ch = fs.chart(i)
        try:
            s, rho = ch.plane_to_chart(x, y)
        except ChartError:
            continue
        return i, ch, s, rho
    return None


def field_eval_plane(fs: FieldSpec, x: float, y: float) -> tuple[float, float]:
    hit = _locate(fs, x, y)
    if hit is None:
        return 0.0, 0.0
    i, ch, s, rho = hit
    chi = float(cutoff(abs(rho) / RHO0))
    if chi == 0.0:
        return 0.0, 0.0
    u = float(ch.curve.param_of_arclength(s))
    tangent, normal, kappa, _ = ch.curve.frame(u)
    a = float(fs.speed(i)(s)) / (1.0 - kappa * rho)
    return (chi * (a * tangent[0] - rho * normal[0]),
            chi * (a * tangent[1] - rho * normal[1]))


def potential_plane(fs: FieldSpec, x: float, y: float) -> float:
    hit = _locate(fs, x, y)
    if hit is None:
        raise ChartError(f"({x}, {y}) outside every band chart")
    i, _, s, rho = hit
    return fs.speed(i).potential(s) - rho * rho / 2.0


def verify_gradient(fs: FieldSpec, samples: int, seed: int = 0, h: float = 1e-6):
    """Compare the plane field with finite differences of the potential.

    Samples points with |rho| <= RHO0/2 where the cutoff is identically 1;
    reports the max relative gradient error and the max curl residual.
    """
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    max_curl = 0.0
    n = 0
    while n < samples:
        i = int(rng.integers(0, fs.n_bands))
        s = float(rng.uniform(0.0, fs.curve(i).arc_heights[-1]))
        rho = float(rng.uniform(-RHO0 / 2, RHO0 / 2))
        x, y = fs.chart(i).chart_to_plane(s, rho)
        fx = field_eval_plane(fs, x, y)
        gx = (potential_plane(fs, x + h, y) - potential_plane(fs, x - h, y)) / (2 * h)
        gy = (potential_plane(fs, x, y + h) - potential_plane(fs, x, y - h)) / (2 * h)
        scale = math.hypot(*fx)
        rel = math.hypot(fx[0] - gx, fx[1] - gy) / scale
        max_rel = max(max_rel, rel)
        cx = (field_eval_plane(fs, x + h, y)[1] - field_eval_plane(fs, x - h, y)[1]) / (2 * h)
        cy = (field_eval_plane(fs, x, y + h)[0] - field_eval_plane(fs, x, y - h)[0]) / (2 * h)
        max_curl = max(max_curl, abs(cx - cy))
        n += 1
    return {"samples": samples, "max_rel_error": max_rel, "max_curl": max_curl}


def measure_c0(fs: FieldSpec, samples: int = 1000, seed: int = 0) -> float:
    """Measured lower bound for X . e_y on the transversality band.

    The band's width scales with the local flow speed: the normal part
    -rho*N can beat the lambda-sized tangential part on ramps once
    |rho| ~ lambda, so points are drawn with |rho| < min(RHO0, lambda_i(s)/4).
    """
    rng = np.random.default_rng(seed)
    c0 = math.inf
    for _ in range(samples):
        i = int(rng.integers(0, fs.n_bands))
        s = float(rng.uniform(0.0, fs.curve(i).arc_heights[-1]))
        w = min(RHO0, float(fs.speed(i)(s)) / 4.0)
        rho = float(rng.uniform(-w, w))
        x, y = fs.chart(i).chart_to_plane(s, rho)
        c0 = min(c0, field_eval_plane(fs, x, y)[1])
    return c0


def measure_box_derivative_bound(fs: FieldSpec, band: int = 0, height: int = 0,
                                 n: int = 25, h: float = 1e-5) -> float:
    """Max finite-difference Jacobian norm of the plane field over one box.

    Boxes K cover [2i, 2i+1] x [l - 1/4, l + 5/4]; the bound is uniform over
    boxes because every band/height window is the same picture up to the
    anchor values and the flow speed, which only falls with i + l, so the
    first box is a representative one.
    """
    xs = np.linspace(2 * band, 2 * band + 1, n)
    ys = np.linspace(height - 0.25, height + 1.25, n)
    best = 0.0
    for x in xs:
        for y in ys:
            fxp = field_eval_plane(fs, x + h, y)
            fxm = field_eval_plane(fs, x - h, y)
            fyp = field_eval_plane(fs, x, y + h)
            fym = field_eval_plane(fs, x, y - h)
            j = np.array([[(fxp[0] - fxm[0]), (fyp[0] - fym[0])],
                          [(fxp[1] - fxm[1]), (fyp[1] - fym[1])]]) / (2 * h)
            best = max(best, float(np.linalg.norm(j, 2)))
    return best


@dataclass(frozen=True)
class ErrorSchedule:
    """Admissible per-box perturbation thresholds, in log magnitude form."""

    M: float  # uniform derivative bound over the boxes
    thresholds: dict = field(repr=False)  # (band, height) -> LogMagnitude
    taus: dict = field(repr=False)  # (band, height) -> crossing-time bound

    def tau(self, band: int, height: int) -> float:
        return self.taus[(band, height)]

    def threshold(self, band: int, height: int) -> LogMagnitude:
        return self.thresholds[(band, height)]

    def cap(self, band: int, height: int) -> LogMagnitude:
        """Amplitude cap EPS0 * threshold for perturbation sampling."""
        return self.thresholds[(band, height)] + math.log(EPS0)

    def envelope_check(self, C: float = 1.0) -> bool:
        """ln eps(r) <= ln C - e^{C r} with r the box's farthest corner radius."""
        for (i, l), th in self.thresholds.items():
            r = math.hypot(2 * i + 1, l + 1.25)
            bound = LogMagnitude.from_ln(math.log(C) - math.exp(C * r))
            if not th <= bound:
                return False
        return True

    def fit_envelope_constant(self) -> float:
        """Largest C on a coarse grid for which the envelope shape holds."""
        best = 0.0
        for c in np.linspace(0.05, 3.0, 60):
            if self.envelope_check(float(c)):
                best = float(c)
        return best


def error_schedule(fs: FieldSpec) -> ErrorSchedule:
    """Thresholds eps^i_l = (M/(e^{M tau_il} - 1)) * min(eps/2, A_{i,l+1}/8)
    for the boxes i + l <= l_max, with eps = RAMP_EPS.

    M is the measured derivative bound (uniform across boxes, measured once
    per field) and tau_il the crossing-time budget of box (i, l):
    (max anchor gap + 1) / Gamma0 at the top speed, scaled by the ratio of
    the top speed to the slowest level speed in the box, that of height
    l + 1.  M*tau_il reaches ~1e30, so it is carried in the fixed-point part;
    above 50, ln(e^{M tau} - 1) is M*tau to double precision.
    """
    M = fs.box_derivative_bound
    max_gap = max(
        float(np.max(np.diff(fs.curve(i).arc_heights))) for i in range(fs.n_bands)
    )
    tau_top = (max_gap + 1.0) / GAMMA0
    ln_eps_half = LogMagnitude.from_ln(math.log(RAMP_EPS / 2.0))
    m = fs.machine.m
    thresholds = {}
    taus = {}
    for i in range(fs.n_bands):
        for l in range(fs.l_max + 1 - i):
            tau = tau_top * fs.lam / fs.level_speed(i, l + 1)
            mt = M * tau
            growth = LogMagnitude.fixed(mt) if mt > 50.0 else math.log(math.expm1(mt))
            branch = lm_min(ln_eps_half, interval_bound_log(m, i, l + 1) - LN8)
            thresholds[(i, l)] = branch + math.log(M) - growth
            taus[(i, l)] = tau
    return ErrorSchedule(M, thresholds, taus)
