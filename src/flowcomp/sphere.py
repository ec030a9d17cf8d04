"""Compactification of the planar field to the sphere.

The planar field is multiplied by positive factors (which keep orbits as
point sets, only reparametrizing time) and pushed through inverse
stereographic projection; the north pole becomes an added zero.  The factors
are a rapidly decaying damping and lam/lambda_i(s), which runs every level
of the field at the top speed lam, so a height takes about the same time at
every level.
Computation survives as the time-delta map: below the threshold
delta0 = RAMP_EPS/(32 lam) the discrete orbit cannot skip a height band, so box
visits — and with them the verdicts — match the continuous flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import RAMP_EPS
from .field import FieldSpec, _chart_field, _locate
from .simulate import HaltingSetSpec, IntegratorConfig, SimulationVerdict

NORTH = (0.0, 0.0, 1.0)
_POLE_TOL = 1e-12


def stereographic(x, y):
    """Plane to unit sphere; the north pole is the point at infinity."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    d = 1.0 + r2
    return np.stack([2.0 * x / d, 2.0 * y / d, (r2 - 1.0) / d], axis=-1)


def inverse_stereographic(p):
    p = np.asarray(p, dtype=float)
    z = p[..., 2]
    if np.any(z >= 1.0 - _POLE_TOL):
        raise ValueError("the north pole has no planar pre-image")
    return p[..., 0] / (1.0 - z), p[..., 1] / (1.0 - z)


def stereographic_push(x: float, y: float, vx: float, vy: float):
    """Differential of the plane-to-sphere map applied to (vx, vy)."""
    r2 = x * x + y * y
    d = 1.0 + r2
    dd_dx, dd_dy = 2.0 * x, 2.0 * y
    # d/dx of (2x/d, 2y/d, (r2-1)/d) etc.
    j = np.array([
        [2.0 / d - 2.0 * x * dd_dx / d**2, -2.0 * x * dd_dy / d**2],
        [-2.0 * y * dd_dx / d**2, 2.0 / d - 2.0 * y * dd_dy / d**2],
        [dd_dx / d - (r2 - 1.0) * dd_dx / d**2, dd_dy / d - (r2 - 1.0) * dd_dy / d**2],
    ])
    return j @ np.array([vx, vy])


@dataclass(frozen=True)
class DampingProfile:
    """Radial factor exp(1 - exp(sqrt(1 + r^2)/scale)) in (0, 1).

    Double-exponential decay in r makes every derivative of the damped
    field vanish at infinity; the scale keeps the factor of order one on
    the working window so the time reparametrization stays benign.
    """

    scale: float = 64.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(1.0 - np.exp(np.sqrt(1.0 + x * x + y * y) / self.scale))


def damp_and_push(fs: FieldSpec, profile: DampingProfile | None = None):
    """Evaluator for the sphere field: 3-vector at a unit 3-vector point."""
    if profile is None:
        profile = DampingProfile()

    def sphere_field(p):
        p = np.asarray(p, dtype=float)
        if p[2] >= 1.0 - _POLE_TOL:
            return np.zeros(3)
        x, y = float(p[0] / (1.0 - p[2])), float(p[1] / (1.0 - p[2]))
        band, s, rho = _locate(fs, x, y)
        vx, vy = map(float, _chart_field(fs, band, s, rho))
        if vx == 0.0 and vy == 0.0:
            return np.zeros(3)
        g = float(profile(x, y)) * fs.lam / float(fs.speed(int(band))(s))
        return stereographic_push(x, y, g * vx, g * vy)

    return sphere_field


def delta_threshold(lam: float) -> float:
    """Largest admissible sampling step of the time-delta map."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return RAMP_EPS / (32.0 * lam)


@dataclass
class DiscreteOrbit:
    """The time-delta orbit: `iterates` points at times k*delta, k < iterates.

    The times and arc lengths of the iterates are computed on first read;
    the verdict itself needs only the few iterates near each height.
    """

    delta: float
    iterates: int
    visited_heights: list
    band_gaps: list  # heights the orbit crossed without an iterate inside
    warp: tuple = field(repr=False)  # (t_of_s, arc-length grid)

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.iterates, dtype=float) * self.delta

    @cached_property
    def s_values(self) -> np.ndarray:
        return np.interp(self.times, *self.warp)

    def visits(self, s_l: float) -> bool:
        """Whether an iterate lies within RAMP_EPS/2 of arc length s_l.  s(t)
        is monotone, so only the iterates between the times of s_l -/+
        RAMP_EPS/2, two steps wider on each side for round-off, are tested."""
        t_of_s, grid = self.warp
        t_lo, t_hi = np.interp([s_l - RAMP_EPS / 2.0, s_l + RAMP_EPS / 2.0], grid, t_of_s)
        k = np.arange(max(int(t_lo / self.delta) - 2, 0),
                      min(int(t_hi / self.delta) + 3, self.iterates))
        s_vals = np.interp(k * self.delta, t_of_s, grid)
        return bool(np.any(np.abs(s_vals - s_l) < RAMP_EPS / 2.0))


def discrete_orbit_verdict(fs: FieldSpec, input_index: int,
                           constraint: HaltingSetSpec | None, delta: float,
                           cfg: IntegratorConfig | None = None,
                           profile: DampingProfile | None = None):
    """(verdict, hit, orbit) for the time-delta map of the sphere field.

    The orbit through an on-curve start stays on the curve (the factors are
    positive scalars and the normal dynamics is contracting), and along it
    the sphere field moves at lambda_i(s) * (lam/lambda_i(s)) * G = lam * G,
    so the iterates are computed by warping time: t(s) = integral
    ds/(lam * G) along the curve, inverted on a precomputed grid.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if profile is None:
        profile = DampingProfile()
    d0 = delta_threshold(fs.lam)
    if delta >= d0:
        raise ValueError(f"delta = {delta} not below the threshold {d0}")
    curve = fs.curve(input_index)
    l_max = min(cfg.l_max, fs.l_max)
    s_end = float(curve.arc_heights[l_max]) + RAMP_EPS
    grid = np.linspace(0.0, s_end, max(int(s_end * 400), 100) + 1)
    u = curve.param_of_arclength(grid)
    gx, gy = curve.point(u)
    damp = profile(gx, gy)
    slow = 1.0 / (fs.lam * damp)
    t_of_s = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (slow[1:] + slow[:-1]) / 2.0)])
    orbit = DiscreteOrbit(delta, int(t_of_s[-1] / delta) + 1, [], [], (t_of_s, grid))

    heights = curve.arc_heights
    q_halt = fs.machine.q_halt
    hit = False
    verdict = None
    for l in range(1, l_max + 1):
        if not orbit.visits(float(heights[l])):
            orbit.band_gaps.append(l)
            continue
        orbit.visited_heights.append(l)
        c = curve.configs[l]
        if constraint is not None and constraint.matches(c):
            hit = True
        if verdict is None and c.q == q_halt:
            verdict = SimulationVerdict("HALTED", c, l)
            break
    if verdict is None:
        verdict = SimulationVerdict("UNRESOLVED", budget=l_max)
    return verdict, hit, orbit

