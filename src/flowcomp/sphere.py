"""Compactification of the planar field to the sphere.

The planar field is multiplied by positive factors (which keep orbits as
point sets, only reparametrizing time) and pushed through inverse
stereographic projection; the north pole becomes an added zero.  The factors
are a rapidly decaying damping and lam/lambda_i(s), which runs every level
of the field at the top speed lam, so a height takes about the same time at
every level.  The verdict rests on the time warp along the curve alone, and
no S^2 field evaluator is kept.
Computation survives as the time-delta map: below the threshold
delta0 = RAMP_EPS/(32 lam) the discrete orbit cannot skip a height band, so box
visits — and with them the verdicts — match the continuous flow.  The
orbit's visits are read lazily by `machine.read_verdict`, the reader of the
flow's crossings and of `machine.run`, over a height budget that
`check_budget` holds to 1..fs.l_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import _ARC_CELLS, RAMP_EPS, hermite_cumulative
from .field import FieldSpec
from .machine import read_verdict
from .simulate import HaltingSetSpec, check_budget

DAMPING_SCALE = 64.0


def damping(x, y):
    """Radial factor exp(1 - exp(sqrt(1 + r^2)/DAMPING_SCALE)) in (0, 1).

    Double-exponential decay in r makes every derivative of the damped
    field vanish at infinity; the scale keeps the factor of order one on
    the working window so the time reparametrization stays benign.
    """
    return np.exp(1.0 - np.exp(np.sqrt(1.0 + x * x + y * y) / DAMPING_SCALE))


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
        """Whether an iterate lies within RAMP_EPS/2 of arc length s_l.  Of the
        iterates between the times of s_l -/+ RAMP_EPS/2, two steps wider each
        side for round-off, s(k delta) - s_l is nondecreasing in k: bisection
        finds the first past -RAMP_EPS/2, and only it is tested."""
        t_of_s, grid = self.warp
        t_lo, t_hi = np.interp([s_l - RAMP_EPS / 2.0, s_l + RAMP_EPS / 2.0], grid, t_of_s)
        lo = max(int(t_lo / self.delta) - 2, 0)
        hi = end = min(int(t_hi / self.delta) + 3, self.iterates)
        k = min(lo + 3, (lo + hi) // 2)  # the crossing lies 3 in, but for round-off
        while lo < hi:
            s_k = np.interp(k * self.delta, t_of_s, grid)
            lo, hi = (lo, k) if s_k - s_l > -RAMP_EPS / 2.0 else (k + 1, hi)
            k = (lo + hi) // 2
        return bool(lo < end and
                    abs(np.interp(lo * self.delta, t_of_s, grid) - s_l) < RAMP_EPS / 2.0)


def discrete_orbit_verdict(fs: FieldSpec, input_index: int,
                           constraint: HaltingSetSpec | None, delta: float,
                           l_max: int):
    """(verdict, hit, orbit) for the time-delta map of the sphere field over
    `l_max` heights.

    The orbit through an on-curve start stays on the curve (the factors are
    positive scalars and the normal dynamics is contracting), and along it
    the sphere field moves at lambda_i(s) * (lam/lambda_i(s)) * G = lam * G,
    so the iterates are computed by warping time: t(s) = integral
    ds/(lam * G) along the curve, by the Hermite rule with the slowness's
    exact s-derivative on the curve's arc-length nodes, up to RAMP_EPS past
    the last anchor, where the curve is vertical.
    """
    check_budget(fs, l_max)
    d0 = delta_threshold(fs.lam)
    if not 0 < delta < d0:
        raise ValueError(f"delta = {delta} not in (0, {d0}): positive, below the threshold")
    curve = fs.curve(input_index)
    u, s, _, duds, val, d1 = (a[_ARC_CELLS:_ARC_CELLS * (l_max + 1) + 1] for a in curve._arc_maps)
    # one node more, RAMP_EPS up the vertical piece above anchor l_max, where
    # (x, y)' = (0, 1); along the arc it is (lambda', 1)/w
    grid = np.append(s, s[-1] + RAMP_EPS)
    x, y = np.append(val, val[-1]), np.append(u, u[-1] + RAMP_EPS)
    dx, dy = np.append(d1 * duds, 0.0), np.append(duds, 1.0)
    r = np.sqrt(1.0 + x * x + y * y)
    slow = 1.0 / (fs.lam * damping(x, y))
    dslow = slow * np.exp(r / DAMPING_SCALE) / DAMPING_SCALE * (x * dx + y * dy) / r
    t_of_s = hermite_cumulative(grid, slow, dslow)
    steps = float(t_of_s[-1]) / delta
    if not np.isfinite(steps):
        raise ValueError(f"delta = {delta} too small: {t_of_s[-1]} / delta overflows")
    orbit = DiscreteOrbit(delta, int(steps) + 1, [], [], (t_of_s, grid))

    heights = curve.arc_heights

    def visited():
        yield 0, None, curve.configs[0]  # the start's own box
        for l in range(1, l_max + 1):
            if orbit.visits(float(heights[l])):
                orbit.visited_heights.append(l)
                yield l, None, curve.configs[l]
            else:
                orbit.band_gaps.append(l)

    # read lazily, so the orbit's lists end at the halting height
    verdict, hit = read_verdict(visited(), fs.machine, constraint)
    return verdict, hit, orbit
