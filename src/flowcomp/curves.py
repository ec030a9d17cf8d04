"""Interpolating curve families and their tubular band charts.

Each input configuration c_i of a machine gets a curve confined to the band
[2i, 2i+1] x R.  The curve is vertical near integer heights, where its
x-coordinate is the encoded value of the configuration after that many
transition steps, and moves between consecutive anchor values through a
normalized bump-function ramp.  The (s, rho) chart around the curve (s arc
length, rho signed distance) is where all the flow dynamics happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import CubicSpline

from .logmag import LN2_FIX, LN15_FIX, LogMagnitude
from .machine import MachineSpec, encode, enumerate_inputs, trajectory

CHART_HALF_WIDTH = 1.0 / 16.0
# width, in the height parameter, of the ramp just before each anchor and of
# the step between two level speeds
RAMP_EPS = 0.01
# radius of the cutoff around each curve: the plane field is the chart field
# for |rho| <= RHO0/2 and zero for |rho| >= RHO0
RHO0 = 1.0 / 32.0
# arc-length grid cells per unit height; every anchor is a grid node
_ARC_CELLS = 256


class ChartError(ValueError):
    """Point outside the tubular chart."""


def flat(x):
    """e^(-1/x) for x > 0 and 0 otherwise; array friendly.

    The one bump every smooth piece is made of: the ramp integrand
    flat(t(1 - t)), the cutoff pieces and the perturbation bumps.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Normalized antiderivative of flat(t(1 - t)) on [RAMP_EPS, 1 - RAMP_EPS]."""

    Z: float  # integral over [RAMP_EPS, 1 - RAMP_EPS]
    full_integral: float  # integral over (0, 1)
    sup_expression: float  # sup of flat(t(1 - t))|1/t^2 - 1/(1-t)^2|
    quad_error: float
    _beta: CubicSpline

    def beta(self, sigma):
        """Ramp value in [0, 1]; clamped outside [RAMP_EPS, 1 - RAMP_EPS]."""
        sigma = np.clip(sigma, RAMP_EPS, 1.0 - RAMP_EPS)
        return np.clip(self._beta(sigma), 0.0, 1.0)

    @cached_property
    def _beta_antiderivative(self):
        return self._beta.antiderivative()

    def beta_integral(self, sigma):
        """Integral of beta from 0 to sigma (0 for sigma <= 0); array friendly."""
        lo, hi = RAMP_EPS, 1.0 - RAMP_EPS
        F = self._beta_antiderivative
        return (F(np.clip(sigma, lo, hi)) - F(lo)) + np.maximum(np.asarray(sigma) - hi, 0.0)


_PROFILE: BumpProfile | None = None


def bump_profile() -> BumpProfile:
    """The ramp profile: computed on first use, then shared by the process."""
    global _PROFILE
    if _PROFILE is not None:
        return _PROFILE
    tol = 1e-10

    def g(t):
        return float(flat(t * (1.0 - t)))

    Z, z_err = quad(g, RAMP_EPS, 1.0 - RAMP_EPS, epsabs=tol / 10, limit=200)
    full, f_err = quad(g, 0.0, 1.0, epsabs=tol / 10, limit=200)
    if z_err > tol or f_err > tol:
        raise RuntimeError("bump quadrature did not reach the requested tolerance")
    # cumulative on a symmetric fine grid; Simpson keeps beta(1/2) = 1/2
    grid = np.linspace(RAMP_EPS, 1.0 - RAMP_EPS, 4001)
    cum = np.concatenate([[0.0], cumulative_simpson(flat(grid * (1.0 - grid)), x=grid)])
    beta_spline = CubicSpline(grid, cum / cum[-1])
    t = np.linspace(1e-4, 1.0 - 1e-4, 20001)
    sup = float(np.max(flat(t * (1.0 - t)) * np.abs(1.0 / t**2 - 1.0 / (1.0 - t) ** 2)))
    _PROFILE = BumpProfile(Z, full, sup, max(z_err, f_err, abs(cum[-1] - Z)), beta_spline)
    return _PROFILE


class CurveFamily:
    """Curve for band i of a machine: anchors, ramp evaluation, arc length.

    The curve parameter u is the height parameter (anchor l sits
    at u = l); arc length s is a separate monotone reparametrization with
    s = 0 at u = 0.
    """

    def __init__(self, machine: MachineSpec, band: int, l_max: int):
        self.machine = machine
        self.band = band
        self.l_max = l_max
        c0 = enumerate_inputs(machine, band + 1)[band][1]
        # one extra anchor so the ramp into height l_max is defined
        self.configs = trajectory(machine, c0, l_max + 1)
        self.points = [encode(c) for c in self.configs]
        self.x = np.array(
            [math.exp(min(p.ln_value().ln(), 0.0)) + 2 * band for p in self.points]
        )

    # -- ramp evaluation ----------------------------------------------------

    def lambda_eval(self, u):
        """(lambda, lambda', lambda'') at parameter u; array friendly."""
        u = np.asarray(u, dtype=float)
        if np.any(u > self.l_max + 1 + 1e-12):
            raise ValueError("parameter beyond stored anchors")
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        l = np.clip(np.floor(u).astype(int), 0, self.l_max)
        sigma = u - l
        xl = self.x[l]
        xr = self.x[l + 1]
        dx = xr - xl
        val = np.where(sigma >= 1.0 - RAMP_EPS, xr, xl).astype(float)
        d1 = np.zeros_like(val)
        d2 = np.zeros_like(val)
        mid = (sigma > RAMP_EPS) & (sigma < 1.0 - RAMP_EPS)
        if np.any(mid):
            profile = bump_profile()
            sm = sigma[mid]
            g = flat(sm * (1.0 - sm)) / profile.Z * dx[mid]
            val[mid] = xl[mid] + profile.beta(sm) * dx[mid]
            d1[mid] = g
            d2[mid] = g * (1.0 / sm**2 - 1.0 / (1.0 - sm) ** 2)
        if scalar:
            return float(val[0]), float(d1[0]), float(d2[0])
        return val, d1, d2

    def curvature(self, u):
        _, d1, d2 = self.lambda_eval(u)
        return -d2 * (1.0 + d1**2) ** -1.5

    def point(self, u):
        val, _, _ = self.lambda_eval(u)
        return val, np.asarray(u, dtype=float) + 0.0

    def frame(self, u):
        """(tangent, normal, curvature, speed) at parameter u; array friendly."""
        _, d1, d2 = self.lambda_eval(u)
        w = np.sqrt(1.0 + d1 * d1)
        tangent = (d1 / w, 1.0 / w)
        normal = (-1.0 / w, d1 / w)
        # w**3 by the C library's pow, point by point; numpy's can differ in the last bit
        kappa = -d2 / np.array([v**3 for v in np.ravel(w).tolist()]).reshape(np.shape(w))
        return tangent, normal, kappa, w

    # -- arc length ---------------------------------------------------------

    def _speed(self, u):
        _, d1, _ = self.lambda_eval(u)
        return np.sqrt(1.0 + d1**2)

    @cached_property
    def arc_heights(self) -> np.ndarray:
        """s^i_l: arc length from p^i_0 to p^i_l along the curve, read off
        the arc-length grid, on which every anchor is a node."""
        return self._arc_maps[2][_ARC_CELLS::_ARC_CELLS]

    @cached_property
    def _arc_maps(self):
        """(s(u) spline, u(s) spline, s on the grid) on u in [-1, l_max + 1].

        `_ARC_CELLS` cells per unit height, so u = 0 and every anchor sit on
        the grid; the splines use the full fine grid so the derivative of
        s(u) is good to ~1e-9 (needed by the gradient check).
        """
        n_cells = _ARC_CELLS * (self.l_max + 2)
        u_grid = np.linspace(-1.0, self.l_max + 1, n_cells + 1)
        s_arr = np.concatenate([[0.0], cumulative_simpson(self._speed(u_grid), x=u_grid)])
        s_arr -= s_arr[_ARC_CELLS]  # anchor s(0) = 0 exactly
        return CubicSpline(u_grid, s_arr), CubicSpline(s_arr, u_grid), s_arr

    def arclength_of_param(self, u):
        return self._arc_maps[0](u)

    def param_of_arclength(self, s):
        fwd, inv, _ = self._arc_maps
        u = np.asarray(inv(s), dtype=float)
        hi = self.l_max + 1.0
        # polish the spline guess against the forward map
        for _ in range(3):
            u = np.clip(u - (fwd(u) - s) / self._speed(u), -1.0, hi)
        if u.ndim == 0:
            return float(u)
        return u

    def kappa_at_arclength(self, s):
        return self.curvature(self.param_of_arclength(s))


def interval_bound_log(m: int, i: int, l: int) -> LogMagnitude:
    """ln A_{i,l} = -(m+4) ln2 - 10**(i+l+1) (ln3 + ln5), level kept symbolic."""
    if i < 0 or l < 0:
        raise ValueError("band and height must be nonnegative")
    return LogMagnitude(-((m + 4) * LN2_FIX + 10 ** (i + l + 1) * LN15_FIX), 0.0)


class BandChart:
    """Tubular (s, rho) coordinates of half-width 1/16 around a curve."""

    def __init__(self, curve: CurveFamily):
        self.curve = curve

    def chart_to_plane(self, s: float, rho: float) -> tuple[float, float]:
        if abs(rho) >= CHART_HALF_WIDTH:
            raise ChartError(f"|rho| = {abs(rho)} outside the chart")
        u = float(self.curve.param_of_arclength(s))
        x, y = self.curve.point(u)
        _, normal, _, _ = self.curve.frame(u)
        return float(x + rho * normal[0]), float(y + rho * normal[1])

    def plane_to_chart(self, x, y):
        """(s, rho) of plane points; array friendly.  A single point beyond the
        half-width raises ChartError; in arrays such points get NaN."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        scalar = x.ndim == 0
        x, y = np.atleast_1d(x, y)
        u = self._project(x, y)
        gx, _, _ = self.curve.lambda_eval(u)
        _, normal, _, _ = self.curve.frame(u)
        rho = (x - gx) * normal[0] + (y - u) * normal[1]
        off = np.abs(rho) >= CHART_HALF_WIDTH
        s = self.curve.arclength_of_param(u)
        if scalar:
            if off[0]:
                raise ChartError(f"point ({x[0]}, {y[0]}) farther than 1/16 from the curve")
            return float(s[0]), float(rho[0])
        return np.where(off, np.nan, s), np.where(off, np.nan, rho)

    def _project(self, x, y):
        """Foot of the normal through each (x, y), by Newton on
        (p - gamma(u)) . gamma'(u) = 0 for all points in lockstep; a point is
        frozen once its step is below 1e-14, so it takes the iterates it
        would take alone."""
        u = np.clip(y, -0.75, self.curve.l_max + 0.75)
        hi = self.curve.l_max + 1.0
        active = np.ones(u.shape, dtype=bool)
        for _ in range(60):
            ua, xa, ya = u[active], x[active], y[active]
            val, d1, d2 = self.curve.lambda_eval(ua)
            f = (xa - val) * d1 + (ya - ua)
            df = -d1 * d1 + (xa - val) * d2 - 1.0
            un = ua - f / df
            un = np.minimum(np.maximum(un, ua - 0.5), np.minimum(ua + 0.5, hi))
            u[active] = un
            active[active] = ~(np.abs(un - ua) < 1e-14)
            if not active.any():
                break
        return u


def curve_records(curve: CurveFamily, ds: float = 0.01):
    """Rows (s, x, y, kappa) along the curve for dumps and plots."""
    s_max = float(curve.arc_heights[-1])
    s_vals = [0.0]
    while s_vals[-1] + ds <= s_max:
        s_vals.append(s_vals[-1] + ds)
    u = curve.param_of_arclength(np.array(s_vals))
    x, y = curve.point(u)
    return list(zip(s_vals, x.tolist(), y.tolist(), curve.curvature(u).tolist()))
