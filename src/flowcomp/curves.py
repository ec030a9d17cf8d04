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
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .logmag import LN2_FIX, LN15_FIX, LogMagnitude
from .machine import MachineSpec, encode, enumerate_inputs, trajectory

CHART_HALF_WIDTH = 1.0 / 16.0


class ChartError(ValueError):
    """Point outside the tubular chart."""


def _bump_integrand(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / ti - 1.0 / (1.0 - ti))
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Normalized antiderivative of exp(-1/t)exp(-1/(1-t)) on [eps, 1-eps]."""

    eps: float
    Z: float  # integral over [eps, 1-eps]
    full_integral: float  # integral over (0, 1)
    sup_expression: float  # sup of g(t)|1/t^2 - 1/(1-t)^2|
    quad_error: float
    _beta: CubicSpline

    def beta(self, sigma):
        """Ramp value in [0, 1]; clamped outside [eps, 1-eps]."""
        sigma = np.clip(sigma, self.eps, 1.0 - self.eps)
        return np.clip(self._beta(sigma), 0.0, 1.0)

    def g(self, sigma):
        return _bump_integrand(sigma)

    @cached_property
    def _beta_antiderivative(self):
        return self._beta.antiderivative()

    def beta_integral(self, sigma):
        """Integral of beta from 0 to sigma (0 for sigma <= 0); array friendly."""
        lo, hi = self.eps, 1.0 - self.eps
        F = self._beta_antiderivative
        return (F(np.clip(sigma, lo, hi)) - F(lo)) + np.maximum(np.asarray(sigma) - hi, 0.0)


def bump_profile(eps: float = 0.01, tol: float = 1e-10) -> BumpProfile:
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must be in (0, 1/4)")
    Z, z_err = quad(lambda t: math.exp(-1.0 / t - 1.0 / (1.0 - t)), eps, 1.0 - eps,
                    epsabs=tol / 10, limit=200)
    full, f_err = quad(lambda t: math.exp(-1.0 / t - 1.0 / (1.0 - t)), 0.0, 1.0,
                       epsabs=tol / 10, limit=200)
    if z_err > tol or f_err > tol:
        raise RuntimeError("bump quadrature did not reach the requested tolerance")
    # cumulative on a symmetric fine grid; Simpson keeps beta(1/2) = 1/2
    n = 4000
    grid = np.linspace(eps, 1.0 - eps, n + 1)
    vals = _bump_integrand(grid)
    from scipy.integrate import cumulative_simpson

    cum = np.concatenate([[0.0], cumulative_simpson(vals, x=grid)])
    beta_spline = CubicSpline(grid, cum / cum[-1])
    t = np.linspace(1e-4, 1.0 - 1e-4, 20001)
    sup = float(np.max(_bump_integrand(t) * np.abs(1.0 / t**2 - 1.0 / (1.0 - t) ** 2)))
    return BumpProfile(eps, Z, full, sup, max(z_err, f_err, abs(cum[-1] - Z)), beta_spline)


class CurveFamily:
    """Curve for band i of a machine: anchors, ramp evaluation, arc length.

    The curve parameter u is the height parameter (anchor l sits
    at u = l); arc length s is a separate monotone reparametrization with
    s = 0 at u = 0.
    """

    def __init__(self, machine: MachineSpec, band: int, l_max: int,
                 profile: BumpProfile | None = None):
        self.machine = machine
        self.band = band
        self.l_max = l_max
        self.profile = profile if profile is not None else bump_profile()
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
        eps = self.profile.eps
        xl = self.x[l]
        xr = self.x[l + 1]
        dx = xr - xl
        val = np.where(sigma >= 1.0 - eps, xr, xl).astype(float)
        d1 = np.zeros_like(val)
        d2 = np.zeros_like(val)
        mid = (sigma > eps) & (sigma < 1.0 - eps)
        if np.any(mid):
            sm = sigma[mid]
            g = self.profile.g(sm)
            val[mid] = xl[mid] + self.profile.beta(sm) * dx[mid]
            d1[mid] = g / self.profile.Z * dx[mid]
            d2[mid] = g * (1.0 / sm**2 - 1.0 / (1.0 - sm) ** 2) / self.profile.Z * dx[mid]
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
        """(tangent, normal, curvature, speed) at parameter u (scalar)."""
        _, d1, d2 = self.lambda_eval(u)
        w = math.sqrt(1.0 + d1 * d1)
        tangent = (d1 / w, 1.0 / w)
        normal = (-1.0 / w, d1 / w)
        kappa = -d2 / w**3
        return tangent, normal, kappa, w

    # -- arc length ---------------------------------------------------------

    def _speed(self, u):
        _, d1, _ = self.lambda_eval(u)
        return np.sqrt(1.0 + d1**2)

    @cached_property
    def arc_heights(self) -> np.ndarray:
        """s^i_l: arc length from p^i_0 to p^i_l along the curve."""
        gaps = [
            quad(lambda t: float(self._speed(t)), l, l + 1, epsabs=1e-10, limit=200)[0]
            for l in range(self.l_max + 1)
        ]
        return np.concatenate([[0.0], np.cumsum(gaps)])

    @cached_property
    def _arc_maps(self):
        from scipy.integrate import cumulative_simpson

        # cells of width 1/16 so u = 0 and every anchor height sit on the grid
        # 256 cells per unit height; spline on the full fine grid so the
        # derivative of s(u) is good to ~1e-9 (needed by the gradient check)
        n_cells = 256 * (self.l_max + 2)
        u_grid = np.linspace(-1.0, self.l_max + 1, n_cells + 1)
        s_arr = np.concatenate([[0.0], cumulative_simpson(self._speed(u_grid), x=u_grid)])
        s_arr -= s_arr[256]  # anchor s(0) = 0 exactly
        fwd = CubicSpline(u_grid, s_arr)
        inv = CubicSpline(s_arr, u_grid)
        return fwd, inv

    def arclength_of_param(self, u):
        return self._arc_maps[0](u)

    def param_of_arclength(self, s):
        fwd, inv = self._arc_maps
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

    def __init__(self, curve: CurveFamily, rho0: float = 1.0 / 32.0):
        if not 0.0 < rho0 < CHART_HALF_WIDTH:
            raise ValueError("rho0 must lie in (0, 1/16)")
        self.curve = curve
        self.rho0 = rho0

    def chart_to_plane(self, s: float, rho: float) -> tuple[float, float]:
        if abs(rho) >= CHART_HALF_WIDTH:
            raise ChartError(f"|rho| = {abs(rho)} outside the chart")
        u = float(self.curve.param_of_arclength(s))
        x, y = self.curve.point(u)
        _, normal, _, _ = self.curve.frame(u)
        return float(x + rho * normal[0]), float(y + rho * normal[1])

    def plane_to_chart(self, x: float, y: float) -> tuple[float, float]:
        u = self._project(x, y)
        gx, _, _ = self.curve.lambda_eval(u)
        _, normal, _, _ = self.curve.frame(u)
        rho = (x - gx) * normal[0] + (y - u) * normal[1]
        if abs(rho) >= CHART_HALF_WIDTH:
            raise ChartError(f"point ({x}, {y}) farther than 1/16 from the curve")
        return float(self.curve.arclength_of_param(u)), float(rho)

    def _project(self, x: float, y: float) -> float:
        """Foot of the normal through (x, y): solve (p - gamma(u)) . gamma'(u) = 0."""
        u = min(max(y, -0.75), self.curve.l_max + 0.75)
        hi = self.curve.l_max + 1.0
        for _ in range(60):
            val, d1, d2 = self.curve.lambda_eval(u)
            f = (x - val) * d1 + (y - u)
            df = -d1 * d1 + (x - val) * d2 - 1.0
            un = u - f / df
            un = min(max(un, u - 0.5), min(u + 0.5, hi))
            if abs(un - u) < 1e-14:
                u = un
                break
            u = un
        return u


def curve_records(curve: CurveFamily, ds: float = 0.01):
    """Rows (s, x, y, kappa) along the curve for dumps and plots."""
    s_max = float(curve.arc_heights[-1])
    out = []
    s = 0.0
    while s <= s_max:
        u = float(curve.param_of_arclength(s))
        x, y = curve.point(u)
        out.append((s, float(x), float(y), float(curve.curvature(u))))
        s += ds
    return out
