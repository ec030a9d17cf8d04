"""Interpolating curve families and their tubular band charts.

Each input configuration c_i of a machine gets a curve confined to the band
[2i, 2i+1] x R.  The curve is vertical near integer heights, where its
x-coordinate is the encoded value of the configuration after that many
transition steps, and moves between consecutive anchor values through a
normalized bump-function ramp.  The (s, rho) chart around the curve (s arc
length, rho signed distance) is where all the flow dynamics happens.

Every state q is at least 1, so every encoded value 1/(2^q 3^r 5^s) lies in
(0, 1/2] and every interval half-width in (0, 1/64].  Band i's curve only
ramps between its anchors, so it stays in x in [2i, 2i + 1/2], and its chart
of half-width 1/16 in (2i - 1/16, 2i + 9/16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
# cells above and below a point's own that can come within the chart half-width
# of it, and one more for round-off in the nodes
_REACH = int(CHART_HALF_WIDTH * _ARC_CELLS) + 1


class ChartError(ValueError):
    """Chart point at or past the half-width 1/16."""


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


def grid_sup(f, lo: float, hi: float) -> float:
    """sup |f| over [lo, hi], from above, for a smooth f: the best node of a
    1001-point grid, re-gridded between its neighbours until they are 1e-14
    apart, plus 1e-9 relative for rounding."""
    t = np.linspace(lo, hi, 1001)
    for _ in range(5):
        k = int(np.argmax(np.abs(f(t))))
        t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, 1000)], 1001)
    return float(np.max(np.abs(f(t)))) * (1.0 + 1e-9)


def hermite_cumulative(x, f, df):
    """Integrals from x[0] to each node of the cubic Hermite interpolant of values f and
    exact slopes df along the last axis: per cell h/2 (f0 + f1) + h^2/12 (f0' - f1')."""
    h = np.diff(x)
    cells = h * ((f[..., :-1] + f[..., 1:]) / 2.0 + h * (df[..., :-1] - df[..., 1:]) / 12.0)
    return np.cumsum(np.concatenate([np.zeros_like(f[..., :1]), cells], axis=-1), axis=-1)


def hermite_eval(x, f, df, t):
    """Cubic Hermite interpolant of (f, df) on increasing nodes x at t; end cells extend."""
    t = np.asarray(t, dtype=float)
    k = np.minimum(np.maximum(np.searchsorted(x, t, side="right") - 1, 0), len(x) - 2)
    j, x0, f0 = k + 1, x[k], f[k]
    h = x[j] - x0
    v = (t - x0) / h
    rise, d0, d1 = f[j] - f0, h * df[k], h * df[j]
    a = d0 + d1 - 2.0 * rise
    return f0 + v * (d0 + v * (rise - d0 - a + v * a))


@dataclass(frozen=True)
class BumpProfile:
    """Normalized antiderivative of flat(t(1 - t)) on [RAMP_EPS, 1 - RAMP_EPS]."""

    Z: float  # integral over [RAMP_EPS, 1 - RAMP_EPS]
    full_integral: float  # integral over (0, 1)
    sup_expression: float  # sup of flat(t(1 - t))|1/t^2 - 1/(1-t)^2|, from above
    quad_error: float
    _nodes: tuple = field(repr=False)  # grid, beta, beta' and the integral of beta

    def dbeta(self, sigma):
        """beta'(sigma) = flat(sigma(1 - sigma))/Z inside the ramp; array friendly."""
        return flat(sigma * (1.0 - sigma)) / self.Z

    def beta(self, sigma):
        """Ramp value in [0, 1]; clamped outside [RAMP_EPS, 1 - RAMP_EPS]."""
        grid, beta, dbeta, _ = self._nodes
        sigma = np.minimum(np.maximum(sigma, RAMP_EPS), 1.0 - RAMP_EPS)
        return np.minimum(np.maximum(hermite_eval(grid, beta, dbeta, sigma), 0.0), 1.0)

    def beta_integral(self, sigma):
        """Integral of beta from 0 to sigma (0 for sigma <= 0); array friendly."""
        grid, beta, _, integral = self._nodes
        inner = hermite_eval(grid, integral, beta,
                             np.minimum(np.maximum(sigma, RAMP_EPS), 1.0 - RAMP_EPS))
        return inner + np.maximum(np.asarray(sigma) - (1.0 - RAMP_EPS), 0.0)

    @cached_property
    def ramp_time(self) -> float:
        """RAMP_EPS times the integral of beta over [0, 1]: a ramp's time per slowness step."""
        return RAMP_EPS * float(self.beta_integral(1.0))

    @cached_property
    def level_rows(self):
        """`LevelSpeed`'s 4001-node grid of [0, 1], with beta and beta' on it."""
        grid = np.linspace(0.0, 1.0, 4001)
        return grid, self.beta(grid), self.dbeta(grid)

    @cached_property
    def arc_rows(self):
        """The arc-length grid's nodes sigma = k/_ARC_CELLS of one unit height, the
        slice of those inside the ramp, one run, and beta, beta' and the curvature
        factor 1/sigma^2 - 1/(1 - sigma)^2 on it."""
        sigma = np.arange(_ARC_CELLS) / _ARC_CELLS
        inside = np.flatnonzero((sigma > RAMP_EPS) & (sigma < 1.0 - RAMP_EPS))
        mid = slice(inside[0], inside[-1] + 1)
        sm = sigma[mid]
        return sigma, mid, self.beta(sm), self.dbeta(sm), 1.0 / sm**2 - 1.0 / (1.0 - sm) ** 2


_PROFILE: BumpProfile | None = None


def bump_profile() -> BumpProfile:
    """The ramp profile: computed on first use, then shared by the process."""
    global _PROFILE
    if _PROFILE is not None:
        return _PROFILE

    def ramp(t):  # flat(t(1 - t)) and its derivative
        g = flat(t * (1.0 - t))
        return g, g * (1.0 / t**2 - 1.0 / (1.0 - t) ** 2)

    def integral(t):
        return hermite_cumulative(t, *ramp(t))

    # a symmetric grid keeps beta(1/2) = 1/2; the tails outside it are below
    # e^-100, and the integrand underflows to 0 in the end cells of (0, 1).
    # The error estimate is the change from every other node to all.
    grid = np.linspace(RAMP_EPS, 1.0 - RAMP_EPS, 4001)
    whole = np.linspace(0.0, 1.0, 4001)[1:-1]
    cum, full = integral(grid), float(integral(whole)[-1])
    Z = float(cum[-1])
    err = max(abs(Z - integral(grid[::2])[-1]), abs(full - integral(whole[::2])[-1]))
    beta, dbeta = cum / Z, ramp(grid)[0] / Z
    sup = grid_sup(lambda t: ramp(t)[1], 1e-4, 1.0 - 1e-4)
    _PROFILE = BumpProfile(Z, full, sup, float(err),
                           (grid, beta, dbeta, hermite_cumulative(grid, beta, dbeta)))
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
        self.x = np.array([math.exp(p.ln_value().ln()) + 2 * band for p in self.points])

    # -- ramp evaluation ----------------------------------------------------

    def lambda_eval(self, u):
        """(lambda, lambda', lambda'') at the parameters of the array u."""
        if np.any(u > self.l_max + 1 + 1e-12):
            raise ValueError("parameter beyond stored anchors")
        l, sigma, mid = self._ramp(u)
        xl = self.x[l]
        xr = self.x[l + 1]
        dx = xr - xl
        val = np.where(sigma >= 1.0 - RAMP_EPS, xr, xl).astype(float)
        d1 = np.zeros_like(val)
        d2 = np.zeros_like(val)
        if np.any(mid):
            profile = bump_profile()
            sm = sigma[mid]
            g = profile.dbeta(sm) * dx[mid]
            val[mid] = xl[mid] + profile.beta(sm) * dx[mid]
            d1[mid] = g
            d2[mid] = g * (1.0 / sm**2 - 1.0 / (1.0 - sm) ** 2)
        return val, d1, d2

    def _ramp(self, u):
        """Anchor index l, sigma = u - l and the mask of sigma inside the ramp."""
        l = np.minimum(np.maximum(np.floor(u).astype(int), 0), self.l_max)
        sigma = u - l
        return l, sigma, (sigma > RAMP_EPS) & (sigma < 1.0 - RAMP_EPS)

    def _slope(self, u):
        """lambda'(u) alone, by the expression of `lambda_eval`; u an array
        inside [-1, l_max + 1]."""
        l, sigma, mid = self._ramp(u)
        d1 = np.zeros(u.shape)
        d1[mid] = bump_profile().dbeta(sigma[mid]) * (self.x[l + 1] - self.x[l])[mid]
        return d1

    def curvature(self, u):
        return self.frame(u)[3]

    def point(self, u):
        val, _, _ = self.lambda_eval(u)
        return val, u + 0.0

    def frame(self, u):
        """(point, tangent, normal, curvature, speed) at the parameters of the array u.
        The curvature is -lambda''/w^3 with the speed w = sqrt(1 + lambda'^2)."""
        val, d1, d2 = self.lambda_eval(u)
        w = np.sqrt(1.0 + d1 * d1)
        return (val, u + 0.0), (d1 / w, 1.0 / w), (-1.0 / w, d1 / w), -d2 / w**3, w

    # -- arc length ---------------------------------------------------------

    @cached_property
    def arc_heights(self) -> np.ndarray:
        """s^i_l: arc length from p^i_0 to p^i_l along the curve, read off
        the arc-length grid, on which every anchor is a node."""
        return self._arc_maps[1][_ARC_CELLS::_ARC_CELLS]

    @cached_property
    def _arc_maps(self):
        """(u, s, ds/du, du/ds, lambda, lambda') on the arc-length grid, u in [-1, l_max + 1],
        whose `_ARC_CELLS` cells per unit height put u = 0 and every anchor on a
        node.  s(u) and u(s) interpolate the nodes with these exact slopes.
        Every height holds the same nodes sigma = k/_ARC_CELLS, so the ramp's rows
        on them (`BumpProfile.arc_rows`) are scaled per height, as `lambda_eval` would."""
        n_cells = _ARC_CELLS * (self.l_max + 2)
        u_grid = np.linspace(-1.0, self.l_max + 1, n_cells + 1)
        sigma, mid, beta, dbeta, bend = bump_profile().arc_rows
        # one row per unit height from u = -1, where the curve stands at x[0]
        anchors = np.concatenate([self.x[:1], self.x])
        xl, xr = anchors[:-1, None], anchors[1:, None]
        dx = xr - xl
        val = np.where(sigma >= 1.0 - RAMP_EPS, xr, xl)
        d1, d2 = np.zeros(val.shape), np.zeros(val.shape)
        val[:, mid] = xl + beta * dx
        d1[:, mid] = dbeta * dx
        d2[:, mid] = d1[:, mid] * bend
        val, d1, d2 = (np.append(a, end) for a, end in zip((val, d1, d2), (self.x[-1], 0.0, 0.0)))
        w = np.sqrt(1.0 + d1**2)
        s_arr = hermite_cumulative(u_grid, w, d1 * d2 / w)
        s_arr -= s_arr[_ARC_CELLS]  # anchor s(0) = 0 exactly
        return u_grid, s_arr, w, 1.0 / w, val, d1

    def arclength_of_param(self, u):
        u_grid, s_arr, w, *_ = self._arc_maps
        return hermite_eval(u_grid, s_arr, w, u)

    def param_of_arclength(self, s):
        u_grid, s_arr, _, dudS, *_ = self._arc_maps
        u = hermite_eval(s_arr, u_grid, dudS, s)
        hi = self.l_max + 1.0
        # polish the interpolated guess against the forward map
        for _ in range(3):
            speed = np.sqrt(1.0 + self._slope(u) ** 2)
            u = np.minimum(np.maximum(u - (self.arclength_of_param(u) - s) / speed, -1.0), hi)
        return u

    def kappa_at_arclength(self, s):
        return self.curvature(self.param_of_arclength(s))


def interval_bound_log(m: int, i: int, l: int) -> LogMagnitude:
    """ln A_{i,l} = -(m+4) ln2 - 10**(i+l+1) (ln3 + ln5), level kept symbolic."""
    if i < 0 or l < 0:
        raise ValueError("band and height must be nonnegative")
    return LogMagnitude(-((m + 4) * LN2_FIX + 10 ** (i + l + 1) * LN15_FIX), 0.0)


def window_reduce(ufunc, a, width: int):
    """ufunc (np.minimum or np.maximum) over each `width` consecutive entries of a,
    exactly: over spans doubled up to the largest power of two p <= width, then
    over the two spans of p that cover each window."""
    span = 1
    while 2 * span <= width:
        a, span = ufunc(a[:-span], a[span:]), 2 * span
    return ufunc(a[:len(a) - (width - span)], a[width - span:])


class BandChart:
    """Tubular (s, rho) coordinates of half-width 1/16 around a curve."""

    def __init__(self, curve: CurveFamily):
        self.curve = curve

    def chart_to_plane(self, s, rho):
        """(x, y) of the chart points (s, rho), arrays.  Any |rho| >= 1/16 raises ChartError."""
        if np.any(np.abs(rho) >= CHART_HALF_WIDTH):
            raise ChartError(f"|rho| = {np.max(np.abs(rho))} outside the chart")
        (x, y), _, normal, _, _ = self.curve.frame(self.curve.param_of_arclength(s))
        return x + rho * normal[0], y + rho * normal[1]

    def plane_to_chart(self, x, y):
        """(s, rho) of the plane points (x, y), 1-D arrays; NaN at points beyond
        the half-width and at points with a non-finite coordinate.  Only points
        that `_distance_bound` puts within the half-width are projected."""
        held = self._distance_bound(x, y) < CHART_HALF_WIDTH**2
        xh, yh = x[held], y[held]
        u = self._project(xh, yh)
        (gx, _), _, normal, _, _ = self.curve.frame(u)
        rho = (xh - gx) * normal[0] + (yh - u) * normal[1]
        on = np.abs(rho) < CHART_HALF_WIDTH
        held[held] = on
        s, rho = self.curve.arclength_of_param(u[on]), rho[on]
        out = np.full((2,) + x.shape, np.nan)
        out[:, held] = s, rho
        return out[0], out[1]

    @cached_property
    def _cell_boxes(self):
        """(top, hull_left, hull_right) per cell of the arc-length grid: its top,
        the last one without limit as `_project` extends the curve vertically past
        its ends, and the least and greatest x of the curve over the 2 `_REACH` + 1
        cells around it.  lambda is monotone on each unit height, so these are the
        min and max of the run's nodes, the end nodes repeated, by `window_reduce`."""
        u, *_, val, _ = self.curve._arc_maps
        top = u[1:].copy()
        top[-1] = np.inf
        val = np.pad(val, _REACH, mode="edge")
        return (top, window_reduce(np.minimum, val, 2 * _REACH + 2),
                window_reduce(np.maximum, val, 2 * _REACH + 2))

    def _distance_bound(self, x, y):
        """A lower bound on the squared distance of each point to the curve: the
        squared x-distance to the hull of the cells within the half-width of its
        height, as the rest of the curve is farther than that in height alone.
        The x-distance is capped at 1 before squaring, which holds no further
        point and keeps a far finite x from overflowing.  It is inf at a
        non-finite y and NaN at a NaN x."""
        top, hull_left, hull_right = self._cell_boxes
        finite = np.isfinite(y)
        k = np.searchsorted(top, np.where(finite, y, 0.0))  # the cell of each height
        dist = np.abs(x - np.minimum(np.maximum(x, hull_left[k]), hull_right[k]))
        return np.where(finite, np.minimum(dist, 1.0) ** 2, np.inf)

    def _project(self, x, y):
        """Foot of the normal through each (x, y), by Newton on
        (p - gamma(u)) . gamma'(u) = 0 for all points in lockstep; a point is
        frozen once its step is below 1e-14, so it takes the iterates it
        would take alone.  Newton starts at u = y, capped below the top end;
        the curve is vertical below its start, so there u = y is the foot."""
        u = np.minimum(y, self.curve.l_max + 0.75)
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


def curve_records(curve: CurveFamily):
    """Rows (s, x, y, kappa) along the curve, every 0.05 of arc length, for dumps and plots."""
    s_max = float(curve.arc_heights[-1])
    ds = 0.05
    s_vals = [0.0]
    while s_vals[-1] + ds <= s_max:
        s_vals.append(s_vals[-1] + ds)
    (x, y), _, _, kappa, _ = curve.frame(curve.param_of_arclength(np.array(s_vals)))
    return list(zip(s_vals, x.tolist(), y.tolist(), kappa.tolist()))
