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
import sys
from functools import cache

import numpy as np

from .curves import (
    CHART_HALF_WIDTH,
    RAMP_EPS,
    RHO0,
    BandChart,
    CurveFamily,
    bump_profile,
    flat,
    hermite_cumulative,
    hermite_eval,
    interval_bound_log,
)
from .logmag import FIX, LN2, LN8, LN15, LogMagnitude
from .machine import MachineSpec

LAMBDA0 = 1.0 / (320.0 * LN15 + 32.0 * LN2)
GAMMA0 = 4.0 * LAMBDA0 / 31.0


def cutoff(t):
    """Smooth transition: 1 for t <= 1/2, 0 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = flat(1.0 - t)
    b = flat(2.0 * (t - 0.5))
    return a / (a + b + 1e-300)


def contraction_speed_limit(level: int) -> float:
    """Largest flow speed the one-step contraction certifies at `level` = band + height.

    The slowest admissible crossing takes time (gap - eps)/(16 lam) >=
    (1 - eps)/(16 lam), eps = RAMP_EPS; the required log drop is the
    interval-bound gap plus one halving.  Level gaps grow like
    9*10^(level+1) ln15, so the admissible speed shrinks double-exponentially
    with the level.
    """
    drop = 9 * 10 ** (level + 1) * LN15 + LN2
    return (1.0 - RAMP_EPS) / (16.0 * drop)


@cache
def height_ceiling(lambda_frac: float) -> int:
    """The deepest level i + l that a field of speed `lambda_frac` runs in floats.

    There the level speed lambda_frac * contraction_speed_limit is a normal
    float, so the slowness and the flow time (below 2.3 times the slowness:
    arc-length gaps are below 2 and the speeds fall tenfold per level) are
    finite, and so is the schedule's M tau, M (gap + 1) (31/4) over the limit
    with M below 5, so below 120 over the limit.
    """
    k = 0
    while (lambda_frac * contraction_speed_limit(k + 1) >= sys.float_info.min
           and 120.0 / contraction_speed_limit(k + 1) < sys.float_info.max):
        k += 1
    return k


def check_height_budget(n_bands: int, l_max: int, lambda_frac: float):
    """Raise ValueError if a field of `n_bands` bands and `l_max` heights
    reaches a level past `height_ceiling(lambda_frac)`."""
    ceiling = height_ceiling(lambda_frac)
    if n_bands + l_max > ceiling:  # the deepest level flown
        raise ValueError(f"n_bands + l_max = {n_bands + l_max} passes the float ceiling {ceiling}")


class FieldSpec:
    """Per-machine planar field: lazy band charts plus the flow constants.

    `lam` = lambda_frac * LAMBDA0 is the top speed: it fixes the time-delta
    threshold and the time of the sphere field.  The flow itself runs on
    band i from height l to l + 1 at the level speed
    lambda_frac * contraction_speed_limit(i + l), which is far below `lam`
    (see `LevelSpeed`).
    """

    def __init__(self, machine: MachineSpec, n_bands: int, l_max: int,
                 lambda_frac: float = 0.5):
        if not 0.0 < lambda_frac < 1.0:
            raise ValueError("lambda_frac must be in (0, 1): the flow speed "
                             "must stay below the contraction ceiling")
        if n_bands < 1 or l_max < 1:
            raise ValueError("need at least one band and one height")
        check_height_budget(n_bands, l_max, lambda_frac)
        self.machine = machine
        self.n_bands = n_bands
        self.l_max = l_max
        self.lambda_frac = lambda_frac
        self.lam = lambda_frac * LAMBDA0
        self._charts: dict[int, BandChart] = {}
        self._speeds: dict[int, LevelSpeed] = {}
        self._kernels: dict[tuple[int, int], tuple] = {}

    def level_speed(self, band: int, height: int) -> float:
        """Flow speed on band `band` from height `height` to the next."""
        return self.lambda_frac * contraction_speed_limit(band + height)

    def speed(self, band: int) -> "LevelSpeed":
        if band not in self._speeds:
            self._speeds[band] = LevelSpeed(self, band)
        return self._speeds[band]

    def curve(self, band: int) -> CurveFamily:
        return self.chart(band).curve

    def forcing_kernel(self, band: int, l: int):
        """(A, B, ln_scale): a bump of peak 1 and unit direction (d_x, d_y) in box
        (band, l) adds e^ln_scale (d_y A - d_x B) to rho by anchor l + 1."""
        if (band, l) not in self._kernels:
            self._kernels[(band, l)] = _forcing_kernel(self, band, l)
        return self._kernels[(band, l)]

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

    def __init__(self, fs: FieldSpec, band: int):
        self.anchors = np.asarray(fs.curve(band).arc_heights, dtype=float)
        self.levels = np.array([fs.level_speed(band, l) for l in range(len(self.anchors))])
        self._slow = 1.0 / self.levels
        # slowness step at the next anchor; none past the last one
        self._dslow = np.append(np.diff(self._slow), 0.0)
        self._next = np.append(self.anchors[1:], np.inf)
        seg = np.diff(self.anchors) * self._slow[:-1] + self._dslow[:-1] * bump_profile().ramp_time
        self._anchor_time = np.concatenate([[0.0], np.cumsum(seg)])
        self._vals, self._cum = [], []  # the potential's ramp rows, built as read

    def _locate(self, s):
        k = np.minimum(np.maximum(np.searchsorted(self.anchors, s, side="right") - 1, 0),
                       len(self.anchors) - 1)
        return k, (s - self._next[k]) / RAMP_EPS + 1.0

    def __call__(self, s):
        """lambda_i(s); array friendly."""
        k, sigma = self._locate(s)
        return 1.0 / (self._slow[k] + self._dslow[k] * bump_profile().beta(sigma))

    def time_to(self, s):
        """Flow time from s = 0 to each arc length of the array s along the curve.
        The ramp term is added only where sigma > RAMP_EPS: below, the integral
        of beta is 0."""
        k, sigma = self._locate(s)
        t = self._anchor_time[k] + (s - self.anchors[k]) * self._slow[k]
        ramp = sigma > RAMP_EPS
        if ramp.any():
            k, sigma = k[ramp], sigma[ramp]
            t[ramp] += self._dslow[k] * RAMP_EPS * bump_profile().beta_integral(sigma)
        return t

    def time(self, s_a, s_b):
        """Flow time from s_a to s_b, the integral of 1/lambda_i."""
        return self.time_to(s_b) - self.time_to(s_a)

    def _potential_tables(self, k: int):
        """(vals, cum, at_anchor) with rows 0..k at least.  Row j of vals:
        lambda/lambda_j = 1/(1 + (r - 1) beta) over the ramp before anchor j + 1; of
        cum: its integral.  at_anchor: the potential at the anchors the rows reach.
        Rows 0..k are built as one table when a read first needs a row past those built."""
        if k >= len(self._cum):
            grid, beta, dbeta = bump_profile().level_rows
            r1 = self._slow[1:k + 2, None] / self._slow[:k + 1, None] - 1.0
            vals = self._vals = 1.0 / (1.0 + r1 * beta)
            self._cum = hermite_cumulative(grid, vals, -r1 * dbeta * vals * vals)
            ends = RAMP_EPS * self._cum[:, -1]
            seg = (np.diff(self.anchors[:k + 2]) - RAMP_EPS + ends) * self.levels[:k + 1]
            self._at_anchor = np.concatenate([[0.0], np.cumsum(seg)])
        return self._vals, self._cum, self._at_anchor

    def potential(self, s):
        """Lambda_i(s): the integral of lambda_i from 0 to each arc length of the 1-D array s."""
        k, sigma = self._locate(s)
        lam = self.levels[k]
        # the ramp reads the row of its own level, at_anchor the rows below it
        vals, cum, at_anchor = self._potential_tables(min(k.max(initial=0), len(self.anchors) - 2))
        out = at_anchor[k] + lam * (np.minimum(s, self._next[k] - RAMP_EPS) - self.anchors[k])
        grid = bump_profile().level_rows[0]
        for kk in np.unique(k[sigma > 0.0]).tolist():
            m = (k == kk) & (sigma > 0.0)
            ramp = hermite_eval(grid, cum[kk], vals[kk], np.minimum(sigma[m], 1.0))
            out[m] += RAMP_EPS * lam[m] * ramp
        return out


# Taylor terms of the forcing kernel's G in eps: against 48 terms (right_filler,
# lambda_frac 0.9) 16 leave 3.4e-11 nats, 20 leave 1.4e-14 and 24 leave 1.8e-15
_KERNEL_TERMS = 24


def _series_exp(a):
    """Taylor coefficients of e^a from those of a: n f_n = sum_k k a_k f_(n-k)."""
    f, ka = np.zeros(len(a)), np.arange(len(a)) * a
    f[0] = math.exp(a[0])
    for n in range(1, len(a)):
        f[n] = ka[1:n + 1] @ f[n - 1::-1] / n
    return f


def _series_pow(a, p: float):
    """Taylor coefficients of a^p, a_0 > 0, by J. C. P. Miller's recurrence
    n a_0 f_n = sum_k ((p + 1) k - n) a_k f_(n-k)."""
    f, k = np.zeros(len(a)), np.arange(len(a))
    f[0] = a[0] ** p
    for n in range(1, len(a)):
        f[n] = ((p + 1.0) * k[1:n + 1] - n) * a[1:n + 1] @ f[n - 1::-1] / (n * a[0])
    return f


@cache
def _edge_slope_ratio():
    """Taylor coefficients in delta of lambda'(u - delta)/lambda'(u) at a support's top
    edge, sigma = 3/4 on every curve: ln flat(sigma(1 - sigma)) = -1/sigma - 1/(1 - sigma)."""
    n = np.arange(_KERNEL_TERMS)
    return _series_exp(-((4.0 / 3.0) ** (n + 1) + 4.0 * (-4.0) ** n) * (n > 0))


def _bessel_k_ratios(z: float):
    """ln(K_1(z) e^z sqrt(2z/pi)) and K_(n+1)(z)/K_1(z), n < _KERNEL_TERMS, for z > 40:
    K_0 and K_1 by 30 terms of their large-z expansions (DLMF 10.40.2), the last
    below 1e-27 at z = 44, then the stable upward recurrence K_(n+1) = K_(n-1) + (2n/z) K_n."""
    k = np.arange(1, 31)
    terms = np.cumprod((np.array([[0.0], [4.0]]) - (2 * k - 1) ** 2) / (8.0 * k * z), axis=1)
    k0, k1 = 1.0 + terms.sum(axis=1)
    ratios = [k0 / k1, 1.0]
    for n in range(1, _KERNEL_TERMS):
        ratios.append(ratios[-2] + 2.0 * n / z * ratios[-1])
    return math.log(k1), np.array(ratios[1:])


def _forcing_kernel(fs: FieldSpec, band: int, l: int):
    """`FieldSpec.forcing_kernel` in closed form.

    d(rho)/dt = -rho + P . n, and over the support the flow runs at the level
    speed lam, so at depth delta below the support's top edge the bump adds by
    anchor l + 1 the integral of e^(-T_top)/lam (both bumps) (d_y lambda' - d_x)
    e^(-K(delta)/lam) d(delta), T_top the time from the edge to the anchor and K
    the arc length from the edge.  With w = sqrt(1 + lambda'^2) at the edge and
    c = w/lam that is e^(3/4 - 1/(8 delta) - c delta) (d_y lambda' - d_x) G(delta),
    G smooth: the x-bump e^(1 - 1/(4t(1 - t))), t = x - 2 band + 1/4, times
    e^(-delta/(2(1 - 2 delta))) and e^(-(K - w delta)/lam).  In eps = delta/delta*,
    delta* = (8c)^(-1/2), the exponent is -z cosh ln eps, z = sqrt(c/2), so eps^n
    integrates to 2 K_(n+1)(z) over (0, inf) (DLMF 10.32.9); past delta = 1/2 it
    is below e^(-z^2).  -z is carried exactly, from the floats' exact ratios.
    """
    curve, speed = fs.curve(band), fs.speed(band)
    u_top, lam = l + 0.75, float(speed.levels[l])
    x_top, slope_top, _ = (float(v[0]) for v in curve.lambda_eval(np.array([u_top])))
    w = math.sqrt(1.0 + slope_top * slope_top)
    n = np.arange(_KERNEL_TERMS)
    # Taylor series in delta: lambda', the arc speed sqrt(1 + lambda'^2) and t, t' = -lambda'
    ratio = _edge_slope_ratio()
    slope = slope_top * ratio
    arc_speed = _series_pow(np.convolve(slope, slope)[:_KERNEL_TERMS] + (n == 0), 0.5)
    t = np.concatenate([[x_top - 2 * band + 0.25], -slope[:-1] / n[1:]])
    # ln G but its arc term: the x-bump's log and -delta/(2(1 - 2 delta))
    ln_g = (n == 0) - 0.25 * _series_pow(t - np.convolve(t, t)[:_KERNEL_TERMS], -1.0)
    ln_g[1:] -= 2.0 ** (n[1:] - 2)
    # to eps: delta^n scales by delta*^n, and (K - w delta)/lam by delta*^2/lam = 1/(8w)
    ln_c = math.log(w) - math.log(lam)
    powers = math.exp(-0.5 * (LN8 + ln_c)) ** n
    ln_g *= powers
    ln_g[2:] -= arc_speed[1:-1] / n[2:] * powers[:-2] / (8.0 * w)
    g = _series_exp(ln_g)
    ln_k1, ratios = _bessel_k_ratios(math.exp(0.5 * (ln_c - LN2)))
    a = slope_top * (np.convolve(ratio * powers, g)[:_KERNEL_TERMS] @ ratios)
    # e^(3/4) 2 delta* K_1(z)/lam e^(-T_top), K_1(z) = sqrt(pi/(2z)) e^(-z) e^ln_k1
    (w_n, w_d), (lam_n, lam_d) = w.as_integer_ratio(), lam.as_integer_ratio()
    z_fix = math.isqrt(FIX * FIX * w_n * lam_d // (2 * w_d * lam_n))
    t_top = float(speed.time(curve.arclength_of_param(np.array([u_top])),
                             curve.arc_heights[l + 1:l + 2])[0])
    off = (0.75 + 0.5 * math.log(math.pi) - 0.75 * LN2 - 0.75 * math.log(w)
           - 0.25 * math.log(lam) + ln_k1)
    return a, g @ ratios, LogMagnitude(-z_fix, off) - LogMagnitude.fixed(t_top)


def _locate(fs: FieldSpec, x, y):
    """(band, s, rho) of plane points; array friendly.  A point tries the band
    to its left first; where no chart holds it, band is -1 and s, rho NaN.
    One projection per band, in ascending order, so a point's left band is first."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = x.shape
    x, y = np.atleast_1d(x, y)
    band = np.full(x.shape, -1)
    s, rho = np.full((2,) + x.shape, np.nan)
    left = np.floor((x - CHART_HALF_WIDTH) / 2.0)
    right = np.floor((x + CHART_HALF_WIDTH) / 2.0)
    for i in range(fs.n_bands):
        todo = (band < 0) & ((left == i) | (right == i))
        if not todo.any():
            continue
        si, ri = fs.chart(i).plane_to_chart(x[todo], y[todo])
        held = ~np.isnan(si)
        hit = todo.copy()
        hit[todo] = held
        band[hit], s[hit], rho[hit] = i, si[held], ri[held]
    return band.reshape(shape), s.reshape(shape), rho.reshape(shape)


def _chart_field(fs: FieldSpec, band, s, rho):
    """The plane field (vx, vy) at points located by `_locate`: zero where
    band is -1 or the cutoff vanishes."""
    vx, vy = (np.zeros(band.shape) for _ in range(2))
    # rho is NaN off the charts, where the cutoff is zero
    chi = np.asarray(cutoff(np.abs(rho) / RHO0))
    on = chi != 0.0
    for i in np.unique(band[on]).tolist():
        m = on & (band == i)
        curve = fs.curve(i)
        _, tangent, normal, kappa, _ = curve.frame(curve.param_of_arclength(s[m]))
        a = fs.speed(i)(s[m]) / (1.0 - kappa * rho[m])
        vx[m] = chi[m] * (a * tangent[0] - rho[m] * normal[0])
        vy[m] = chi[m] * (a * tangent[1] - rho[m] * normal[1])
    return vx, vy


def field_eval_plane(fs: FieldSpec, x, y):
    """The Cartesian plane field (vx, vy) at the points of the arrays x, y, in
    their shape; zero off the charts."""
    return _chart_field(fs, *_locate(fs, x, y))


def _chart_potential(fs: FieldSpec, band, s, rho):
    """Lambda_i(s) - rho^2/2 at points located by `_locate`; NaN where band is -1."""
    out = np.full(band.shape, np.nan)
    for i in np.unique(band[band >= 0]).tolist():
        m = band == i
        out[m] = fs.speed(i).potential(s[m]) - rho[m] * rho[m] / 2.0
    return out


def potential_plane(fs: FieldSpec, x, y):
    """Lambda_i(s) - rho^2/2 at the points of the arrays x, y, in their shape;
    NaN outside every chart."""
    return _chart_potential(fs, *_locate(fs, x, y))


def _sample_points(fs: FieldSpec, samples: int, seed: int, half_width):
    """Plane points of seeded draws (band, s, |rho| < half_width(band, s)), placed per band."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        i = int(rng.integers(0, fs.n_bands))
        s = float(rng.uniform(0.0, fs.curve(i).arc_heights[-1]))
        w = half_width(i, s)
        draws.append((i, s, float(rng.uniform(-w, w))))
    band, s, rho = np.array(draws, dtype=float).reshape(-1, 3).T
    x, y = np.empty(band.shape), np.empty(band.shape)
    for i in np.unique(band).astype(int).tolist():
        m = band == i
        x[m], y[m] = fs.chart(i).chart_to_plane(s[m], rho[m])
    return x, y


def verify_gradient(fs: FieldSpec, samples: int, seed: int = 0):
    """Compare the plane field with central differences of the potential.

    Samples points with |rho| <= RHO0/2 where the cutoff is identically 1;
    reports the max relative gradient error and the max curl residual.
    """
    h = 1e-6  # the central differences' step
    x, y = _sample_points(fs, samples, seed, lambda i, s: RHO0 / 2)
    # each point and its four neighbours at distance h
    px = np.array([x, x + h, x - h, x, x])
    py = np.array([y, y, y, y + h, y - h])
    vx, vy = field_eval_plane(fs, px, py)
    pot = potential_plane(fs, px[1:], py[1:])
    gx = (pot[0] - pot[1]) / (2 * h)
    gy = (pot[2] - pot[3]) / (2 * h)
    rel = np.hypot(vx[0] - gx, vy[0] - gy) / np.hypot(vx[0], vy[0])
    curl = np.abs((vy[1] - vy[2]) / (2 * h) - (vx[3] - vx[4]) / (2 * h))
    return {"samples": samples, "max_rel_error": float(np.max(rel, initial=0.0)),
            "max_curl": float(np.max(curl, initial=0.0))}


@cache
def _cutoff_peaks() -> tuple[float, float]:
    """sup |(t chi)'| and sup |chi'| over (1/2, 1), off which chi is constant: each
    the best node of a 1001-point grid, re-gridded between its neighbours until
    they are 1e-14 apart, plus 1e-9 relative for rounding.  Computed on first use."""

    def dchi(t):
        a, b = flat(1.0 - t), flat(2.0 * t - 1.0)
        return -a * b * (1.0 / (1.0 - t) ** 2 + 2.0 / (2.0 * t - 1.0) ** 2) / (a + b) ** 2

    sups = []
    for f in (lambda t: cutoff(t) + t * dchi(t), dchi):
        t = np.linspace(0.501, 0.999, 1001)
        for _ in range(5):
            k = int(np.argmax(np.abs(f(t))))
            t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, 1000)], 1001)
        sups.append(float(np.max(np.abs(f(t)))) * (1.0 + 1e-9))
    return tuple(sups)


def derivative_bound(fs: FieldSpec) -> float:
    """M >= |DX| over the plane, in closed form.

    In the frame (T, N) at a chart point's foot, X = chi(t) (a T - rho N) with
    t = |rho|/RHO0 and a = lambda_i(s)/(1 - kappa rho).  With q = 1 - kbar RHO0, the
    entries of DX are at most: N-N, S1 = sup |(t chi)'| = 4.0773; T-T, (|lambda_s|/q
    + lam |kappa_s| RHO0/q^2 + kbar RHO0)/q; off the diagonal, lam (sup |chi'|/RHO0
    + kbar)/q^2.  lam is the fastest level speed, band 0's at height 0, whose ramp
    has the steepest lambda_s.  Anchor gaps are below 1/2, so |kappa| <= kbar =
    sup |lambda''| and |kappa_s| <= sup |lambda'''| + 3 kbar^2 sup |lambda'|, where
    g = flat(p), p = u(1 - u) <= 1/4, has |g''| <= e^(-1/p) (p^-4 + 2 p^-3) <= 384 e^-4.
    M is the spectral norm of the matrix of these bounds.
    """
    profile = bump_profile()
    s1, dchi = _cutoff_peaks()
    dbeta = math.exp(-4.0) / profile.Z  # sup beta' = g(1/2)/Z
    kbar = profile.sup_expression / profile.Z / 2.0
    q = 1.0 - kbar * RHO0
    lam = fs.level_speed(0, 0)
    lam_s = lam * (lam / fs.level_speed(0, 1) - 1.0) * dbeta / RAMP_EPS
    kappa_s = (384.0 + 3.0 * kbar**2) * dbeta / 2.0
    tt = (lam_s / q + lam * kappa_s * RHO0 / q**2 + kbar * RHO0) / q
    off = lam * (dchi / RHO0 + kbar) / q**2
    return (tt + s1) / 2.0 + math.hypot((s1 - tt) / 2.0, off)


def error_schedule(fs: FieldSpec) -> dict:
    """Thresholds {(i, l): ln eps^i_l} for the boxes (i, l) of every band i and
    height l <= l_max, where

        eps^i_l = (M/(e^{M tau_il} - 1)) * min(eps/2, A_{i,l+1}/8),  eps = RAMP_EPS.

    M is `derivative_bound`, uniform across boxes, and tau_il the crossing-time
    budget of box (i, l): (max anchor gap + 1) / Gamma0 at the top speed, scaled
    by the ratio of the top speed to the slowest level speed in the box, that of
    height l + 1.  The min is always A/8: ln(A_{i,l+1}/8) < -276 while
    ln(eps/2) = -5.3.  And the -1 is below double precision: M >= 4.077 (the
    cutoff's own sup), 1/Gamma0 > 6,800 and the speed ratio exceeds 44, so
    M tau > 1e6.  So ln eps^i_l = ln(A_{i,l+1}/8) + ln M - M tau_il, with M tau_il
    (up to ~1e300 at the height ceiling) carried in the fixed-point part.
    """
    M = derivative_bound(fs)
    max_gap = max(
        float(np.max(np.diff(fs.curve(i).arc_heights))) for i in range(fs.n_bands)
    )
    tau_top = (max_gap + 1.0) / GAMMA0
    m = fs.machine.m
    return {
        (i, l): interval_bound_log(m, i, l + 1) - LN8 + math.log(M)
        - LogMagnitude.fixed(M * (tau_top * fs.lam / fs.level_speed(i, l + 1)))
        for i in range(fs.n_bands) for l in range(fs.l_max + 1)
    }
