"""Lifting a planar polynomial potential to a 3D Beltrami field.

The planar gradient of a polynomial F on {z = 0} is Cauchy data for the
vector Helmholtz equation; matching powers of z gives a two-step recursion
for the series coefficients, which are bivariate polynomials with exact
rational coefficients.  The Beltrami field is u = (curl v + lam*v)/(2 lam),
whose curl-eigenvalue and divergence residuals vanish identically through
the certifiable truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class Poly2:
    """Bivariate polynomial with exact rational coefficients.

    The coefficients are held as integer numerators over one positive common
    denominator, which sums, scalings and derivatives carry without a gcd;
    only the nonzero numerators are stored.  Values are reduced where they
    leave the class: `c`, the mapping (i, j) -> Fraction in lowest terms,
    and through it hash and repr.
    """

    __slots__ = ("_n", "_d", "_c")

    def __init__(self, coeffs=None):
        fracs = [(k, Fraction(v)) for k, v in (coeffs or {}).items()]
        d = math.lcm(*(v.denominator for _, v in fracs))
        self._n = {k: v.numerator * (d // v.denominator) for k, v in fracs if v}
        self._d = d
        self._c = None

    @classmethod
    def _of(cls, n: dict, d: int) -> "Poly2":
        p = cls.__new__(cls)
        p._n, p._d, p._c = n, d, None
        return p

    @property
    def c(self) -> dict:
        if self._c is None:
            self._c = {k: Fraction(v, self._d) for k, v in self._n.items()}
        return self._c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def variable(cls, name: str) -> "Poly2":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(name)

    def is_zero(self) -> bool:
        return not self._n

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return False
        a, b = self._d, other._d
        if a == b:
            return self._n == other._n
        return self._n.keys() == other._n.keys() and all(
            v * b == other._n[k] * a for k, v in self._n.items())

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        a, b = self._d, other._d
        d = a if a == b else math.lcm(a, b)
        fa, fb = d // a, d // b
        out = dict(self._n) if fa == 1 else {k: v * fa for k, v in self._n.items()}
        for k, v in other._n.items():
            w = out.get(k, 0) + v * fb
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return Poly2._of(out, d)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out = {}
            for (i1, j1), v1 in self._n.items():
                for (i2, j2), v2 in other._n.items():
                    k = (i1 + i2, j1 + j2)
                    w = out.get(k, 0) + v1 * v2
                    if w:
                        out[k] = w
                    else:
                        out.pop(k, None)
            return Poly2._of(out, self._d * other._d)
        s = Fraction(other)
        if not s:
            return Poly2()
        num = s.numerator
        return Poly2._of({k: v * num for k, v in self._n.items()}, self._d * s.denominator)

    __rmul__ = __mul__

    def dx(self) -> "Poly2":
        return Poly2._of({(i - 1, j): v * i for (i, j), v in self._n.items() if i}, self._d)

    def dy(self) -> "Poly2":
        return Poly2._of({(i, j - 1): v * j for (i, j), v in self._n.items() if j}, self._d)

    def laplacian(self) -> "Poly2":
        return self.dx().dx() + self.dy().dy()

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        # int / int is correctly rounded, so unreduced n/d gives float(Fraction)
        for (i, j), v in self._n.items():
            out = out + (v / self._d) * x**i * y**j
        return out

    def __repr__(self):
        if not self._n:
            return "Poly2(0)"
        terms = [f"{v}*x^{i}*y^{j}" for (i, j), v in sorted(self.c.items())]
        return "Poly2(" + " + ".join(terms) + ")"


Vec3 = tuple  # (Poly2, Poly2, Poly2)


def _vec(a=None, b=None, c=None) -> Vec3:
    z = Poly2.zero()
    return (a or z, b or z, c or z)


@dataclass(frozen=True)
class SeriesField3D:
    """Vector field Sum_k a_k(x, y) z^k, coefficients exact."""

    lam: Fraction
    K: int
    coeffs: tuple  # tuple of Vec3, index k = 0..K

    def evaluate(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast(x, y, z).shape
        out = [np.zeros(shape) for _ in range(3)]
        zk = np.ones(shape)
        for k, vec in enumerate(self.coeffs):
            if k:
                zk = zk * z
            for c in range(3):
                if not vec[c].is_zero():
                    out[c] = out[c] + vec[c](x, y) * zk
        return out


def cauchy_data(F: Poly2, lam) -> tuple[Vec3, Vec3]:
    """Initial data on {z = 0}: the planar gradient and its normal derivative."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("the curl eigenvalue must be nonzero")
    a0 = _vec(F.dx(), F.dy(), None)
    a1 = _vec(F.dy() * lam, F.dx() * (-lam), F.laplacian() * Fraction(-1))
    return a0, a1


def extend_series(data: tuple[Vec3, Vec3], lam, K: int) -> SeriesField3D:
    """Fill the z-series by the two-step Helmholtz recursion, exactly."""
    if K < 2:
        raise ValueError("need at least a second-order truncation")
    lam = Fraction(lam)
    lam2 = lam * lam
    coeffs = [data[0], data[1]]
    for k in range(K - 1):
        nxt = _vec(*[
            (lam2 * coeffs[k][c] + coeffs[k][c].laplacian())
            * Fraction(-1, (k + 1) * (k + 2))
            for c in range(3)
        ])
        coeffs.append(nxt)
    return SeriesField3D(lam, K, tuple(coeffs))


def _series_curl(v: SeriesField3D) -> SeriesField3D:
    """curl of a z-series; loses one z-order."""
    out = []
    for k in range(v.K):
        v1, v2, v3 = v.coeffs[k]
        n1, n2, _ = v.coeffs[k + 1]
        kk = Fraction(k + 1)
        out.append((
            v3.dy() - n2 * kk,
            n1 * kk - v3.dx(),
            v2.dx() - v1.dy(),
        ))
    return SeriesField3D(v.lam, v.K - 1, tuple(out))


def assemble_beltrami(v: SeriesField3D) -> SeriesField3D:
    """u = (curl v + lam v)/(2 lam), truncated at order K - 1."""
    cv = _series_curl(v)
    half = Fraction(1, 2) / v.lam
    out = []
    for k in range(cv.K + 1):
        out.append(tuple(
            (cv.coeffs[k][c] + v.lam * v.coeffs[k][c]) * half for c in range(3)
        ))
    return SeriesField3D(v.lam, cv.K, tuple(out))


def _series_div(v: SeriesField3D):
    """Coefficients of div v, defined through order K - 1."""
    out = []
    for k in range(v.K):
        v1, v2, _ = v.coeffs[k]
        n3 = v.coeffs[k + 1][2]
        out.append(v1.dx() + v2.dy() + n3 * Fraction(k + 1))
    return out


def residuals(u: SeriesField3D, v: SeriesField3D, F: Poly2, lam) -> dict:
    """Exact residual report for the assembled field.

    curl u - lam u and div v must vanish coefficient-wise through order
    K - 2 (one order is lost to curl, one to the certification), and the
    plane restriction u|_{z=0} must equal (F_x, F_y, 0) exactly.
    """
    lam = Fraction(lam)
    cu = _series_curl(u)
    check_to = v.K - 2
    curl_order = None
    for k in range(min(cu.K + 1, check_to + 1)):
        res = tuple(cu.coeffs[k][c] - lam * u.coeffs[k][c] for c in range(3))
        if any(not p.is_zero() for p in res):
            curl_order = k
            break
    div = _series_div(v)
    div_order = None
    for k in range(min(len(div), check_to + 1)):
        if not div[k].is_zero():
            div_order = k
            break
    plane_ok = (
        u.coeffs[0][0] == F.dx()
        and u.coeffs[0][1] == F.dy()
        and u.coeffs[0][2].is_zero()
    )
    return {
        "curl_residual_order": curl_order,  # None: clean through K - 2
        "div_residual_order": div_order,
        "plane_restriction_ok": plane_ok,
        "checked_through": check_to,
    }


def beltrami_from_potential(F: Poly2, lam, K: int = 20) -> tuple[SeriesField3D, SeriesField3D]:
    """Convenience: (v, u) with u the Beltrami lift of the potential F."""
    v = extend_series(cauchy_data(F, lam), lam, K)
    return v, assemble_beltrami(v)


# ---------------------------------------------------------------------------
# windowed potential fitting


# samples per side of the window fit's rectangular grid
_FIT_GRID = 48


def _least_squares_fit(xs, ys, values, gx, gy, degree: int):
    """(F, sup value error, l2 value error, sup gradient error) of the
    least-squares polynomial of total degree `degree` through the samples,
    whose gradient is compared with (gx, gy).  F's coefficients are rounded
    to the dyadic grid 2^-40, so a fit of a polynomial on that grid loses its
    float noise."""
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    if len(xs) < len(monos):
        raise ValueError("window intersects too little of the bands for this degree")
    A = np.column_stack([xs**i * ys**j for i, j in monos])
    sol, *_ = np.linalg.lstsq(A, values, rcond=None)
    F = Poly2({m: Fraction(round(float(c) * 2**40), 2**40) for m, c in zip(monos, sol)})
    Fx, Fy = F.dx(), F.dy()
    resid = A @ sol - values
    sup_val = float(np.max(np.abs(resid)))
    l2_val = float(np.sqrt(np.mean(resid**2)))
    sup_grad = float(np.max(np.hypot(Fx(xs, ys) - gx, Fy(xs, ys) - gy), initial=0.0))
    return F, sup_val, l2_val, sup_grad


def fit_window_polynomial(fs, window, degree: int) -> dict:
    """Least-squares polynomial fit of the Cartesian potential on a window.

    `window` is (x0, x1, y0, y1); samples are the `_FIT_GRID`-square grid's
    nodes where the cutoff is 1 (|rho| <= RHO0/2).  A sup gradient error of 0,
    or below the smallest scheduled perturbation threshold meeting the window,
    is certified; else the status is insufficient degree (not raised).
    """
    from .curves import RHO0
    from .field import _chart_field, _chart_potential, _locate, error_schedule

    if degree < 1:
        raise ValueError("degree must be >= 1")
    x0, x1, y0, y1 = window
    xs, ys = (g.ravel() for g in np.meshgrid(np.linspace(x0, x1, _FIT_GRID),
                                             np.linspace(y0, y1, _FIT_GRID), indexing="ij"))
    # each sample is located once; potential and field share its chart point
    band, s, rho = _locate(fs, xs, ys)
    keep = (band >= 0) & (np.abs(rho) <= RHO0 / 2)
    xs, ys = xs[keep], ys[keep]
    located = (band[keep], s[keep], rho[keep])
    fvals = _chart_potential(fs, *located)
    gx, gy = _chart_field(fs, *located)
    F, sup_val, l2_val, sup_grad = _least_squares_fit(xs, ys, fvals, gx, gy, degree)
    schedule = error_schedule(fs)
    lns = [th.ln() for (i, l), th in schedule.thresholds.items()
           if x0 <= 2 * i + 1 and 2 * i <= x1 and y0 <= l + 1.25 and l - 0.25 <= y1]
    ln_threshold = min(lns) if lns else -math.inf
    certified = sup_grad == 0.0 or (
        sup_grad > 0.0 and math.log(sup_grad) < ln_threshold
    )
    return {
        "F": F,
        "sup_value_error": sup_val,
        "l2_value_error": l2_val,
        "sup_gradient_error": sup_grad,
        "ln_threshold": ln_threshold,
        "certified": certified,
        "status": "certified" if certified else "insufficient degree",
        "samples": len(xs),
    }


# ---------------------------------------------------------------------------
# export


def series_rows(v: SeriesField3D):
    """Rows (k, component, i, j, numerator, denominator) for the dump."""
    rows = []
    for k, vec in enumerate(v.coeffs):
        for c in range(3):
            for (i, j), val in sorted(vec[c].c.items()):
                rows.append((k, c, i, j, val.numerator, val.denominator))
    return rows

