"""Lifting a planar polynomial potential to a 3D Beltrami field.

The planar gradient of a polynomial F on {z = 0} is Cauchy data for the
vector Helmholtz equation; matching powers of z gives the two-step recursion
a_(k+2) = -(lam^2 + Laplacian) a_k / ((k + 1)(k + 2)), so every order is a
derivative of one scalar sequence P_0 = F, P_(m+1) = lam^2 P_m + Laplacian P_m:

    a_2m   = (-1)^m / (2m)!     (d_x P_m, d_y P_m, 0)
    a_2m+1 = (-1)^m / (2m + 1)! (lam d_y P_m, -lam d_x P_m, -Laplacian P_m),

bivariate polynomials with exact rational coefficients.  The normal
derivative a_1 is the one that curl u = lam u and div u = 0 force on
{z = 0}, so the series is itself Beltrami: (curl v + lam v)/(2 lam) = v
through order K - 1, and the lift u is v's terms through that order.
`residuals` certifies curl u = lam u and div v = 0 exactly on every lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import RHO0
from .field import _chart_field, _chart_potential, _locate, error_schedule


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
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "Poly2":
        """self + sign * other, over the least common denominator."""
        a, b = self._d, other._d
        d = a if a == b else math.lcm(a, b)
        fa, fb = d // a, sign * (d // b)
        out = dict(self._n) if fa == 1 else {k: v * fa for k, v in self._n.items()}
        for k, v in other._n.items():
            w = out.get(k, 0) + v * fb
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return Poly2._of(out, d)

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
        s = other if isinstance(other, (int, Fraction)) else Fraction(other)
        num, den = s.numerator, s.denominator
        if not num:
            return Poly2()
        if num == den:  # times 1; a Poly2 is never changed in place
            return self
        return Poly2._of({k: v * num for k, v in self._n.items()}, self._d * den)

    __rmul__ = __mul__

    def dx(self) -> "Poly2":
        return Poly2._of({(i - 1, j): v * i for (i, j), v in self._n.items() if i}, self._d)

    def dy(self) -> "Poly2":
        return Poly2._of({(i, j - 1): v * j for (i, j), v in self._n.items() if j}, self._d)

    def laplacian(self) -> "Poly2":
        """dx dx + dy dy, the terms in the order that sum builds them."""
        out = {(i - 2, j): v * i * (i - 1) for (i, j), v in self._n.items() if i > 1}
        for (i, j), v in self._n.items():
            if j > 1:
                out[(i, j - 2)] = out.get((i, j - 2), 0) + v * j * (j - 1)
        return Poly2._of({k: v for k, v in out.items() if v}, self._d)

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


@dataclass(frozen=True)
class SeriesField3D:
    """Vector field Sum_k a_k(x, y) z^k, coefficients exact."""

    lam: Fraction
    K: int
    coeffs: tuple  # index k = 0..K: a_k as a (Poly2, Poly2, Poly2)

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


def residuals(u: SeriesField3D, v: SeriesField3D, F: Poly2, lam) -> dict:
    """Exact residual report for the lift u of F and its series v.

    curl u - lam u and div v must vanish coefficient-wise through order
    K - 2 (one order is lost to curl, one to the certification), and the
    plane restriction u|_{z=0} must equal (F_x, F_y, 0) exactly.  Each
    order's residual is built only when the orders below it are clean.
    """
    lam = Fraction(lam)
    check_to = v.K - 2

    def curl_bad():
        for k in range(min(u.K, check_to + 1)):
            a, n = u.coeffs[k], u.coeffs[k + 1]
            curl = (a[2].dy() - n[1] * (k + 1), n[0] * (k + 1) - a[2].dx(), a[1].dx() - a[0].dy())
            if any(c != lam * p for c, p in zip(curl, a)):
                yield k

    def div_bad():
        for k in range(min(v.K, check_to + 1)):
            a, n = v.coeffs[k], v.coeffs[k + 1]
            if not (a[0].dx() + a[1].dy() + n[2] * (k + 1)).is_zero():
                yield k

    plane_ok = u.coeffs[0][0] == F.dx() and u.coeffs[0][1] == F.dy() and u.coeffs[0][2].is_zero()
    return {
        "curl_residual_order": next(curl_bad(), None),  # None: clean through K - 2
        "div_residual_order": next(div_bad(), None),
        "plane_restriction_ok": plane_ok,
        "checked_through": check_to,
    }


def beltrami_from_potential(F: Poly2, lam, K: int = 20) -> tuple[SeriesField3D, SeriesField3D]:
    """(v, u): the Helmholtz series v of F, cut at order K, and its Beltrami
    lift u, the terms of v through order K - 1 (see the module docstring)."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("the curl eigenvalue must be nonzero")
    if K < 2:
        raise ValueError("need at least a second-order truncation")
    coeffs, P, lam2 = [], F, lam * lam
    for k in range(0, K + 1, 2):  # orders k and k + 1 from P = P_(k/2)
        px, py = P.dx(), P.dy()
        s = Fraction((-1) ** (k // 2), math.factorial(k))
        coeffs.append((px * s, py * s, Poly2()))
        if k < K:
            lap, s = P.laplacian(), s / (k + 1)
            coeffs.append((py * (lam * s), px * (-lam * s), lap * -s))
            P = P * lam2 + lap
    coeffs = tuple(coeffs)
    return SeriesField3D(lam, K, coeffs), SeriesField3D(lam, K - 1, coeffs[:K])


# ---------------------------------------------------------------------------
# windowed potential fitting


# samples per side of the window fit's rectangular grid
_FIT_GRID = 48


class FitError(ValueError):
    """A fit degree with more monomials than the window keeps samples."""


def _least_squares_fit(xs, ys, values, gx, gy, degree: int):
    """(F, sup value error, l2 value error, sup gradient error) of the
    least-squares polynomial of total degree `degree` through the samples,
    whose gradient is compared with (gx, gy).  F's coefficients are rounded
    to the dyadic grid 2^-40, so a fit of a polynomial on that grid loses its
    float noise."""
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    if len(xs) < len(monos):
        raise FitError(f"degree {degree} has {len(monos)} monomials, more than the "
                       f"{len(xs)} samples the window keeps")
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
    lns = [th.ln() for (i, l), th in error_schedule(fs).items()
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
        "status": "certified" if certified else "insufficient degree",
        "samples": len(xs),
    }


# ---------------------------------------------------------------------------
# export


def series_rows(v: SeriesField3D):
    """Rows (k, component, i, j, numerator, denominator) for the dump, each
    coefficient in lowest terms, as `Poly2.c` has it."""
    rows = []
    for k, vec in enumerate(v.coeffs):
        for c, p in enumerate(vec):
            for (i, j), n in sorted(p._n.items()):
                g = math.gcd(n, p._d)
                rows.append((k, c, i, j, n // g, p._d // g))
    return rows

