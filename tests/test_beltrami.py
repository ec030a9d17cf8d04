from fractions import Fraction

import numpy as np
import pytest

from flowcomp.beltrami import (
    Poly2,
    _least_squares_fit,
    SeriesField3D,
    beltrami_from_potential,
    fit_window_polynomial,
    residuals,
    series_rows,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")


def random_poly(seed, degree=4):
    rng = np.random.default_rng(seed)
    return Poly2({
        (i, j): Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    })


# -- exact polynomial algebra -----------------------------------------------


def test_poly_arithmetic():
    p = X * X + Y * Fraction(3)
    assert max(i + j for i, j in p.c) == 2
    assert p.dx() == X * 2
    assert p.dy() == Poly2({(0, 0): 3})
    assert (X * Y).laplacian().is_zero()
    assert (X * X + Y * Y).laplacian() == Poly2({(0, 0): 4})
    assert float((X * Y)(2.0, 3.0)) == 6.0
    assert (X * Fraction(1, 2)) * (Y * Fraction(-1, 3)) == Poly2({(1, 1): Fraction(-1, 6)})


def test_poly_cancellation():
    assert (X - X).is_zero()
    assert (X + Y - Y) == X


def test_equality_and_hash_ignore_the_route():
    # one value reached over different common denominators
    assert X * Fraction(2, 3) * Fraction(3, 2) == X
    assert hash(X * Fraction(2, 3) * Fraction(3, 2)) == hash(X)
    assert Poly2({(0, 0): Fraction(2, 4)}) == Poly2({(0, 0): Fraction(1, 2)})
    assert hash(Poly2({(0, 0): Fraction(2, 4)})) == hash(Poly2({(0, 0): Fraction(1, 2)}))
    third = X * Fraction(1, 3) + Y * Fraction(1, 6)
    assert third * 6 - Y == X * 2
    assert (third * 6).c == {(1, 0): 2, (0, 1): 1}
    assert X * Fraction(1, 3) != X * Fraction(1, 6)
    assert X != Y and X != X + Y


def test_cauchy_data_cases():
    # orders 0 and 1 of the series are the planar gradient and its normal derivative
    v, _ = beltrami_from_potential(Poly2.zero(), 1, 2)
    assert all(p.is_zero() for p in v.coeffs[0] + v.coeffs[1])
    v, _ = beltrami_from_potential(X, 1, 2)
    assert v.coeffs[0] == (Poly2({(0, 0): 1}), Poly2.zero(), Poly2.zero())
    assert v.coeffs[1] == (Poly2.zero(), Poly2({(0, 0): -1}), Poly2.zero())
    a0, a1, _ = beltrami_from_potential(X * Y, 1, 2)[0].coeffs
    assert a0[0] == Y and a0[1] == X and a0[2].is_zero()
    assert a1[0] == X and a1[1] == Y * Fraction(-1) and a1[2].is_zero()


def test_cauchy_data_rejects_zero_eigenvalue():
    with pytest.raises(ValueError, match="the curl eigenvalue must be nonzero"):
        beltrami_from_potential(X, 0)


# -- series recursion -------------------------------------------------------


def test_series_cosine():
    v, _ = beltrami_from_potential(X, 1, 20)
    # the two-step Helmholtz recursion run from the first two orders gives the series back
    assert all(v.coeffs[k + 2] == tuple((a + a.laplacian()) * Fraction(-1, (k + 1) * (k + 2))
                                        for a in v.coeffs[k]) for k in range(v.K - 1))
    assert v.coeffs[2][0] == Poly2({(0, 0): Fraction(-1, 2)})
    assert v.coeffs[3][1] == Poly2({(0, 0): Fraction(1, 6)})


def test_series_zero():
    v, _ = beltrami_from_potential(Poly2.zero(), 1, 5)
    assert all(p.is_zero() for vec in v.coeffs for p in vec)


def test_series_degree_bound():
    F = random_poly(1)
    v, _ = beltrami_from_potential(F, 1, 20)
    assert max(i + j for vec in v.coeffs for p in vec for i, j in p.c) <= max(
        i + j for i, j in F.c)


def test_extend_requires_order_two():
    with pytest.raises(ValueError, match="need at least a second-order truncation"):
        beltrami_from_potential(X, 1, 1)


# -- the Beltrami lift ------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_residuals_random(seed):
    F = random_poly(seed)
    v, u = beltrami_from_potential(F, 1, K=20)
    rep = residuals(u, v, F, 1)
    assert rep["curl_residual_order"] is None
    assert rep["div_residual_order"] is None
    assert rep["plane_restriction_ok"]


def test_xy_is_its_own_lift():
    v, u = beltrami_from_potential(X * Y, 1, K=20)
    assert all(u.coeffs[k] == v.coeffs[k] for k in range(u.K + 1))


def test_grid_match_cosine():
    _, u = beltrami_from_potential(X, 1, K=20)
    g = np.linspace(-1.0, 1.0, 21)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    ux, uy, uz = u.evaluate(xx, yy, zz)
    assert np.max(np.abs(ux - np.cos(zz))) < 1e-12
    assert np.max(np.abs(uy + np.sin(zz))) < 1e-12
    assert np.max(np.abs(uz)) < 1e-12


def test_grid_match_xy():
    _, u = beltrami_from_potential(X * Y, 1, K=20)
    g = np.linspace(-1.0, 1.0, 11)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    ux, uy, uz = u.evaluate(xx, yy, zz)
    assert np.max(np.abs(ux - (yy * np.cos(zz) + xx * np.sin(zz)))) < 1e-12
    assert np.max(np.abs(uy - (xx * np.cos(zz) - yy * np.sin(zz)))) < 1e-12
    assert np.max(np.abs(uz)) < 1e-12


def test_plane_restriction_exact():
    F = random_poly(3)
    v, u = beltrami_from_potential(F, 1, K=10)
    assert u.coeffs[0][0] == F.dx()
    assert u.coeffs[0][1] == F.dy()
    assert u.coeffs[0][2].is_zero()


def test_residual_detects_corruption():
    F = random_poly(4)
    for lam in (1, Fraction(3, 2)):
        v, u = beltrami_from_potential(F, lam, K=8)
        bad = list(list(vec) for vec in u.coeffs)
        bad[1][0] = bad[1][0] + Poly2({(0, 0): 1})
        u_bad = SeriesField3D(u.lam, u.K, tuple(tuple(v_) for v_ in bad))
        rep = residuals(u_bad, v, F, lam)
        # u_1 enters curl u at order 0
        assert rep["curl_residual_order"] == 0
        assert rep["div_residual_order"] is None


@pytest.mark.parametrize("order", [1, 4, 7])
def test_residual_detects_divergence(order):
    F = random_poly(5)
    v, u = beltrami_from_potential(F, 1, K=8)
    bad = list(list(vec) for vec in v.coeffs)
    bad[order][2] = bad[order][2] + X * Y
    v_bad = SeriesField3D(v.lam, v.K, tuple(tuple(v_) for v_ in bad))
    rep = residuals(u, v_bad, F, 1)
    # d/dz of the z-component at this order is the divergence one order down
    assert rep["div_residual_order"] == order - 1
    assert rep["curl_residual_order"] is None
    assert rep["plane_restriction_ok"]


def test_residuals_check_through_order_k_minus_2():
    F, K = random_poly(6), 8
    v, u = beltrami_from_potential(F, 1, K=K)
    # u's last order, K - 1, enters curl u at order K - 2, the last one checked
    bad = [list(vec) for vec in u.coeffs]
    bad[K - 1][0] = bad[K - 1][0] + Poly2({(0, 0): 1})
    rep = residuals(SeriesField3D(u.lam, u.K, tuple(map(tuple, bad))), v, F, 1)
    assert rep["curl_residual_order"] == K - 2
    assert rep["div_residual_order"] is None
    # v's order-K z-component enters div v at order K - 1, past the check
    bad = [list(vec) for vec in v.coeffs]
    bad[K][2] = bad[K][2] + X * Y
    rep = residuals(u, SeriesField3D(v.lam, v.K, tuple(map(tuple, bad))), F, 1)
    assert rep["div_residual_order"] is None
    assert rep["curl_residual_order"] is None
    assert rep["checked_through"] == K - 2


# -- a plain-Fraction reference for the series -------------------------------
# Polynomials are dicts (i, j) -> Fraction without zero entries; every step is
# the textbook formula, reduced after each operation.


def _r_add(*ps):
    out = {}
    for p in ps:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _r_scale(p, s):
    return {k: v * s for k, v in p.items()} if s else {}


def _r_dx(p):
    return {(i - 1, j): v * i for (i, j), v in p.items() if i}


def _r_dy(p):
    return {(i, j - 1): v * j for (i, j), v in p.items() if j}


def _r_lap(p):
    return _r_add(_r_dx(_r_dx(p)), _r_dy(_r_dy(p)))


def _r_mul(p, q):
    return _r_add(*({(i1 + i2, j1 + j2): v1 * v2} for (i1, j1), v1 in p.items()
                    for (i2, j2), v2 in q.items()))


def _r_curl(w):
    return [(_r_add(_r_dy(w[k][2]), _r_scale(w[k + 1][1], -(k + 1))),
             _r_add(_r_scale(w[k + 1][0], k + 1), _r_scale(_r_dx(w[k][2]), -1)),
             _r_add(_r_dx(w[k][1]), _r_scale(_r_dy(w[k][0]), -1)))
            for k in range(len(w) - 1)]


def _r_rows(w):
    return [(k, c, i, j, val.numerator, val.denominator)
            for k, vec in enumerate(w) for c in range(3)
            for (i, j), val in sorted(vec[c].items())]


def _reference_lift(F, lam, K):
    """Rows of v and u and the residual report, on plain Fraction dicts."""
    Fx, Fy = _r_dx(F), _r_dy(F)
    v = [(Fx, Fy, {}), (_r_scale(Fy, lam), _r_scale(Fx, -lam), _r_scale(_r_lap(F), -1))]
    for k in range(K - 1):
        v.append(tuple(_r_scale(_r_add(_r_scale(a, lam * lam), _r_lap(a)),
                                Fraction(-1, (k + 1) * (k + 2))) for a in v[k]))
    u = [tuple(_r_scale(_r_add(cv[c], _r_scale(v[k][c], lam)), 1 / (2 * lam))
               for c in range(3))
         for k, cv in enumerate(_r_curl(v))]
    check = K - 2
    curl = [any(_r_add(cu[c], _r_scale(u[k][c], -lam)) for c in range(3))
            for k, cu in enumerate(_r_curl(u))]
    div = [bool(_r_add(_r_dx(v[k][0]), _r_dy(v[k][1]), _r_scale(v[k + 1][2], k + 1)))
           for k in range(K)]
    report = {
        "curl_residual_order": next((k for k in range(min(len(curl), check + 1)) if curl[k]), None),
        "div_residual_order": next((k for k in range(min(len(div), check + 1)) if div[k]), None),
        "plane_restriction_ok": u[0] == (Fx, Fy, {}),
        "checked_through": check,
    }
    return _r_rows(v), _r_rows(u), report


@pytest.mark.parametrize("seed", range(6))
def test_poly_ops_match_plain_fraction_reference(seed):
    # each scaling path (int, Fraction, float, 0, 1, -1), the difference and
    # the laplacian, against the textbook formulas reduced after every step
    rng = np.random.default_rng(seed)
    p, q = random_poly(seed, degree=5), random_poly(seed + 100, degree=4) * Fraction(1, 3)
    ints = [int(v) for v in rng.integers(2, 99, 4)]
    for s in (ints[0], -ints[1], Fraction(ints[2], ints[3]), Fraction(-7, 12), Fraction(1, 3),
              float(rng.normal()), 0.375, 0, 1, -1, Fraction(1), Fraction(0), True):
        for scaled in (p * s, s * p):
            assert scaled.c == _r_scale(p.c, Fraction(s)), s
            assert scaled == Poly2(_r_scale(p.c, Fraction(s)))
    assert (p - q).c == _r_add(p.c, _r_scale(q.c, -1))
    assert (q - q).is_zero() and (p - p).c == {}
    assert p.laplacian().c == _r_lap(p.c)
    assert (p * p - q).laplacian().c == _r_lap(_r_add(_r_mul(p.c, p.c), _r_scale(q.c, -1)))


@pytest.mark.parametrize("K", [2, 3, 8, 20])
@pytest.mark.parametrize("lam", [1, Fraction(3, 2), Fraction(-2, 5), Fraction(3, 7)])
def test_series_matches_plain_fraction_reference(lam, K):
    # u, the terms of v through order K - 1, against (curl v + lam v)/(2 lam)
    rng = np.random.default_rng(K)
    for degree in range(1, 10):
        # coefficients as the window fit hands them over
        coeffs = {(i, j): Fraction(float(rng.normal(scale=10.0))).limit_denominator(10**12)
                  for i in range(degree + 1) for j in range(degree + 1 - i)}
        v, u = beltrami_from_potential(Poly2(coeffs), lam, K=K)
        rows_v, rows_u, report = _reference_lift(coeffs, Fraction(lam), K)
        assert series_rows(v) == rows_v
        assert series_rows(u) == rows_u
        assert residuals(u, v, Poly2(coeffs), lam) == report


# -- exports ----------------------------------------------------------------


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("degree", range(1, 7))
def test_series_rows_match_the_fraction_rows(degree, lam):
    # each numerator reduced by its gcd with the common denominator, against
    # the rows of the reduced Fractions of `Poly2.c`
    rng = np.random.default_rng(degree)
    coeffs = {(i, j): Fraction(round(float(rng.normal(scale=10.0)) * 2**40), 2**40)
              for i in range(degree + 1) for j in range(degree + 1 - i)}
    for w in beltrami_from_potential(Poly2(coeffs), lam, K=20):
        rows = [(k, c, i, j, val.numerator, val.denominator)
                for k, vec in enumerate(w.coeffs) for c in range(3)
                for (i, j), val in sorted(vec[c].c.items())]
        assert series_rows(w) == rows and len(rows) > degree
        assert all(type(r[4]) is int and type(r[5]) is int and r[5] > 0 for r in rows)


def test_series_rows_roundtrip_values():
    v, _ = beltrami_from_potential(X, 1, 6)
    rows = series_rows(v)
    assert (0, 0, 0, 0, 1, 1) in rows
    assert (2, 0, 0, 0, -1, 2) in rows
    assert all(len(r) == 6 for r in rows)


# -- windowed fitting -------------------------------------------------------


def _poly_potential(x, y):
    return 1.0 + 2.0 * x - 0.5 * y + 0.25 * x * y


def _poly_gradient(x, y):
    return 2.0 + 0.25 * y, -0.5 + 0.25 * x


def _synthetic_fit(pot, grad, degree):
    """The fit's least-squares core on a 12 x 12 grid over the unit square."""
    xs, ys = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, 12),
                                             np.linspace(0.0, 1.0, 12), indexing="ij"))
    return _least_squares_fit(xs, ys, pot(xs, ys), *grad(xs, ys), degree)


def test_fit_exact_polynomial():
    F, sup_value, _, sup_gradient = _synthetic_fit(_poly_potential, _poly_gradient, 2)
    assert sup_value < 1e-10
    assert sup_gradient == 0.0
    assert F == Poly2({(0, 0): 1, (1, 0): 2, (0, 1): Fraction(-1, 2),
                       (1, 1): Fraction(1, 4)})


def test_fit_l2_error_nonincreasing_in_degree():
    pot = lambda x, y: np.sin(x) * np.cos(y)
    grad = lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y))
    errs = [_synthetic_fit(pot, grad, d)[2] for d in (1, 2, 3, 4)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))


def test_fit_real_potential_reports_honestly():
    from flowcomp.field import FieldSpec
    from flowcomp.machine import MachineSpec

    inc = MachineSpec("inc", 2, 1, 2, {(1, d): (2, (d + 1) % 10, 0) for d in range(10)})
    fs = FieldSpec(inc, n_bands=1, l_max=3)
    rep = fit_window_polynomial(fs, (0.0, 1.0, 0.0, 2.0), degree=3)
    # scheduled thresholds are astronomically small; a float fit cannot
    # certify against them and must say so rather than pretend
    assert rep["status"] == "insufficient degree"
    assert rep["ln_threshold"] < -1e4
    assert rep["sup_value_error"] < 1e-4
