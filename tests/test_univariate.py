"""Sturm chains, real-root counting, and the Sylvester resultant.

Root counts are validated against products with planted rational roots;
resultants, which the package expands by minors, are validated against the
same Sylvester determinant computed independently by fraction-free Bareiss
elimination over the coefficient ring.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from birot4.groebner import reduce
from birot4.poly import LEX, Polynomial, variables
from birot4.univariate import (
    EndpointRootError,
    NEG_INFINITY,
    POS_INFINITY,
    REAL_LINE,
    count_real_roots,
    dense_coefficients,
    resultant_univariate,
    univariate_name,
)

TV = variables("t")
T = Polynomial.variable(TV, "t")


def _poly_with_roots(roots, extra_irreducible=False):
    f = Polynomial.constant(TV, 1)
    for root in roots:
        f = f * (T - Fraction(root))
    if extra_irreducible:
        f = f * (T * T + 1)
    return f


def test_univariate_name_detection():
    vars2 = variables("s", "t")
    s = Polynomial.variable(vars2, "s")
    t = Polynomial.variable(vars2, "t")
    assert univariate_name(t * t + 1) == "t"
    assert univariate_name(Polynomial.constant(vars2, 3)) is None
    with pytest.raises(ValueError):
        univariate_name(s * t)


def test_dense_coefficients_round_trip():
    f = 2 * T ** 3 - T + Fraction(1, 2)
    assert dense_coefficients(f, "t") == [Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(2)]
    assert dense_coefficients(Polynomial.zero(TV), "t") == []
    vars2 = variables("s", "t")
    s, t = (Polynomial.variable(vars2, n) for n in ("s", "t"))
    assert dense_coefficients(3 * t * t - 1, "t") == [Fraction(-1), Fraction(0), Fraction(3)]
    for mixed in (s * t + 1, s + t * t, s):
        with pytest.raises(ValueError):
            dense_coefficients(mixed, "t")


def test_count_real_roots_with_planted_roots():
    rng = random.Random(271828)
    for _ in range(40):
        k = rng.randint(1, 4)
        roots = set()
        while len(roots) < k:
            roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        f = _poly_with_roots(sorted(roots), extra_irreducible=rng.random() < 0.5)
        assert count_real_roots(f, REAL_LINE) == k
        lo, hi = Fraction(-7, 2), Fraction(16, 3)
        inside = sum(1 for r in roots if lo < r < hi)
        if any(r in (lo, hi) for r in roots):
            continue
        assert count_real_roots(f, (lo, hi)) == inside


def test_multiple_roots_count_once():
    f = (T - 2) ** 3 * (T + 1) ** 2
    assert count_real_roots(f, REAL_LINE) == 2


def test_no_real_roots():
    f = T * T + Fraction(1, 4)
    assert count_real_roots(f, REAL_LINE) == 0
    assert count_real_roots(f, (Fraction(-5), Fraction(5))) == 0


def test_half_open_infinite_windows():
    f = _poly_with_roots([-3, 1, 4])
    assert count_real_roots(f, (Fraction(0), POS_INFINITY)) == 2
    assert count_real_roots(f, (NEG_INFINITY, Fraction(0))) == 1


def test_endpoint_root_raises():
    f = _poly_with_roots([0, 2])
    with pytest.raises(EndpointRootError):
        count_real_roots(f, (Fraction(0), Fraction(5)))
    with pytest.raises(EndpointRootError):
        count_real_roots(f, (Fraction(-1), Fraction(2)))
    assert count_real_roots(f, (Fraction(1, 2), Fraction(5))) == 1


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        count_real_roots(Polynomial.zero(TV))
    constant = Polynomial.constant(TV, 5)
    assert count_real_roots(constant, REAL_LINE) == 0
    assert count_real_roots(T, (Fraction(3), Fraction(2))) == 0  # empty interval
    # a float endpoint is inexact, so neither end may be one
    with pytest.raises(ValueError, match="bad lower endpoint"):
        count_real_roots(T, (0.5, Fraction(2)))
    with pytest.raises(ValueError, match="bad upper endpoint"):
        count_real_roots(T, (Fraction(0), 2.5))


# -- resultants ---------------------------------------------------------

ST = variables("a", "b", "t")


def _bareiss_determinant(matrix):
    """Fraction-free determinant of a square matrix of polynomials."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return Polynomial.zero(matrix[0][0].vars)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if prev is None:
                    m[i][j] = numerator
                    continue
                remainder, (quotient,) = reduce(numerator, [prev], LEX)
                assert remainder.is_zero()  # Bareiss divisions are exact
                m[i][j] = quotient
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester_resultant(f, g, name):
    fc = f.as_univariate_in(name)
    gc = g.as_univariate_in(name)
    df, dg = len(fc) - 1, len(gc) - 1
    size = df + dg
    zero = Polynomial.zero(f.vars)
    rows = []
    for shift in range(dg):
        row = [zero] * size
        for k, c in enumerate(reversed(fc)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(df):
        row = [zero] * size
        for k, c in enumerate(reversed(gc)):
            row[shift + k] = c
        rows.append(row)
    return _bareiss_determinant(rows)


def _random_in_t(rng, degree):
    a = Polynomial.variable(ST, "a")
    b = Polynomial.variable(ST, "b")
    t = Polynomial.variable(ST, "t")
    coeffs = []
    for _ in range(degree + 1):
        pick = rng.randint(0, 3)
        base = (a, b, a + b, Polynomial.constant(ST, 1))[pick]
        coeffs.append(rng.randint(-3, 3) * base)
    while coeffs[-1].is_zero():
        coeffs[-1] = Polynomial.constant(ST, rng.randint(1, 3))
    out = Polynomial.zero(ST)
    for k, c in enumerate(coeffs):
        out = out + c * t ** k
    return out


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(57721)
    for _ in range(15):
        f = _random_in_t(rng, rng.randint(1, 3))
        g = _random_in_t(rng, rng.randint(1, 3))
        assert resultant_univariate(f, g, "t") == _sylvester_resultant(f, g, "t")


def test_resultant_matches_sylvester_with_rational_coefficients():
    """Non-integer rational coefficients, sparse in the second variable,
    and leading coefficients that are polynomials in it."""
    vs = variables("v", "s")
    rng = random.Random(7)

    def random_in_v():
        top = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(2, 5)):
            mono = (rng.randint(0, top), rng.randint(0, 2) if rng.random() < 0.5 else 0)
            terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Polynomial(vs, terms)

    checked = 0
    while checked < 150:
        f, g = random_in_v(), random_in_v()
        if f.degree_in("v") < 1 or g.degree_in("v") < 1:
            continue
        assert resultant_univariate(f, g, "v") == _sylvester_resultant(f, g, "v")
        checked += 1


def test_resultant_vanishes_iff_common_factor():
    a = Polynomial.variable(ST, "a")
    t = Polynomial.variable(ST, "t")
    shared = t - a
    f = shared * (t + 1)
    g = shared * (t * t + 2)
    assert resultant_univariate(f, g, "t").is_zero()
    # (t + a)(t + 1) shares the factor t + 1 with f, so its resultant vanishes too
    assert resultant_univariate(f, (t + a) * (t + 1), "t").is_zero()
    # (t + a)(t + 2) is coprime to f and f is monic: res = h(a)*h(-1) = 2a(a + 2)(a - 1)
    h = (t + a) * (t + 2)
    res = resultant_univariate(f, h, "t")
    assert not res.is_zero()
    assert res == _sylvester_resultant(f, h, "t")
    expected = 2 * a * (a + 2) * (a - 1)
    assert res == expected


def test_resultant_of_linear_pair_is_cross_difference():
    a = Polynomial.variable(ST, "a")
    b = Polynomial.variable(ST, "b")
    t = Polynomial.variable(ST, "t")
    # res(t - a, t - b) = det [[1, -a], [1, -b]] = a - b
    res = resultant_univariate(t - a, t - b, "t")
    assert res == a - b
    assert res == _sylvester_resultant(t - a, t - b, "t")


def test_resultant_rejects_doubly_constant_input():
    a = Polynomial.variable(ST, "a")
    b = Polynomial.variable(ST, "b")
    with pytest.raises(ValueError):
        resultant_univariate(a, b, "t")


def test_resultant_with_one_input_constant_in_the_variable():
    """Res(c, g) = Res(g, c) = c^deg g: deg g rows of c on the diagonal."""
    a = Polynomial.variable(ST, "a")
    b = Polynomial.variable(ST, "b")
    t = Polynomial.variable(ST, "t")
    c = a * b + 2
    for g in (t - a, (a + 1) * t ** 3 + b * t + 5):
        want = c ** g.degree_in("t")
        for first, second in ((c, g), (g, c)):
            res = resultant_univariate(first, second, "t")
            assert res == want == _sylvester_resultant(first, second, "t")


def test_resultant_of_a_zero_input_is_zero():
    a = Polynomial.variable(ST, "a")
    t = Polynomial.variable(ST, "t")
    zero = Polynomial.zero(ST)
    for g in (t * t - a, a, Polynomial.constant(ST, 3)):
        assert resultant_univariate(zero, g, "t").is_zero()
        assert resultant_univariate(g, zero, "t").is_zero()


def test_the_sign_of_an_empty_coefficient_list_is_zero():
    """A Sturm chain entry that vanished identically has sign 0 at every point,
    the infinite ends included."""
    from birot4.univariate import _sign_at

    assert [_sign_at([], point) for point in (NEG_INFINITY, 0, Fraction(1, 2), POS_INFINITY)] \
        == [0, 0, 0, 0]
