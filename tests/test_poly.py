"""Polynomial kernel: ring laws, orders, text format, monomial and elimination helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from birot4.groebner import monomial_div, monomial_lcm
from birot4.poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    RationalFunction,
    eliminate_linear,
    evaluate_rational,
    format_polynomial,
    format_rational,
    parse_polynomial,
    parse_rational,
    primitive_normalize,
    replace_square,
    variables,
)

XYZ = variables("x", "y", "z")


def _symbols():
    return (Polynomial.variable(XYZ, n) for n in ("x", "y", "z"))


def _random_poly(rng, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(3))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(XYZ, terms)


def test_variable_set_rejects_duplicates():
    with pytest.raises(ValueError):
        variables("x", "x")


def test_variable_set_lookup():
    assert XYZ.index("y") == 1
    with pytest.raises(KeyError):
        XYZ.index("w")
    assert XYZ.unit("z") == (0, 0, 1)


def test_monomial_helpers():
    assert monomial_div((2, 3, 1), (1, 1, 0)) == (1, 2, 1)
    with pytest.raises(ValueError):
        monomial_div((1, 0, 0), (2, 0, 0))
    assert monomial_lcm((2, 0, 1), (1, 3, 1)) == (2, 3, 1)


def test_malformed_polynomials_are_refused():
    """An exponent tuple of another width, a negative exponent and a quotient
    over two rings name no polynomial of the ring, so the constructors refuse them."""
    with pytest.raises(ValueError, match="does not fit"):
        Polynomial(XYZ, {(1, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(XYZ, {(0, -1, 0): 1})
    with pytest.raises(ValueError, match="variable-set mismatch"):
        RationalFunction(Polynomial.variable(XYZ, "x"), Polynomial.constant(variables("x"), 2))


def test_zero_coefficients_are_dropped():
    x, y, _ = _symbols()
    f = x * y - x * y
    assert f.is_zero()
    assert f.terms == {}


def test_ring_laws_on_random_samples():
    """Distributivity, associativity, and the binomial square."""
    rng = random.Random(11)
    for _ in range(40):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert (f + g) ** 2 == f * f + 2 * f * g + g * g
        assert f - f == Polynomial.zero(XYZ)


def test_integer_and_fraction_scalars_mix_in():
    x, y, _ = _symbols()
    f = 2 * x + y * Fraction(1, 3) - 1
    assert f.terms == {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3), (0, 0, 0): -1}
    assert f == Fraction(1, 3) * y + x + x - 1


def test_power_matches_repeated_multiplication():
    rng = random.Random(12)
    f = _random_poly(rng, max_terms=4, max_exp=2)
    product = Polynomial.constant(XYZ, 1)
    for k in range(9):
        assert f ** k == product
        product = product * f
    with pytest.raises(ValueError):
        f ** -1


def test_power_squares_repeatedly(monkeypatch):
    x, _, _ = _symbols()
    calls = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    assert x ** 1024 == Polynomial(XYZ, {(1024, 0, 0): 1})
    assert len(calls) <= 21


def test_lex_and_grevlex_disagree_where_expected():
    # x versus y^2: lex ranks by the first variable, grevlex by total degree
    a, b = (1, 0, 0), (0, 2, 0)
    assert LEX.key(a) > LEX.key(b)
    assert GREVLEX.key(a) < GREVLEX.key(b)
    # ties in total degree break on the rightmost difference: y^2 > y*z
    c = (0, 1, 1)
    assert LEX.key(b) > LEX.key(c)
    assert GREVLEX.key(b) > GREVLEX.key(c)
    assert GREVLEX.key((0, 0, 2)) < GREVLEX.key(c)  # z^2 < y*z


def test_monomial_order_validation_and_equality():
    with pytest.raises(ValueError):
        MonomialOrder("weird")
    assert MonomialOrder("lex") == LEX
    assert LEX != GREVLEX


def test_leading_data_and_degrees():
    x, y, z = _symbols()
    f = 3 * x * z ** 2 + y ** 4
    assert f.leading_monomial(LEX) == (1, 0, 2)
    assert f.leading_coefficient(LEX) == 3
    assert f.leading_monomial(GREVLEX) == (0, 4, 0)
    assert f.total_degree() == 4
    assert f.degree_in("z") == 2
    assert Polynomial.zero(XYZ).total_degree() == -1
    with pytest.raises(ValueError):
        Polynomial.zero(XYZ).leading_monomial(LEX)


def test_constant_queries():
    f = Polynomial.constant(XYZ, Fraction(5, 7))
    assert f.total_degree() <= 0
    assert f.terms == {(0, 0, 0): Fraction(5, 7)}
    x = Polynomial.variable(XYZ, "x")
    assert x.total_degree() > 0


def test_partial_derivative_leibniz_property():
    rng = random.Random(13)
    for _ in range(20):
        f, g = _random_poly(rng), _random_poly(rng)
        lhs = (f * g).partial_derivative("y")
        rhs = f.partial_derivative("y") * g + f * g.partial_derivative("y")
        assert lhs == rhs


def test_evaluate_matches_substitute_with_constants():
    rng = random.Random(14)
    point = {"x": Fraction(2, 3), "y": Fraction(-1), "z": Fraction(5)}
    for _ in range(20):
        f = _random_poly(rng)
        substituted = f.substitute(point)
        assert substituted.total_degree() <= 0
        assert substituted == Polynomial.constant(XYZ, f.evaluate(point))


def test_substitute_composition():
    x, y, z = _symbols()
    f = x * x + y * z
    g = f.substitute({"x": y + z})
    assert g == (y + z) ** 2 + y * z
    missing = variables("a", "b")
    with pytest.raises(ValueError):
        f.substitute({"x": Polynomial.variable(missing, "a")})


def test_parse_plain_integers_and_fractions():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("5/3") == Fraction(5, 3)
    assert parse_rational("-10/4") == Fraction(-5, 2)


def test_parse_tolerates_whitespace_and_unicode_minus():
    assert parse_rational("  3 / 4 ") == Fraction(3, 4)
    assert parse_rational("−2") == Fraction(-2)
    assert parse_rational("–1/2") == Fraction(-1, 2)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/2/3", "1.5", "3/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_is_lowest_terms_text():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
    assert format_rational(Fraction(0)) == "0"


def test_round_trip_on_random_rationals():
    rng = random.Random(20260823)
    for _ in range(200):
        num = rng.randint(-10 ** 9, 10 ** 9)
        den = rng.randint(1, 10 ** 6)
        value = Fraction(num, den)
        assert parse_rational(format_rational(value)) == value


def test_format_parse_round_trip_random():
    rng = random.Random(15)
    for _ in range(60):
        f = _random_poly(rng)
        assert parse_polynomial(format_polynomial(f), XYZ) == f
        assert parse_polynomial(format_polynomial(f, GREVLEX), XYZ) == f


def test_parse_accepts_flexible_spelling():
    x, y, z = _symbols()
    f = parse_polynomial("-x + 2*y^3 - 1/2*z + 4", XYZ)
    assert f == -x + 2 * y ** 3 - Fraction(1, 2) * z + 4
    shuffled = parse_polynomial("4- 1/2*z+2*y^3 -x", XYZ)
    assert shuffled == f
    assert parse_polynomial("−x + 2*y^3 – 1/2*z + 4", XYZ) == f
    with pytest.raises(ValueError):
        parse_polynomial("x + q", XYZ)
    with pytest.raises(ValueError):
        parse_polynomial("", XYZ)


@pytest.mark.parametrize("bad", ["x +", "x + - y", "++x", "x--y", "2**x", "x*", "x^",
                                 "x^-1", "1/0*x", "5/", "3x", "1 2*x", "x y"])
def test_parse_rejects_malformed_terms(bad):
    with pytest.raises(ValueError):
        parse_polynomial(bad, XYZ)


@pytest.mark.parametrize("text", ["x\t+ y", "x\n+ y", "p * t^4", "2\t*x"])
def test_parse_allows_whitespace_next_to_operators(text):
    names = variables("p", "t", "x", "y")
    spelled = parse_polynomial("".join(text.split()), names)
    assert parse_polynomial(text, names) == spelled


def test_parse_accepts_signs_products_and_cancellation():
    x, y, z = _symbols()
    assert parse_polynomial("+x", XYZ) == x
    assert parse_polynomial("- x", XYZ) == -x
    assert parse_polynomial("2*3*x", XYZ) == 6 * x
    assert parse_polynomial("x - x", XYZ).is_zero()
    assert parse_polynomial("x + x", XYZ) == 2 * x
    assert parse_polynomial("0*y + z", XYZ) == z


def test_parse_names_the_unknown_variable():
    with pytest.raises(ValueError, match="'q'"):
        parse_polynomial("x + 2*q^2", XYZ)


def test_format_examples_are_canonical():
    x, y, z = _symbols()
    f = -x * x + Fraction(3, 2) * y - z
    assert format_polynomial(f) == "-x^2 + 3/2*y - z"
    assert format_polynomial(Polynomial.zero(XYZ)) == "0"


def test_primitive_normalize_properties():
    rng = random.Random(16)
    for _ in range(30):
        f = _random_poly(rng)
        norm, scalar = primitive_normalize(f)
        assert norm == f * scalar
        if f.is_zero():
            assert scalar == 1
            continue
        assert norm.leading_coefficient(LEX) > 0
        denominators = {c.denominator for c in norm.terms.values()}
        assert denominators == {1}
        from math import gcd
        content = 0
        for c in norm.terms.values():
            content = gcd(content, abs(c.numerator))
        assert content == 1
        # rescaling does not change the normal form
        again, _ = primitive_normalize(f * Fraction(-7, 11))
        assert again == norm or again == -norm


def test_primitive_normalize_detects_proportionality():
    x, y, _ = _symbols()
    f = 6 * x - 4 * y
    g = Fraction(-9, 2) * x + 3 * y
    assert primitive_normalize(f)[0] == primitive_normalize(g)[0]


def test_eliminate_linear_is_a_scaled_substitution():
    """den^d * f with v -> -num/den equals the eliminated polynomial."""
    rng = random.Random(18)
    vars4 = variables("v", "x", "y", "z")
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 2) for _ in range(4))
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        f = Polynomial(vars4, terms)
        den = Polynomial.variable(vars4, "x") + 2
        num = Polynomial.variable(vars4, "y") * 3 - 1
        out = eliminate_linear(f, "v", den, num)
        assert out.degree_in("v") <= 0
        image = RationalFunction(-num, den)
        bindings = {"v": image}
        for name in ("x", "y", "z"):
            bindings[name] = RationalFunction(Polynomial.variable(vars4, name))
        d = max(f.degree_in("v"), 0)
        value = evaluate_rational(f, bindings, vars4)
        assert RationalFunction(value.num * den ** d, value.den) == RationalFunction(out)


def test_eliminate_linear_rejects_self_reference():
    x, y, _ = _symbols()
    with pytest.raises(ValueError):
        eliminate_linear(x * y, "x", x + 1, y)


def test_replace_square():
    x, y, _ = _symbols()
    image = y + 1
    f = RationalFunction(x ** 4 * y + 2 * x ** 2 - 5)
    assert replace_square(f, "x", image) == image ** 2 * y + 2 * image - 5
    # an odd power keeps one factor of the variable; the denominator is rewritten too
    g = RationalFunction(x ** 3 + y, x ** 2 * y)
    assert replace_square(g, "x", image) == RationalFunction(image * x + y, image * y)
    # a rational image: x^2 = 1/y
    one = Polynomial.constant(XYZ, 1)
    assert (replace_square(RationalFunction(x ** 4 * y - x), "x", RationalFunction(one, y))
            == RationalFunction(one - x * y, y))
    # with a polynomial image the parts are those of the rewritten parts, not
    # merely an equal quotient
    h = replace_square(RationalFunction(2 * x ** 2 * y, 3 * x ** 3 - y), "x", image)
    want = RationalFunction(2 * image * y, 3 * image * x - y)
    assert (h.num, h.den) == (want.num, want.den)


def test_rational_function_equality_is_cross_multiplied():
    x, y, z = _symbols()
    a = RationalFunction(x * y, y)
    b = RationalFunction(x * x, x)
    assert a == b
    assert a == RationalFunction(x)
    assert a != RationalFunction(y)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, Polynomial.zero(XYZ))
    c = RationalFunction(z, x + 2)
    assert a / c == RationalFunction(x * (x + 2), z)
    assert c / c == 1
    assert a / x == 1
    with pytest.raises(ZeroDivisionError):
        a / RationalFunction(Polynomial.zero(XYZ), y)


def test_evaluate_rational_on_a_known_quotient():
    x, y, _ = _symbols()
    f = x * x - y
    point = {"x": RationalFunction(y, x), "y": RationalFunction(Polynomial.constant(XYZ, 2))}
    value = evaluate_rational(f, point, XYZ)
    assert value == RationalFunction(y * y - 2 * x * x, x * x)


def test_evaluate_rational_requires_the_variables_that_occur():
    x, y, _ = _symbols()
    for evaluate in (lambda f, point: evaluate_rational(f, point, XYZ), Polynomial.evaluate):
        with pytest.raises(ValueError, match="'y'"):
            evaluate(x * x - y, {"x": 1})
        # z is a ring variable absent from the polynomial, so it needs no value
        assert evaluate(x * x - y, {"x": 2, "y": 1}) == 3


def test_evaluate_rational_brings_every_term_to_one_denominator():
    """x + y + x*y at x = 1/a, y = 1/b has the denominator a*b, the product of
    den_v^deg_v(f), and not the product of every term's denominator."""
    ring = variables("a", "b", "x", "y")
    a, b, x, y = (Polynomial.variable(ring, n) for n in ring.names)
    one = Polynomial.constant(ring, 1)
    point = {"x": RationalFunction(one, a), "y": RationalFunction(one, b)}
    value = evaluate_rational(x + y + x * y, point, ring)
    assert value == RationalFunction(a + b + 1, a * b)
    assert primitive_normalize(value.den)[0] == a * b
    assert value.den.total_degree() <= 1 * a.total_degree() + 1 * b.total_degree()


def test_substitution_matches_sympy():
    """substitute, evaluate_rational and eliminate_linear against sympy's
    expansion of f.subs(...), brought over one denominator, on random f and
    images over one ring."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    ring = variables("v", "x", "y", "z")
    symbols = dict(zip(ring.names, sympy.symbols(ring.names)))

    def to_sympy(p):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*[symbols[n] ** e for n, e in zip(ring.names, mono)])
                           for mono, c in p.terms.items()])

    def expanded(value):
        """sympy's expansion of a polynomial expression, or one of ours."""
        if isinstance(value, Polynomial):
            return sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                         for m, c in value.terms.items()},
                                        *symbols.values(), domain="QQ")
        return sympy.Poly(value, *symbols.values(), domain="QQ")

    def quotient(expr):
        """(numerator, denominator) of a rational expression, expanded."""
        return tuple(map(expanded, sympy.fraction(sympy.together(expr))))

    def random_poly(max_exp, nonzero=False, without=None):
        while True:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = [rng.randint(0, max_exp) for _ in ring.names]
                if without is not None:
                    mono[ring.index(without)] = 0
                terms[tuple(mono)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = Polynomial(ring, terms)
            if not (nonzero and p.is_zero()):
                return p

    for _ in range(10):
        f = random_poly(2)
        images = {n: random_poly(1) for n in rng.sample(ring.names, rng.randint(1, 3))}
        want = to_sympy(f).subs({symbols[n]: to_sympy(p) for n, p in images.items()},
                                simultaneous=True)
        assert expanded(f.substitute(images)) == expanded(want)

        quotients = {n: RationalFunction(random_poly(1), random_poly(1, nonzero=True))
                     for n in ring.names}
        value = evaluate_rational(f, quotients, ring)
        want_num, want_den = quotient(to_sympy(f).subs(
            {symbols[n]: to_sympy(q.num) / to_sympy(q.den) for n, q in quotients.items()},
            simultaneous=True))
        assert expanded(value.num) * want_den == want_num * expanded(value.den)

        den = random_poly(1, nonzero=True, without="v")
        num = random_poly(1, without="v")
        d = max(f.degree_in("v"), 0)
        want_num, want_den = quotient(to_sympy(den) ** d * to_sympy(f).subs(
            symbols["v"], -to_sympy(num) / to_sympy(den)))
        assert expanded(eliminate_linear(f, "v", den, num)) * want_den == want_num


def test_the_core_values_are_immutable_and_compare_by_value():
    """What no computation in the package exercises: the immutability
    refusals, NotImplemented against a foreign operand, a scalar on the left
    of a difference, comparison with a scalar, and the hash rules."""
    x, y, _ = _symbols()
    f = x + 1
    q = RationalFunction(x, y)
    with pytest.raises(AttributeError, match="Polynomial is immutable"):
        f.terms = {}
    with pytest.raises(AttributeError, match="RationalFunction is immutable"):
        q.num = y
    for foreign in (lambda: f + "x", lambda: f - "x", lambda: "x" - f):
        with pytest.raises(TypeError):
            foreign()
    assert (q == "x") is False and q != "x"  # NotImplemented on both sides
    assert 1 - f == -x
    assert Polynomial.constant(XYZ, 3) == 3 and f != 3
    assert Polynomial.constant(XYZ, Fraction(1, 2)) == Fraction(1, 2) and f != Fraction(1, 2)
    assert hash(parse_polynomial("1 + x", XYZ)) == hash(f)
    assert len({f, parse_polynomial("1 + x", XYZ), x}) == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(q)
    assert repr(q) == "<RationalFunction (x) / (y)>"
    assert repr(LEX) == "MonomialOrder('lex')"
    assert hash(MonomialOrder("grevlex")) == hash(GREVLEX)
    assert len({LEX, GREVLEX, MonomialOrder("lex")}) == 2
