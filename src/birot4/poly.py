"""Sparse multivariate polynomials over the exact rationals.

A polynomial is a mapping {exponent tuple -> nonzero Fraction} together with
an ordered variable set.  Monomials are plain exponent tuples; the variable
set fixes which position means which symbol.  Monomial orders (lex and
graded reverse lex) are supplied as key functions so that ``max(...)`` and
``sorted(...)`` respect the order.

The text format is a sum of terms like ``2*B*p + 3*t*u - 4/3*u``: rational
coefficients, ``*`` between factors, ``^`` for powers >= 2.  Printing sorts
terms descending under a chosen order and parsing is exact, so print/parse
round-trips are bit-identical.  ``parse_terms`` is the one term reader: it
gives each coefficient as an integer pair, which ``parse_polynomial`` makes a
Fraction and ``parse_numerators`` brings over one denominator.

Substitution has one rule, ``_substitute``, behind ``Polynomial.substitute``,
``evaluate_rational`` and ``eliminate_linear``: with images v = num_v/den_v,
each term of f is brought to the one denominator D = prod den_v^deg_v(f) and
the numerators are summed in one pass.  ``replace_square`` shares its powers.

This module is part of the trusted core (with ``birot4.univariate``,
``birot4.certificate`` and ``birot4.witness``) and imports no other
``birot4`` module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

Exponents = tuple[int, ...]
Coefficient = Union[Fraction, int]


@dataclass(frozen=True)
class VariableSet:
    """Ordered tuple of distinct variable names; position is precedence."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in {self.names}") from None

    def unit(self, name: str) -> Exponents:
        """Exponent tuple of the bare variable ``name``."""
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return tuple(exps)


def variables(*names: str) -> VariableSet:
    return VariableSet(tuple(names))


def monomial_degree(exps: Exponents) -> int:
    return sum(exps)


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


class MonomialOrder:
    """A total multiplicative order on exponent tuples with 1 minimal.

    ``key(exps)`` returns a tuple so that builtin comparisons realize the
    order.
    """

    def __init__(self, kind: str):
        if kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind

    def key(self, exps: Exponents):
        if self.kind == "lex":
            return exps
        # grevlex: compare total degree, then reversed exponents negated
        return (sum(exps),) + tuple(-e for e in reversed(exps))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("MonomialOrder", self.kind))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class Polynomial:
    """Immutable sparse polynomial over Q with a fixed VariableSet.

    A coefficient is exact, an int or a Fraction: any other number raises
    TypeError, since Fraction(0.1) would keep the binary fraction of a float.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet, terms: Mapping[Exponents, Coefficient]):
        clean: dict[Exponents, Fraction] = {}
        width = len(vars)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} does not fit {vars.names}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")
            value = Fraction(coeff)
            if value:
                clean[exps] = value
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _clean(cls, vars: VariableSet, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap terms that are already valid: fitting tuples, nonzero Fractions.

        The ring operations build such dicts themselves, so they skip the
        checks that ``__init__`` does.  The integer numerators of
        ``parse_numerators`` and of a certificate keep nonzero ints instead.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: VariableSet) -> "Polynomial":
        return Polynomial(vars, {})

    @staticmethod
    def constant(vars: VariableSet, value: Coefficient) -> "Polynomial":
        return Polynomial(vars, {(0,) * len(vars): value})

    @staticmethod
    def variable(vars: VariableSet, name: str) -> "Polynomial":
        return Polynomial(vars, {vars.unit(name): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        idx = self.vars.index(name)
        return max(e[idx] for e in self.terms)

    def occurring_variables(self) -> tuple[str, ...]:
        """Names with a positive exponent in some term, in ring order."""
        return tuple(name for index, name in enumerate(self.vars)
                     if any(exps[index] for exps in self.terms))

    def leading_monomial(self, order: MonomialOrder) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def sorted_terms(self, order: MonomialOrder = LEX) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending order: the canonical serialization order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=order.key, reverse=True)]

    # -- ring operations ----------------------------------------------

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable-set mismatch: {self.vars.names} vs {other.vars.names}")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return Polynomial._clean(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._clean(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.vars)
            return Polynomial._clean(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_vars(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = monomial_mul(e1, e2)
                acc = out[key] + c1 * c2 if key in out else c1 * c2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return Polynomial._clean(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.vars, 1)
        for bit in f"{exponent:b}":  # binary powering: a square per bit, a product per 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        return isinstance(other, Polynomial) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and evaluation --------------------------------------

    def partial_derivative(self, name: str) -> "Polynomial":
        idx = self.vars.index(name)
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            dropped = exps[:idx] + (k - 1,) + exps[idx + 1:]
            out[dropped] = coeff * k
        return Polynomial(self.vars, out)

    def evaluate(self, point: Mapping[str, Coefficient]) -> Fraction:
        """Evaluate at rationals; only the variables that occur need a value."""
        values: dict[str, Fraction] = {}
        for name in self.occurring_variables():
            if name not in point:
                raise ValueError(f"no value for variable {name!r}")
            values[name] = Fraction(point[name])
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for name, e in zip(self.vars, exps):
                if e:
                    term *= values[name] ** e
            total += term
        return total

    def substitute(self, bindings: Mapping[str, "Polynomial | Coefficient"]) -> "Polynomial":
        """Replace variables by polynomials (or rationals) over the same variables.

        Unbound variables map to themselves.
        """
        one = Polynomial.constant(self.vars, 1)
        # one * image turns a rational into a constant and refuses a foreign ring
        images = {name: (one * bindings[name], one) for name in self.vars if name in bindings}
        return _substitute(self, images, self.vars)[0]

    # -- univariate views ---------------------------------------------

    def as_univariate_in(self, name: str) -> list["Polynomial"]:
        """Dense coefficient list [c0, c1, ...] with respect to one variable.

        Coefficients live in the same VariableSet with that variable's
        exponent zeroed.  The zero polynomial gives [].
        """
        if not self.terms:
            return []
        idx = self.vars.index(name)
        degree = max(e[idx] for e in self.terms)
        buckets: list[dict[Exponents, Fraction]] = [{} for _ in range(degree + 1)]
        for exps, coeff in self.terms.items():
            k = exps[idx]
            rest = exps[:idx] + (0,) + exps[idx + 1:]
            buckets[k][rest] = coeff
        return [Polynomial(self.vars, bucket) for bucket in buckets]

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<Polynomial {format_polynomial(self)!r} over {self.vars.names}>"


def over_one_denominator(polys, key=lambda e: e) -> tuple[list[dict], int]:
    """([{key(e): c * den for each term c*x^e of p} for p in polys], den), where
    den is the lcm of the denominators of every coefficient of polys; 1 for none."""
    den = 1
    for p in polys:
        for c in p.terms.values():
            if den % c.denominator:
                den = lcm(den, c.denominator)
    return [{key(e): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
            for p in polys], den


def primitive_normalize(f: Polynomial, order: MonomialOrder = LEX) -> tuple[Polynomial, Fraction]:
    """Scale to coprime integer coefficients with a positive leading one.

    Returns (normalized, scalar) with normalized == scalar * f; the scalar is
    positive exactly when f's leading coefficient under ``order`` already is.
    The zero polynomial maps to (0, 1).  Two polynomials agree up to a nonzero
    rational factor iff they normalize to the same polynomial.
    """
    if f.is_zero():
        return f, Fraction(1)
    (numerators,), den = over_one_denominator([f])
    content = gcd(*numerators.values())
    if f.leading_coefficient(order) < 0:
        content = -content
    return (Polynomial._clean(f.vars, {e: Fraction(n // content) for e, n in numerators.items()}),
            Fraction(den, content))


def eliminate_linear(f: Polynomial, name: str, den: Polynomial, num: Polynomial) -> Polynomial:
    """Clear a linear relation den*v + num = 0 out of f.

    v = ``name`` must not occur in den or num.  Returns den^d * f with v
    replaced by -num/den, where d = deg_v(f): the numerator N of the
    substitution rule, exactly; a polynomial identity, valid where den != 0.
    """
    if den.degree_in(name) > 0 or num.degree_in(name) > 0:
        raise ValueError(f"relation for {name!r} mentions {name!r}")
    return _substitute(f, {name: (-num, den)}, f.vars)[0]


def _accumulate(out: dict[Exponents, Fraction], terms) -> None:
    """Add (exponents, coefficient) pairs into out in place, dropping zero sums."""
    for exps, coeff in terms:
        acc = out[exps] + coeff if exps in out else coeff
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)


def _powers(num: Polynomial, den: Polynomial, degree: int) -> list[Polynomial]:
    """[num^j * den^(degree - j) for j = 0..degree], each power built once."""
    nums, dens = [num ** 0], [den ** 0]
    for _ in range(degree):
        nums.append(nums[-1] * num)
        dens.append(dens[-1] * den)
    return [nums[j] * dens[degree - j] for j in range(degree + 1)]


def _substitute(f: Polynomial, images: Mapping[str, tuple[Polynomial, Polynomial]],
                vars: VariableSet) -> tuple[Polynomial, Polynomial]:
    """The substitution rule: (N, D) with N/D = f at v = num_v/den_v.

    ``images`` maps variables of f to (num_v, den_v) over ``vars``; one that
    occurs in f without an image stays itself, which needs f's ring to be
    ``vars``.  D = prod den_v^deg_v(f); every term is brought to D, also in
    the variables it lacks, and the terms are summed in one pass.
    """
    one = den = Polynomial.constant(vars, 1)
    tables = []
    for index, name in enumerate(f.vars):
        degree = max((exps[index] for exps in f.terms), default=0)
        if degree:
            num_v, den_v = images.get(name) or (Polynomial.variable(vars, name), one)
            table = _powers(num_v, den_v, degree)
            tables.append((index, table, den_v == one))
            den = den * table[0]
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in f.terms.items():
        term = Polynomial.constant(vars, coeff)
        for index, table, unit in tables:
            if exps[index] or not unit:  # a unit denominator's table starts with 1
                term = term * table[exps[index]]
        _accumulate(out, term.terms.items())
    return Polynomial._clean(vars, out), den


# -- text format -------------------------------------------------------

_TERM_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?")
_OPERATORS = "+-*/^"
_MINUS_VARIANTS = ("−", "–")  # unicode minus / en-dash, seen in display text


def _normalize_minus(text: str) -> str:
    cleaned = text.strip()
    for variant in _MINUS_VARIANTS:
        cleaned = cleaned.replace(variant, "-")
    return cleaned


def _rational_pair(text: str) -> tuple[int, int]:
    """(p, q) of "p/q" or "p" (base-10, optional sign, whitespace around the
    numbers; q = 1 for "p"), unreduced."""
    num_text, slash, den_text = text.partition("/")
    try:
        num, den = int(num_text), int(den_text) if slash else 1
    except ValueError as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (base-10, optional sign) into a Fraction.

    Unicode minus signs are normalized; whitespace around the number and
    the slash is ignored.  Raises ValueError on anything else.
    """
    return Fraction(*_rational_pair(_normalize_minus(text)))


def format_rational(value: Fraction) -> str:
    """Canonical text: "p/q" in lowest terms, or plain "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_polynomial(f: Polynomial, order: MonomialOrder = LEX) -> str:
    if f.is_zero():
        return "0"
    pieces: list[str] = []
    for position, (exps, coeff) in enumerate(f.sorted_terms(order)):
        factors = []
        for name, e in zip(f.vars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        magnitude = abs(coeff)
        if factors and magnitude == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([format_rational(magnitude)] + factors)
        else:
            body = format_rational(magnitude)
        if position == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _drop_whitespace(cleaned: str, text: str) -> str:
    """cleaned without whitespace, which may sit only next to an operator.

    A function of its own, so the tokens are freed before the caller copies
    the text again: a stored certificate holds texts of about a megabyte.
    """
    tokens = cleaned.split()
    for left, right in zip(tokens, tokens[1:]):
        if left[-1] not in _OPERATORS and right[0] not in _OPERATORS:
            raise ValueError(f"whitespace between {left!r} and {right!r} in {text!r}")
    return "".join(tokens)


def _variable_factor(factor: str, vars: VariableSet, text: str) -> tuple[int, int]:
    """(position in vars, power) of a factor "name" or "name^k"."""
    match = _TERM_FACTOR.fullmatch(factor)
    if not match:
        raise ValueError(f"bad factor {factor!r} in {text!r}")
    name, power = match.groups()
    try:
        return vars.index(name), int(power) if power else 1
    except KeyError:
        raise ValueError(f"unknown variable {name!r} in {text!r}") from None


def parse_terms(text: str, vars: VariableSet) -> list[tuple[Exponents, int, int]]:
    """The terms of a polynomial text as (exponents, numerator, denominator).

    The one term reader, behind ``parse_polynomial`` and ``parse_numerators``.
    Terms come in text order, neither merged nor reduced: "2/4*x + x" gives
    ((1,), 2, 4) and ((1,), 1, 1).  Whitespace may sit next to an operator
    (+ - * / ^) or at either end of the text; anywhere else, as in "1 2*x"
    or "x y", it is an error.  With whitespace dropped and every "-" read as
    "+-", splitting at "+" gives the signed terms, so no factor holds a sign
    and every denominator is positive.  Only the first piece may be empty
    (text that starts with a sign); any other empty piece or bare "-" is a
    dangling sign.  A term's coefficient is the product of its numeric
    factors, 1 if it has none, with the sign put on the numerator.

    Raises ValueError for malformed text and for a variable outside ``vars``.
    """
    cleaned = _normalize_minus(text)
    if not cleaned:
        raise ValueError("empty polynomial text")
    pieces = _drop_whitespace(cleaned, text).replace("-", "+-").split("+")
    if not pieces[0]:
        del pieces[0]
    terms = []
    seen: dict[str, tuple[int, int]] = {}  # variable factors read so far
    width = len(vars)
    for piece in pieces:
        negative = piece[:1] == "-"
        body = piece[1:] if negative else piece
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        num = den = 1
        exps = [0] * width
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                p, q = _rational_pair(factor)
                num, den = num * p, den * q
                continue
            if factor not in seen:
                seen[factor] = _variable_factor(factor, vars, text)
            position, power = seen[factor]
            exps[position] += power
        terms.append((tuple(exps), -num if negative else num, den))
    return terms


def parse_polynomial(text: str, vars: VariableSet) -> Polynomial:
    """Inverse of format_polynomial; accepts any ordering of terms.

    The text is read by ``parse_terms``; terms on one monomial are summed.
    """
    terms: dict[Exponents, Fraction] = {}
    _accumulate(terms, ((e, Fraction(p, q)) for e, p, q in parse_terms(text, vars)))
    return Polynomial._clean(vars, terms)


def parse_numerators(texts, vars: VariableSet) -> tuple[list[Polynomial], int]:
    """([N_i], den) with N_i / den the polynomial of texts[i]: the reading
    twin of ``over_one_denominator``.  N_i has integer coefficients, and den
    is the lcm of the denominators as written, so "2/4*x" gives (2*x, 4): no
    coefficient is reduced.
    """
    rows = [parse_terms(text, vars) for text in texts]
    den = 1
    for row in rows:
        for _, _, q in row:
            if den % q:
                den = lcm(den, q)
    numerators = []
    for row in rows:
        terms: dict[Exponents, int] = {}
        _accumulate(terms, ((e, p * (den // q)) for e, p, q in row))
        numerators.append(Polynomial._clean(vars, terms))
    return numerators, den


# -- rational functions ------------------------------------------------

class RationalFunction:
    """A quotient num/den of polynomials, compared by cross-multiplication.

    No gcd reduction is attempted beyond rational-content scaling; equality
    and zero tests are exact regardless.  Division is the one arithmetic
    operation: sums and products of quotients are formed over one
    denominator by the substitution rule.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.vars != den.vars:
            raise ValueError("variable-set mismatch in rational function")
        if not num.is_zero():
            # cheap size control: strip rational content from both sides
            num, s_num = primitive_normalize(num)
            den = den * s_num
            den, s_den = primitive_normalize(den)
            num = num * s_den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        return RationalFunction(*_quotient(other, self.num.vars))

    def __truediv__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * rhs.den, self.den * rhs.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return NotImplemented
        rhs = self._coerce(other)
        return self.num * rhs.den == rhs.num * self.den

    def __hash__(self) -> int:
        raise TypeError("RationalFunction is unhashable")

    def __repr__(self) -> str:
        return f"<RationalFunction ({self.num}) / ({self.den})>"


def _quotient(value: "RationalFunction | Polynomial | Coefficient",
              vars: VariableSet) -> tuple[Polynomial, Polynomial]:
    """(num, den) of a rational function, a polynomial or a rational over vars."""
    if isinstance(value, RationalFunction):
        return value.num, value.den
    if not isinstance(value, Polynomial):
        value = Polynomial.constant(vars, value)
    return value, Polynomial.constant(vars, 1)


def evaluate_rational(f: Polynomial, point: Mapping[str, "RationalFunction | Polynomial | Coefficient"],
                      vars: VariableSet) -> RationalFunction:
    """Evaluate f at a point whose components may be rational functions.

    Every variable that occurs in some term of f must be bound; ring
    variables absent from f need no value.  The result lives over ``vars``.
    """
    images = {}
    for name in f.occurring_variables():
        if name not in point:
            raise ValueError(f"no value for variable {name!r}")
        images[name] = _quotient(point[name], vars)
    return RationalFunction(*_substitute(f, images, vars))


def replace_square(value: RationalFunction, name: str,
                   square: "RationalFunction | Polynomial") -> RationalFunction:
    """value with every name^(2j + s), s in {0, 1}, rewritten as square^j * name^s.

    ``square`` is what name^2 equals on the locus at hand (1 - cs^2 for a
    sine, 1 for a sign variable, c1^2/alpha^4 for a solved radius), over
    value's ring.  Both parts of value are rewritten exactly and brought to
    the one denominator den^J of square^J, J the larger half-degree, which
    then cancels from the quotient.
    """
    vars = value.num.vars
    v = Polynomial.variable(vars, name)
    parts = [value.num.as_univariate_in(name), value.den.as_univariate_in(name)]
    table = _powers(*_quotient(square, vars), max(len(p) - 1 for p in parts) // 2)

    def lift(buckets: list[Polynomial]) -> Polynomial:
        out: dict[Exponents, Fraction] = {}
        for j in range(0, len(buckets), 2):
            odd = buckets[j + 1] * v if j + 1 < len(buckets) else 0
            _accumulate(out, ((buckets[j] + odd) * table[j // 2]).terms.items())
        return Polynomial._clean(vars, out)

    return RationalFunction(lift(parts[0]), lift(parts[1]))
