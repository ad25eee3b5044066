"""Sparse multivariate polynomials over the exact rationals.

A polynomial is a mapping {exponent tuple -> nonzero Fraction} together with
an ordered variable set.  Monomials are plain exponent tuples; the variable
set fixes which position means which symbol.  Monomial orders (lex and
graded reverse lex) are supplied as key functions so that ``max(...)`` and
``sorted(...)`` respect the order.

The text format is a sum of terms like ``2*B*p + 3*t*u - 4/3*u``: rational
coefficients, ``*`` between factors, ``^`` for powers >= 2.  Printing sorts
terms descending under a chosen order and parsing is exact, so print/parse
round-trips are bit-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .scalar import Rational, format_rational, parse_rational

Exponents = tuple[int, ...]
Coefficient = Union[Rational, int]


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


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    """True when a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b; caller guarantees divisibility."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"monomial {b} does not divide {a}")
    return out


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


class MonomialOrder:
    """A total multiplicative order on exponent tuples with 1 minimal.

    ``key(exps)`` returns a tuple so that builtin comparisons realize the
    order; ``compare`` gives the usual -1/0/+1.
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

    def compare(self, a: Exponents, b: Exponents) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("MonomialOrder", self.kind))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class Polynomial:
    """Immutable sparse polynomial over Q with a fixed VariableSet."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet, terms: Mapping[Exponents, Coefficient]):
        clean: dict[Exponents, Fraction] = {}
        width = len(vars)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} does not fit {vars.names}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            value = Fraction(coeff)
            if value:
                clean[exps] = clean.get(exps, Fraction(0)) + value
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _clean(cls, vars: VariableSet, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap terms that are already valid: fitting tuples, nonzero Fractions.

        The ring operations build such dicts themselves, so they skip the
        checks and the re-summing that ``__init__`` does.
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
        return Polynomial(vars, {(0,) * len(vars): Fraction(value)})

    @staticmethod
    def variable(vars: VariableSet, name: str) -> "Polynomial":
        return Polynomial(vars, {vars.unit(name): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(monomial_degree(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()), Fraction(0))

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

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

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
        for exps, coeff in other.terms.items():
            acc = out[exps] + coeff if exps in out else coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
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
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
            out[dropped] = out.get(dropped, Fraction(0)) + coeff * k
        return Polynomial(self.vars, out)

    def evaluate(self, point: Mapping[str, Coefficient]) -> Fraction:
        """Evaluate with every variable bound to a rational."""
        values = []
        for name in self.vars:
            if name not in point:
                raise ValueError(f"no value for variable {name!r}")
            values.append(Fraction(point[name]))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term *= value ** e
            total += term
        return total

    def substitute(self, bindings: Mapping[str, "Polynomial | Coefficient"],
                   into: VariableSet | None = None) -> "Polynomial":
        """Replace variables by polynomials (or rationals).

        Unbound variables must exist in the target set and map to themselves.
        """
        target = into if into is not None else self.vars
        images: dict[str, Polynomial] = {}
        for name in self.vars:
            if name in bindings:
                image = bindings[name]
                if isinstance(image, (int, Fraction)):
                    image = Polynomial.constant(target, image)
                if image.vars != target:
                    raise ValueError(f"image of {name!r} lives in {image.vars.names}, not {target.names}")
                images[name] = image
            else:
                images[name] = Polynomial.variable(target, name)
        out = Polynomial.zero(target)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for name, e in zip(self.vars, exps):
                if e:
                    term = term * images[name] ** e
            out = out + term
        return out

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
            buckets[k][rest] = buckets[k].get(rest, Fraction(0)) + coeff
        return [Polynomial(self.vars, bucket) for bucket in buckets]

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<Polynomial {format_polynomial(self)!r} over {self.vars.names}>"


def primitive_normalize(f: Polynomial, order: MonomialOrder = LEX) -> tuple[Polynomial, Fraction]:
    """Scale to coprime integer coefficients with a positive leading one.

    Returns (normalized, scalar) with normalized == scalar * f; the scalar is
    positive exactly when f's leading coefficient under ``order`` already is.
    The zero polynomial maps to (0, 1).  Two polynomials agree up to a nonzero
    rational factor iff they normalize to the same polynomial.
    """
    if f.is_zero():
        return f, Fraction(1)
    num_gcd = 0
    den_lcm = 1
    for coeff in f.terms.values():
        num_gcd = gcd(num_gcd, abs(coeff.numerator))
        den_lcm = lcm(den_lcm, coeff.denominator)
    scalar = Fraction(den_lcm, num_gcd)
    if f.leading_coefficient(order) < 0:
        scalar = -scalar
    return f * scalar, scalar


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return f
    f._check_same_vars(g)
    order = LEX
    lm_g = g.leading_monomial(order)
    lc_g = g.terms[lm_g]
    quotient: dict[Exponents, Fraction] = {}
    work = dict(f.terms)
    while work:
        lm_w = max(work, key=order.key)
        if not monomial_divides(lm_g, lm_w):
            raise ValueError("not an exact multiple")
        q_mono = monomial_div(lm_w, lm_g)
        q_coeff = work[lm_w] / lc_g
        quotient[q_mono] = q_coeff
        for e, c in g.terms.items():
            key = monomial_mul(q_mono, e)
            acc = work.get(key, Fraction(0)) - q_coeff * c
            if acc:
                work[key] = acc
            else:
                work.pop(key, None)
    return Polynomial(f.vars, quotient)


def eliminate_linear(f: Polynomial, name: str, den: Polynomial, num: Polynomial) -> Polynomial:
    """Clear a linear relation den*v + num = 0 out of f.

    v = ``name`` must not occur in den or num.  Returns den^d * f with v
    replaced by -num/den, where d = deg_v(f); this is a polynomial identity,
    valid on the locus den != 0.
    """
    if den.degree_in(name) > 0 or num.degree_in(name) > 0:
        raise ValueError(f"relation for {name!r} mentions {name!r}")
    coeffs = f.as_univariate_in(name)
    if not coeffs:
        return f
    degree = len(coeffs) - 1
    out = Polynomial.zero(f.vars)
    minus_num = -num
    for k, coeff in enumerate(coeffs):
        out = out + coeff * (minus_num ** k) * (den ** (degree - k))
    return out


def substitute_even_powers(f: Polynomial, name: str, square_image: Polynomial) -> Polynomial:
    """Replace v^(2j) by square_image^j; rejects odd powers of v."""
    idx = f.vars.index(name)
    out = Polynomial.zero(f.vars)
    for exps, coeff in f.terms.items():
        e = exps[idx]
        if e % 2:
            raise ValueError(f"odd power of {name!r} in {f}")
        rest = exps[:idx] + (0,) + exps[idx + 1:]
        out = out + Polynomial(f.vars, {rest: coeff}) * square_image ** (e // 2)
    return out


# -- text format -------------------------------------------------------

_TERM_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


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


def parse_polynomial(text: str, vars: VariableSet) -> Polynomial:
    """Inverse of format_polynomial; accepts any ordering of terms.

    Raises ValueError for malformed text and for a variable outside ``vars``.
    """
    cleaned = text.strip()
    for variant in ("−", "–"):
        cleaned = cleaned.replace(variant, "-")
    if not cleaned:
        raise ValueError("empty polynomial text")
    # split into signed terms at top level (no parentheses in the format)
    chunks = re.split(r"(?=[+-])", cleaned.replace(" ", ""))
    terms: dict[Exponents, Fraction] = {}
    width = len(vars)
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = [0] * width
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                coeff *= parse_rational(factor)
                continue
            match = _TERM_FACTOR.match(factor)
            if not match:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            name, power = match.group(1), match.group(2)
            try:
                exps[vars.index(name)] += int(power) if power else 1
            except KeyError:
                raise ValueError(f"unknown variable {name!r} in {text!r}") from None
        key = tuple(exps)
        acc = terms.get(key, Fraction(0)) + coeff
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return Polynomial(vars, terms)


# -- rational functions ------------------------------------------------

class RationalFunction:
    """A quotient num/den of polynomials, compared by cross-multiplication.

    No gcd reduction is attempted beyond rational-content scaling; equality
    and zero tests are exact regardless.
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

    @staticmethod
    def of(value: Polynomial | Coefficient, vars: VariableSet) -> "RationalFunction":
        if isinstance(value, Polynomial):
            return RationalFunction(value)
        return RationalFunction(Polynomial.constant(vars, value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction(Polynomial.constant(self.num.vars, other))

    def __add__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        return RationalFunction(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        return RationalFunction(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * rhs.den, self.den * rhs.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return NotImplemented
        rhs = self._coerce(other)
        return self.num * rhs.den == rhs.num * self.den

    def __hash__(self) -> int:
        raise TypeError("RationalFunction is unhashable")

    def __repr__(self) -> str:
        return f"<RationalFunction ({self.num}) / ({self.den})>"


def evaluate_rational(f: Polynomial, point: Mapping[str, "RationalFunction | Polynomial | Coefficient"],
                      vars: VariableSet) -> RationalFunction:
    """Evaluate f at a point whose components may be rational functions.

    Every variable that occurs in some term of f must be bound; ring
    variables absent from f need no value.  The result lives over ``vars``.
    """
    images: dict[str, RationalFunction] = {}
    for index, name in enumerate(f.vars):
        if not any(exps[index] for exps in f.terms):
            continue
        if name not in point:
            raise ValueError(f"no value for variable {name!r}")
        value = point[name]
        if isinstance(value, RationalFunction):
            images[name] = value
        elif isinstance(value, Polynomial):
            images[name] = RationalFunction(value)
        else:
            images[name] = RationalFunction(Polynomial.constant(vars, value))
    total = RationalFunction(Polynomial.zero(vars))
    for exps, coeff in f.terms.items():
        term = RationalFunction(Polynomial.constant(vars, coeff))
        for name, e in zip(f.vars, exps):
            for _ in range(e):
                term = term * images[name]
        total = total + term
    return total
