"""Sign claims and their witnesses: the trusted check behind every sign step.

A SignFact claims that a polynomial is positive, negative or zero on a
Region, and carries a witness that decides the claim exactly.  One bound
type, VariableCondition, states what a Region knows about each variable.
The one witness is a PositiveCombination: an exact rewrite as a sum of
products whose signs on the region combine decisively.

Every univariate sign, a sign at a point included, is decided by one rule,
the root-free check of ``_root_free``.  This module is part of the trusted
core and imports only ``birot4.poly`` and ``birot4.univariate``; what found
a witness is not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .poly import LEX, Polynomial, VariableSet, format_polynomial
from .univariate import NEG_INFINITY, POS_INFINITY, EndpointRootError, count_real_roots

# sign sets: subsets of {-1, 0, 1} a quantity can take on a region
_POS = frozenset({1})
_NEG = frozenset({-1})
_ZERO = frozenset({0})
_NONNEG = frozenset({0, 1})
_NONPOS = frozenset({-1, 0})
_NONZERO = frozenset({-1, 1})
_ANY = frozenset({-1, 0, 1})


def _sign_mul(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(x * y for x in a for y in b)


def _sign_add(a: frozenset, b: frozenset) -> frozenset:
    if a <= _NONNEG and b <= _NONNEG:
        return _POS if (a == _POS or b == _POS) else _NONNEG
    if a <= _NONPOS and b <= _NONPOS:
        return _NEG if (a == _NEG or b == _NEG) else _NONPOS
    return _ANY


def _sign_of(value: Fraction) -> int:
    return (value > 0) - (value < 0)


# -- regions -----------------------------------------------------------


@dataclass(frozen=True)
class VariableCondition:
    """Rational bounds and sign knowledge for one region variable.

    A missing bound is infinite and a strict bound is excluded.
    """

    lower: Fraction | None = None
    lower_strict: bool = True
    upper: Fraction | None = None
    upper_strict: bool = True
    nonzero: bool = False

    @staticmethod
    def positive() -> "VariableCondition":
        return VariableCondition(lower=Fraction(0), lower_strict=True)

    @staticmethod
    def nonzero_only() -> "VariableCondition":
        return VariableCondition(nonzero=True)

    @staticmethod
    def window(lower, upper, strict: bool = True) -> "VariableCondition":
        return VariableCondition(lower=Fraction(lower), lower_strict=strict,
                                 upper=Fraction(upper), upper_strict=strict)

    @staticmethod
    def point(value) -> "VariableCondition":
        value = Fraction(value)
        return VariableCondition(lower=value, lower_strict=False,
                                 upper=value, upper_strict=False,
                                 nonzero=bool(value))

    def sign_set(self) -> frozenset:
        out = _ANY
        if self.lower is not None:
            if self.lower > 0 or (self.lower == 0 and self.lower_strict):
                out = out & _POS
            elif self.lower == 0:
                out = out & _NONNEG
        if self.upper is not None:
            if self.upper < 0 or (self.upper == 0 and self.upper_strict):
                out = out & _NEG
            elif self.upper == 0:
                out = out & _NONPOS
        if self.nonzero:
            out = out & _NONZERO
        return out

    def admits(self, value: Fraction) -> bool:
        if self.lower is not None:
            if value < self.lower or (value == self.lower and self.lower_strict):
                return False
        if self.upper is not None:
            if value > self.upper or (value == self.upper and self.upper_strict):
                return False
        if self.nonzero and value == 0:
            return False
        return True

    def document(self) -> dict:
        doc: dict = {}
        if self.lower is not None:
            doc["lower"] = str(self.lower)
            doc["lower_strict"] = self.lower_strict
        if self.upper is not None:
            doc["upper"] = str(self.upper)
            doc["upper_strict"] = self.upper_strict
        if self.nonzero:
            doc["nonzero"] = True
        return doc


@dataclass(frozen=True)
class Region:
    """Conjunction of per-variable conditions; absent variables are free."""

    conditions: Mapping[str, VariableCondition] = field(default_factory=dict)

    def condition(self, name: str) -> VariableCondition:
        return self.conditions.get(name, VariableCondition())


# -- the univariate sign rule ------------------------------------------


def _root_free(f: Polynomial, cond: VariableCondition) -> bool:
    """Whether the univariate f has no root on cond's window, by Sturm count.

    The window runs between cond's bounds, infinite where a bound is
    missing.  True means no root in the open window and no finite end is a
    root, so f has one sign on the window; for a point window the count is
    0 and the window is the one point.  A root at an end means undecided.
    """
    lo = NEG_INFINITY if cond.lower is None else cond.lower
    hi = POS_INFINITY if cond.upper is None else cond.upper
    try:
        return count_real_roots(f, (lo, hi)) == 0
    except EndpointRootError:
        return False


def _admitted_point(cond: VariableCondition) -> Fraction | None:
    """One point that cond admits, or None when it admits none.

    A missing bound is taken 2 away from the other one (-1 and 1 when both
    are missing), so the midpoint lies inside a window wider than a point;
    if nonzero excludes a midpoint 0, the point halfway to the upper end is
    inside and nonzero.
    """
    lo, hi = cond.lower, cond.upper
    if lo is None:
        lo = (Fraction(1) if hi is None else hi) - 2
    if hi is None:
        hi = lo + 2
    mid = (lo + hi) / 2
    return next((x for x in (mid, (mid + hi) / 2) if cond.admits(x)), None)


def _power_sign(s: frozenset, e: int) -> frozenset:
    if e == 0:
        return _POS
    if e % 2 == 0:
        out = set()
        if s & _NONZERO:
            out.add(1)
        if 0 in s:
            out.add(0)
        return frozenset(out)
    return s


def polynomial_sign_set(f: Polynomial, region: Region) -> frozenset:
    """Sign set of f on the region: per-monomial rules, then the root-free rule.

    Per-monomial: a term's sign is its coefficient sign times the product
    of variable signs read off the region, with even powers of nonzero
    variables counting as positive.  If the per-monomial sum is not
    decisive and f is univariate with no root on its variable's window,
    f takes on the region the sign it takes at one admitted point.
    """
    if f.is_zero():
        return _ZERO
    total = None
    for exps, coeff in f.terms.items():
        term = frozenset({_sign_of(coeff)})
        for name, e in zip(f.vars, exps):
            if e:
                term = _sign_mul(term, _power_sign(region.condition(name).sign_set(), e))
        total = term if total is None else _sign_add(total, term)
        if total == _ANY:
            break
    names = f.occurring_variables()
    if total != _ANY or len(names) != 1:
        return total
    cond = region.condition(names[0])
    point = _admitted_point(cond)
    if point is None or not _root_free(f, cond):
        return _ANY
    return frozenset({_sign_of(f.evaluate({names[0]: point}))})


# -- the sign-fact witness ---------------------------------------------

_CLAIM_SETS = {"positive": _POS, "negative": _NEG, "zero": _ZERO}


@dataclass(frozen=True)
class ProductTerm:
    """coefficient times a product of polynomial powers."""

    coefficient: Fraction
    factors: tuple[tuple[Polynomial, int], ...] = ()

    def rebuild(self, vars: VariableSet) -> Polynomial:
        out = Polynomial.constant(vars, self.coefficient)
        for base, e in self.factors:
            out = out * base ** e
        return out

    def sign_set(self, region: Region) -> frozenset:
        total = frozenset({_sign_of(self.coefficient)})
        for base, e in self.factors:
            total = _sign_mul(total, _power_sign(polynomial_sign_set(base, region), e))
        return total


@dataclass(frozen=True)
class PositiveCombination:
    """Witness: rewrite as a sum of terms whose signs combine decisively.

    Verification re-expands the terms, checks exact equality with the
    claimed expression, then combines per-term sign sets: every term must
    be one-signed-or-zero on the region with at least one strictly signed,
    all agreeing with the claim.
    """

    terms: tuple[ProductTerm, ...]

    @staticmethod
    def from_polynomial(f: Polynomial) -> "PositiveCombination":
        terms = []
        for exps, coeff in sorted(f.terms.items(), key=lambda item: LEX.key(item[0]),
                                  reverse=True):
            factors = tuple(
                (Polynomial.variable(f.vars, name), e)
                for name, e in zip(f.vars, exps) if e)
            terms.append(ProductTerm(coeff, factors))
        return PositiveCombination(tuple(terms))

    def verify(self, expression: Polynomial, region: Region, claimed: str) -> bool:
        rebuilt = Polynomial.zero(expression.vars)
        for term in self.terms:
            rebuilt = rebuilt + term.rebuild(expression.vars)
        if rebuilt != expression:
            return False
        total = None
        for term in self.terms:
            s = term.sign_set(region)
            total = s if total is None else _sign_add(total, s)
        return total == _CLAIM_SETS[claimed]

    def document(self) -> dict:
        return {"terms": [
            {"coefficient": str(term.coefficient),
             "factors": [{"base": format_polynomial(base), "power": e}
                         for base, e in term.factors]}
            for term in self.terms
        ]}


@dataclass(frozen=True)
class SignFact:
    """A sign claim for a polynomial on a region, plus its witness."""

    expression: Polynomial
    region: Region
    claimed_sign: str
    witness: PositiveCombination

    def verify(self) -> bool:
        if self.claimed_sign not in _CLAIM_SETS:
            return False
        return self.witness.verify(self.expression, self.region, self.claimed_sign)

    def document(self) -> dict:
        doc = {
            "expression": format_polynomial(self.expression),
            "claimed_sign": self.claimed_sign,
            "region": {name: cond.document() for name, cond in self.region.conditions.items()},
        }
        doc.update(self.witness.document())
        return doc


__all__ = [
    "PositiveCombination",
    "ProductTerm",
    "Region",
    "SignFact",
    "VariableCondition",
    "polynomial_sign_set",
]
