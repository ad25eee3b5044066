"""Univariate toolkit: Sturm chains, real-root counting, resultants.

Root counting works on polynomials that are univariate in fact (a single
variable occurs), whatever the ambient variable set.  Intervals are open,
with rational endpoints or +/- infinity (floats).  Resultants treat one
designated variable as the main one and the remaining variables as
coefficient symbols; the resultant is the Sylvester determinant, expanded
by minors so that all arithmetic stays in the polynomial ring.

This module is part of the trusted core and imports only ``birot4.poly``.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial

NEG_INFINITY = float("-inf")
POS_INFINITY = float("inf")
REAL_LINE = (NEG_INFINITY, POS_INFINITY)


class EndpointRootError(ValueError):
    """An interval endpoint is a root of the polynomial being counted."""


def univariate_name(f: Polynomial) -> str | None:
    """The single variable occurring in f, or None for a constant."""
    names = f.occurring_variables()
    if len(names) > 1:
        raise ValueError(f"not univariate: {list(names)} occur in {f}")
    return names[0] if names else None


def dense_coefficients(f: Polynomial, name: str) -> list[Fraction]:
    """[a0, a1, ..., an] with f = sum a_k name^k; [] for the zero polynomial."""
    coeffs = f.as_univariate_in(name)
    if any(c.occurring_variables() for c in coeffs):
        raise ValueError(f"not univariate in {name!r}: {f}")
    return [c.evaluate({}) for c in coeffs]


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over Q, dense lists."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and r:
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        for i, bc in enumerate(b):
            r[i + shift] -= factor * bc
        while r and not r[-1]:
            r.pop()
    return r


def _dense_sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """f, f', then negated Euclidean remainders; f has degree at least one."""
    chain = [coeffs, [c * k for k, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_at(coeffs: list[Fraction], point) -> int:
    if not coeffs:
        return 0
    if point == POS_INFINITY:
        lead = coeffs[-1]
        return 1 if lead > 0 else -1
    if point == NEG_INFINITY:
        lead = coeffs[-1]
        sign = 1 if lead > 0 else -1
        return sign if (len(coeffs) - 1) % 2 == 0 else -sign
    value = _horner(coeffs, Fraction(point))
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _variations(chains: list[list[Fraction]], point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chains) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(f: Polynomial, interval=REAL_LINE) -> int:
    """Distinct real roots of f in the open interval (a, b).

    Endpoints are rationals or +/- infinity.  A finite endpoint that is a
    root raises EndpointRootError.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no root count")
    lo, hi = interval
    if not (lo == NEG_INFINITY or isinstance(lo, (int, Fraction))):
        raise ValueError(f"bad lower endpoint {lo!r}")
    if not (hi == POS_INFINITY or isinstance(hi, (int, Fraction))):
        raise ValueError(f"bad upper endpoint {hi!r}")
    if lo != NEG_INFINITY and hi != POS_INFINITY and Fraction(lo) >= Fraction(hi):
        return 0
    name = univariate_name(f)
    if name is None:
        return 0
    coeffs = dense_coefficients(f, name)
    for endpoint in (lo, hi):
        if endpoint not in (NEG_INFINITY, POS_INFINITY) and not _horner(coeffs, Fraction(endpoint)):
            raise EndpointRootError(f"endpoint {endpoint} is a root of {f}")
    chain = _dense_sturm_chain(coeffs)
    return _variations(chain, lo) - _variations(chain, hi)


# -- resultants --------------------------------------------------------

def resultant_univariate(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """Resultant of f and g with respect to one variable: det Syl(f, g).

    The Sylvester matrix (Cox, Little and O'Shea, Ch. 3 section 5) has
    deg g rows holding f's coefficients, leading first, each one column
    right of the one before, then deg f rows holding g's the same way.  Its
    determinant is expanded column by column: the minor on the first k
    columns and a set of k rows is computed once, from the minors on k - 1
    of those rows, so no step divides.  That is at most n*2^n polynomial
    products for n = deg f + deg g.  The result is not normalized (callers
    primitive-normalize before comparing up to rational multiples).  A zero
    input gives zero; two inputs constant in ``name`` raise ValueError.
    """
    f._check_same_vars(g)
    a = f.as_univariate_in(name)
    b = g.as_univariate_in(name)
    zero = Polynomial.zero(f.vars)
    if not a or not b:
        return zero
    size = len(a) + len(b) - 2
    if not size:
        raise ValueError(f"both inputs constant in {name!r}")
    matrix = [[zero] * shift + coeffs[::-1] + [zero] * (size - shift - len(coeffs))
              for coeffs, other in ((a, b), (b, a)) for shift in range(len(other) - 1)]
    minors = {frozenset(): Polynomial.constant(f.vars, 1)}
    for column in range(size):
        grown: dict[frozenset[int], Polynomial] = {}
        for rows, minor in minors.items():
            for row in range(size):
                entry = matrix[row][column]
                if row in rows or entry.is_zero():
                    continue
                # the permutation gains one inversion per chosen row below this one
                term = entry * minor
                if sum(r > row for r in rows) % 2:
                    term = -term
                key = rows | {row}
                grown[key] = grown.get(key, zero) + term
        minors = grown
    return minors.get(frozenset(range(size)), zero)
