"""Membership certificates: the trusted check and the document format.

A certificate states target = sum(K_i * g_i) + remainder over generators
g_i.  ``MembershipCertificate.verify`` re-expands that identity exactly on
packed monomials (``_Packing``, also the search kernel's layout) and
decides.  Nothing that found the certificate is trusted, and the search
(``birot4.groebner``) is not imported: re-checking a stored certificate
needs this module and ``birot4.poly`` only.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import lcm
from operator import lshift

from .poly import LEX, MonomialOrder, Polynomial, VariableSet, format_polynomial, parse_polynomial

CERTIFICATE_FORMAT = "birot4/membership-certificate@1"


# -- packed monomials ---------------------------------------------------

class _Overflow(Exception):
    """A packed exponent outgrew its field; the caller widens and retries."""


_MIN_WIDTH = 8  # bits per field at least, so small inputs rarely restart


class _Packing:
    """Exponent tuples packed into one int, laid out for a monomial order.

    Each variable owns a field of ``width`` bits.  Packed inputs and every
    factor of a product have exponents below ``2**(width - 2)`` (``fits``),
    so a product's fields stay below the field's top bit, its guard:
    multiplying monomials is adding ints, and ``a`` divides ``b`` iff
    ``(b - a) & guard == 0``, because a field of ``b`` smaller than ``a``'s
    borrows into its own guard bit.  An exponent that would break the bound
    raises ``_Overflow``; the caller then doubles the width and starts over,
    so nothing ever wraps.

    Under lex the first variable takes the top field and packed ints compare
    as the monomials do.  Under grevlex the fields run from the last variable
    (highest) down to the first, below an unbounded field holding the total
    degree; the sort key is the degree part minus the variable part.

    The kernel keys terms by their *handle*, the negated sort key: heapq pops
    the smallest handle first, which is the leading term, and the key is
    additive, so the handle of a product is the sum of the two handles.
    """

    def __init__(self, order: MonomialOrder, n: int, width: int):
        self.order, self.n, self.width = order, n, width
        graded = order.kind == "grevlex"
        self.offsets = [(i if graded else n - 1 - i) * width for i in range(n)]
        self.split = n * width if graded else 0  # the degree field starts here
        self.degree_unit = 1 << self.split if graded else 0
        self.variables = (1 << n * width) - 1
        self.guard = sum(1 << off + width - 1 for off in self.offsets)
        self.field = (1 << width - 1) - 1

    @classmethod
    def fitting(cls, order: MonomialOrder, n: int, polys) -> "_Packing":
        top = max((max(e, default=0) for p in polys for e in p.terms), default=0)
        return cls(order, n, max(_MIN_WIDTH, top.bit_length() + 2))

    def wider(self) -> "_Packing":
        return _Packing(self.order, self.n, 2 * self.width)

    def pack(self, exps) -> int:
        if max(exps, default=0) >> self.width - 2:
            raise _Overflow
        return sum(map(lshift, exps, self.offsets)) + sum(exps) * self.degree_unit

    def exponents(self, m: int) -> tuple[int, ...]:
        return tuple(m >> off & self.field for off in self.offsets)

    def fits(self, m: int) -> bool:
        """True when m may be a factor of a product: no field at half range."""
        return not m & self.guard >> 1

    def handle(self, m: int) -> int:
        low = m & (1 << self.split) - 1
        return 2 * low - m

    def monomial(self, h: int) -> int:
        return h - (h >> self.split << self.split + 1)

    def degree(self, m: int) -> int:
        return m >> self.split if self.degree_unit else sum(self.exponents(m))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum; a field of (a | guard) - b keeps its guard iff a >= b."""
        a, b = a & self.variables, b & self.variables
        a_wins = ((a | self.guard) - b & self.guard) >> self.width - 1
        mask = a_wins * self.field
        v = a & mask | b & ~mask
        return v + sum(self.exponents(v)) * self.degree_unit


def _scaled(pk: _Packing, polys) -> tuple[list[dict[int, int]], int]:
    """Integer numerators keyed by handle over one common denominator."""
    den = 1
    for p in polys:
        for c in p.terms.values():
            den = lcm(den, c.denominator)
    return [{pk.handle(pk.pack(e)): c.numerator * (den // c.denominator)
             for e, c in p.terms.items()} for p in polys], den


# -- the certificate and its exact check ---------------------------------

@dataclass
class MembershipCertificate:
    """target = sum(cofactors[i] * generators[i]) + remainder, exactly."""

    target: Polynomial
    generators: tuple[Polynomial, ...]
    cofactors: list[Polynomial]
    remainder: Polynomial

    @property
    def is_member(self) -> bool:
        return self.remainder.is_zero()

    def verify(self) -> bool:
        """True iff sum(cofactors[i] * generators[i]) + remainder == target,
        with exactly one cofactor per generator.

        This re-expansion is the trusted check: nothing that found the
        certificate is trusted.  It runs in plain integers.  Each group is
        written over its common denominator: the cofactors as K_i/k, the
        generators as G_i/g, the remainder and the target as R/t and T/t.
        The identity holds iff t * sum(K_i * G_i) == k * g * (T - R), term
        by term.  Monomials are packed with fields wide enough for every
        product (``_Packing.fitting``), so the packing is one-to-one and
        multiplying two monomials is adding two ints.
        """
        if len(self.cofactors) != len(self.generators):
            return False
        vars = self.target.vars
        polys = [*self.cofactors, *self.generators, self.remainder]
        if any(p.vars != vars for p in polys):
            raise ValueError("certificate polynomials use different variable sets")
        pk = _Packing.fitting(LEX, len(vars), polys + [self.target])
        cofactors, k = _scaled(pk, self.cofactors)
        generators, g = _scaled(pk, self.generators)
        (remainder, target), t = _scaled(pk, [self.remainder, self.target])
        acc: dict[int, int] = {}
        for cof, gen in zip(cofactors, generators):
            for e1, c1 in cof.items():
                for e2, c2 in gen.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        lhs = {e: c * t for e, c in acc.items() if c}
        rhs = {e: (target.get(e, 0) - remainder.get(e, 0)) * k * g
               for e in target.keys() | remainder.keys()}
        return lhs == {e: c for e, c in rhs.items() if c}


# -- serialization -----------------------------------------------------

_WIDE_DIGITS = 2_000_000


def _unlock_wide_integers() -> None:
    """Lift the interpreter's int/str conversion limit for exact coefficients.

    The flagship basis and certificate stay far below CPython's default
    guard (at most 9-digit basis coefficients, under 80-digit certificate
    coefficients), but basis provenance rows and certificates of other inputs
    can pass it, and the document layer needs the full width in both
    directions.  No-op where the interpreter has no such limit.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is not None and sys.get_int_max_str_digits() < _WIDE_DIGITS:
        setter(_WIDE_DIGITS)


def certificate_to_document(cert: MembershipCertificate) -> dict:
    _unlock_wide_integers()
    vars = cert.target.vars
    return {
        "format": CERTIFICATE_FORMAT,
        "variables": list(vars.names),
        "target": format_polynomial(cert.target),
        "generators": [format_polynomial(g) for g in cert.generators],
        "cofactors": [format_polynomial(c) for c in cert.cofactors],
        "remainder": format_polynomial(cert.remainder),
        "is_member": cert.remainder.is_zero(),
    }


def certificate_from_document(doc: dict) -> MembershipCertificate:
    _unlock_wide_integers()
    if doc.get("format") != CERTIFICATE_FORMAT:
        raise ValueError(f"unsupported document format: {doc.get('format')!r}")
    vars = VariableSet(tuple(doc["variables"]))
    return MembershipCertificate(
        target=parse_polynomial(doc["target"], vars),
        generators=tuple(parse_polynomial(t, vars) for t in doc["generators"]),
        cofactors=[parse_polynomial(t, vars) for t in doc["cofactors"]],
        remainder=parse_polynomial(doc["remainder"], vars),
    )
