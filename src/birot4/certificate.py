"""Membership certificates: the trusted check and the document format.

A certificate states target = sum(K_i * g_i) + remainder over generators
g_i.  It is kept in the @2 document's form: each cofactor as an integer
numerator polynomial N_i over one denominator k, K_i = N_i / k, with
gcd(k, every coefficient of every N_i) = 1.  The reader, the exact check
and the writer work on those ints, and build no ``Fraction`` per cofactor
term.  ``MembershipCertificate.verify`` re-expands the identity exactly, on
monomials written as integers by Kronecker substitution, and decides.
Nothing that found the certificate is trusted, and the search
(``birot4.groebner``) is not imported: re-checking a stored certificate
needs this module and ``birot4.poly`` only.  The @2 document also carries
the certify worker's certificate to its parent (``groebner._Worker``).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .poly import (Polynomial, VariableSet, format_polynomial, over_one_denominator,
                   parse_numerators, parse_polynomial)

CERTIFICATE_FORMAT = "birot4/membership-certificate@2"
# @1 wrote each cofactor over its own rational coefficients; still read
CERTIFICATE_FORMAT_1 = "birot4/membership-certificate@1"


# -- the certificate and its exact check ---------------------------------

@dataclass(init=False)
class MembershipCertificate:
    """target = sum(K_i * generators[i]) + remainder, exactly, where
    K_i = numerators[i] / denominator.

    The numerators have integer coefficients and the denominator is an int
    k >= 1, in the canonical form gcd(k, every coefficient of every N_i) = 1,
    so equal certificates are equal field by field.  Build one from rational
    cofactors K_i, or with ``from_numerators``; ``cofactors`` gives the K_i.
    """

    target: Polynomial
    generators: tuple[Polynomial, ...]
    numerators: tuple[Polynomial, ...]
    denominator: int
    remainder: Polynomial

    def __init__(self, target: Polynomial, generators: tuple[Polynomial, ...],
                 cofactors: list[Polynomial], remainder: Polynomial):
        numerators, k = over_one_denominator(cofactors)
        self._store(target, generators,
                    [Polynomial._clean(c.vars, n) for c, n in zip(cofactors, numerators)],
                    k, remainder)

    @classmethod
    def from_numerators(cls, target: Polynomial, generators: tuple[Polynomial, ...],
                        numerators: list[Polynomial], denominator: int,
                        remainder: Polynomial) -> "MembershipCertificate":
        """The certificate with K_i = numerators[i] / denominator, for integer
        numerators and an int denominator >= 1 in any common scale."""
        cert = object.__new__(cls)
        cert._store(target, generators, numerators, denominator, remainder)
        return cert

    def _store(self, target, generators, numerators, k, remainder) -> None:
        """Keep N_i / k with their common factor divided out: the one canonical form."""
        if k < 1:
            raise ValueError(f"a certificate denominator is at least 1, not {k}")
        common = gcd(k, *(c for n in numerators for c in n.terms.values()))
        if common > 1:
            numerators = [Polynomial._clean(n.vars, {e: c // common for e, c in n.terms.items()})
                          for n in numerators]
        self.target, self.generators, self.remainder = target, generators, remainder
        self.numerators, self.denominator = tuple(numerators), k // common

    @property
    def cofactors(self) -> list[Polynomial]:
        """The rational cofactors K_i = N_i / k, built on each read."""
        k = self.denominator
        return [Polynomial._clean(n.vars, {e: Fraction(c, k) for e, c in n.terms.items()})
                for n in self.numerators]

    @property
    def is_member(self) -> bool:
        return self.remainder.is_zero()

    def verify(self) -> bool:
        """True iff sum(K_i * generators[i]) + remainder == target, with
        exactly one cofactor per generator.

        This re-expansion is the trusted check: nothing that found the
        certificate is trusted.  It runs in plain integers.  Each group is
        written over its common denominator: the cofactors are stored as
        N_i/k, the generators are written as G_i/g, the remainder and the
        target as R/t and T/t.  The identity holds iff
        t * sum(N_i * G_i) == k * g * (T - R), term by term.  A monomial x^e
        is the integer sum(e_i * B**i) (Kronecker substitution), where B is
        one more than any exponent that a product N_i * G_i, the target or
        the remainder can reach.  Every exponent is then a base-B digit, so
        the code is one-to-one on those monomials and multiplying two
        monomials is adding two ints.
        """
        if len(self.numerators) != len(self.generators):
            return False
        vars = self.target.vars
        polys = [*self.numerators, *self.generators, self.remainder]
        if any(p.vars != vars for p in polys):
            raise ValueError("certificate polynomials use different variable sets")
        # the largest exponent in the numerators, the generators, and R and T
        top = [max((max(e, default=0) for p in ps for e in p.terms), default=0)
               for ps in (self.numerators, self.generators, [self.remainder, self.target])]
        base = 1 + max(top[0] + top[1], top[2])
        weights = [base ** i for i in range(len(vars))]

        def code(e):
            return sum(map(mul, e, weights))

        k = self.denominator
        generators, g = over_one_denominator(self.generators, code)
        (remainder, target), t = over_one_denominator([self.remainder, self.target], code)
        acc: dict[int, int] = {}
        get = acc.get
        for num, gen in zip(self.numerators, generators):
            gen_items = list(gen.items())
            for e1, c1 in num.terms.items():
                e1 = code(e1)
                for e2, c2 in gen_items:
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
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
    coefficients), but the bases and certificates of other inputs can pass
    it, and the document layer needs the full width in both directions.
    No-op where the interpreter has no such limit.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is not None and sys.get_int_max_str_digits() < _WIDE_DIGITS:
        setter(_WIDE_DIGITS)


def certificate_to_document(cert: MembershipCertificate) -> dict:
    """The @2 document: the certificate's own form, each numerator N_i and
    the denominator k, written once as "denominator"."""
    _unlock_wide_integers()
    return {
        "format": CERTIFICATE_FORMAT,
        "variables": list(cert.target.vars.names),
        "target": format_polynomial(cert.target),
        "generators": [format_polynomial(g) for g in cert.generators],
        "denominator": str(cert.denominator),
        # format_polynomial reads only a coefficient's sign, magnitude,
        # numerator and denominator, which an int has too
        "cofactors": [format_polynomial(n) for n in cert.numerators],
        "remainder": format_polynomial(cert.remainder),
        "is_member": cert.remainder.is_zero(),
    }


def _document_denominator(doc: dict) -> int:
    """k of a certificate document: its "denominator" under @2, 1 under @1."""
    fmt = doc.get("format")
    if fmt == CERTIFICATE_FORMAT_1:
        if "denominator" in doc:
            raise ValueError(f"a {fmt} document has no denominator")
        return 1
    if fmt != CERTIFICATE_FORMAT:
        raise ValueError(f"unsupported document format: {fmt!r}")
    text = doc.get("denominator")
    if not (isinstance(text, str) and re.fullmatch("[0-9]+", text) and int(text)):
        raise ValueError(f"denominator is not a positive base-10 integer: {text!r}")
    return int(text)


def _texts(doc: dict, name: str, kind: type = list):
    """doc[name], refused unless it is a string (kind=str) or an array of strings."""
    value = doc.get(name)
    if not isinstance(value, kind) or kind is list and not all(isinstance(t, str) for t in value):
        raise ValueError(f"{name} is not {'a string' if kind is str else 'an array of strings'}")
    return value


def certificate_from_document(doc: dict) -> MembershipCertificate:
    """Read an @2 document, or an @1 one as the document with k = 1.

    The cofactors are read as integers over the lcm L of the denominators
    they write (``parse_numerators``; L = 1 for @2), so they stand over
    L * k, which the certificate brings to its canonical form.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a certificate document is an object, not {type(doc).__name__}")
    _unlock_wide_integers()
    k = _document_denominator(doc)
    vars = VariableSet(tuple(_texts(doc, "variables")))
    numerators, den = parse_numerators(_texts(doc, "cofactors"), vars)
    return MembershipCertificate.from_numerators(
        target=parse_polynomial(_texts(doc, "target", str), vars),
        generators=tuple(parse_polynomial(t, vars) for t in _texts(doc, "generators")),
        numerators=numerators,
        denominator=den * k,
        remainder=parse_polynomial(_texts(doc, "remainder", str), vars),
    )
