"""Membership certificates: the trusted check and the document format.

A certificate states target = sum(K_i * g_i) + remainder over generators
g_i.  ``MembershipCertificate.verify`` re-expands that identity exactly, on
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
from operator import mul

from .poly import (Polynomial, VariableSet, format_polynomial, over_one_denominator,
                   parse_polynomial)

CERTIFICATE_FORMAT = "birot4/membership-certificate@2"
# @1 wrote each cofactor over its own rational coefficients; still read
CERTIFICATE_FORMAT_1 = "birot4/membership-certificate@1"


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
        by term.  A monomial x^e is the integer sum(e_i * B**i) (Kronecker
        substitution), where B is one more than any exponent that a
        product K_i * G_i, the target or the remainder can reach.  Every
        exponent is then a base-B digit, so the code is one-to-one on those
        monomials and multiplying two monomials is adding two ints.
        """
        if len(self.cofactors) != len(self.generators):
            return False
        vars = self.target.vars
        polys = [*self.cofactors, *self.generators, self.remainder]
        if any(p.vars != vars for p in polys):
            raise ValueError("certificate polynomials use different variable sets")
        # the largest exponent in the cofactors, the generators, and R and T
        top = [max((max(e, default=0) for p in ps for e in p.terms), default=0)
               for ps in (self.cofactors, self.generators, [self.remainder, self.target])]
        base = 1 + max(top[0] + top[1], top[2])
        weights = [base ** i for i in range(len(vars))]

        def code(e):
            return sum(map(mul, e, weights))

        cofactors, k = over_one_denominator(self.cofactors, code)
        generators, g = over_one_denominator(self.generators, code)
        (remainder, target), t = over_one_denominator([self.remainder, self.target], code)
        acc: dict[int, int] = {}
        get = acc.get
        for cof, gen in zip(cofactors, generators):
            gen_items = list(gen.items())
            for e1, c1 in cof.items():
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
    """The @2 document: each cofactor K_i written once as the integer
    polynomial N_i = k * K_i, and k, the lcm of the denominators of every
    cofactor coefficient, written once as "denominator"."""
    _unlock_wide_integers()
    vars = cert.target.vars
    numerators, k = over_one_denominator(cert.cofactors)
    return {
        "format": CERTIFICATE_FORMAT,
        "variables": list(vars.names),
        "target": format_polynomial(cert.target),
        "generators": [format_polynomial(g) for g in cert.generators],
        "denominator": str(k),
        # ints in place of Fractions: format_polynomial reads only the sign,
        # the magnitude and its numerator and denominator
        "cofactors": [format_polynomial(Polynomial._clean(vars, n)) for n in numerators],
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
    """Read an @2 document, or an @1 one as the document with k = 1."""
    if not isinstance(doc, dict):
        raise ValueError(f"a certificate document is an object, not {type(doc).__name__}")
    _unlock_wide_integers()
    k = _document_denominator(doc)
    vars = VariableSet(tuple(_texts(doc, "variables")))
    cofactors = [parse_polynomial(t, vars) for t in _texts(doc, "cofactors")]
    if k != 1:
        cofactors = [Polynomial._clean(vars, {e: c / k for e, c in n.terms.items()})
                     for n in cofactors]
    return MembershipCertificate(
        target=parse_polynomial(_texts(doc, "target", str), vars),
        generators=tuple(parse_polynomial(t, vars) for t in _texts(doc, "generators")),
        cofactors=cofactors,
        remainder=parse_polynomial(_texts(doc, "remainder", str), vars),
    )
