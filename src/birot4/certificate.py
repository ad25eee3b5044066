"""Membership certificates: the trusted check and the document format.

A certificate states target = sum(K_i * g_i) + remainder over generators
g_i.  It is kept as integers: each cofactor as an integer numerator
polynomial N_i over one denominator k, K_i = N_i / k, with gcd(k, every
coefficient of every N_i) = 1.  The reader, the exact check and the writer
work on those ints, and build no ``Fraction`` per cofactor term.
``MembershipCertificate.verify`` re-expands the identity exactly, on
monomials written as integers by Kronecker substitution, and decides.
Nothing that found the certificate is trusted, and the search
(``birot4.groebner``) is not imported: re-checking a stored certificate
needs this module and ``birot4.poly`` only.

The @3 document writes each N_i as two strings: its monomials as polynomial
text with every coefficient 1, and its coefficients as base64 numerals in
the same order.  Base64 goes to and from bytes in linear time, where an int's
decimal text takes time quadratic in its digits.  The target, the
generators and the remainder stay decimal text: they are the claim a
referee compares with the extracted system.  @1 and @2 documents stay
readable.  The reader takes only the cofactor texts that the writer gives,
so each N_i and k have one @3 spelling.  The @3 document also carries the
certify worker's certificate to its parent (``groebner._Worker``).
"""

from __future__ import annotations

import re
import sys
from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .poly import (Polynomial, VariableSet, format_polynomial, over_one_denominator,
                   parse_numerators, parse_polynomial, parse_terms)

CERTIFICATE_FORMAT = "birot4/membership-certificate@3"
# Still read: @2 wrote each N_i as decimal polynomial text and k as a decimal
# "denominator"; @1 wrote each K_i over its own rational coefficients.
CERTIFICATE_FORMAT_2 = "birot4/membership-certificate@2"
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


def numeral(value: int) -> str:
    """A nonzero int as an @3 numeral: an optional "-", then the standard
    base64 of the magnitude's minimal big-endian bytes (5 is "BQ==", -256 is
    "-AQA=").  ``int.from_bytes(binascii.a2b_base64(text), "big")`` reads a
    magnitude back."""
    magnitude = abs(value)
    text = b2a_base64(magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big"),
                      newline=False).decode("ascii")
    return text if value > 0 else f"-{text}"


def _numerals(text: str, field: str) -> list[int]:
    """The ints of a space-separated list of numerals; "" is the empty list.

    A numeral is refused unless ``numeral`` writes its value as the same
    text.  That one comparison refuses what the decoder lets through: it
    skips characters outside the alphabet, and takes non-zero pad bits
    ("AQJ=" for "AQI=") and leading zero bytes ("AAE=" for "AQ=="); zero
    is never written.  (The decoder's ``strict_mode`` needs Python 3.11.)
    """
    values = []
    for text_i in text.split(" ") if text else ():
        negative = text_i[:1] == "-"
        try:
            value = int.from_bytes(a2b_base64(text_i[negative:]), "big")
        except ValueError:  # binascii.Error, or a character outside ASCII
            value = 0
        if negative:
            value = -value
        if not value or numeral(value) != text_i:
            raise ValueError(f"{field}: {text_i!r} is not a canonical nonzero numeral")
        values.append(value)
    return values


def _monomials_text(vars: VariableSet, monomials) -> str:
    """The one @3 text of a nonempty set of monomials: the polynomial with
    each of them at coefficient 1, as ``format_polynomial`` writes it."""
    return format_polynomial(Polynomial._clean(vars, dict.fromkeys(monomials, 1)))


def _cofactor_fields(numerator: Polynomial) -> dict:
    """The @3 fields of N_i: its monomials in LEX order, each with
    coefficient 1, and its coefficients as numerals in that order.  A zero
    N_i is two empty strings."""
    terms = numerator.sorted_terms()
    if not terms:
        return {"monomials": "", "numerators": ""}
    return {"monomials": _monomials_text(numerator.vars, numerator.terms),
            "numerators": " ".join([numeral(c) for _, c in terms])}


def certificate_to_document(cert: MembershipCertificate) -> dict:
    """The @3 document: each N_i as its monomials and its numerals, and the
    denominator k once, as a numeral."""
    _unlock_wide_integers()
    return {
        "format": CERTIFICATE_FORMAT,
        "variables": list(cert.target.vars.names),
        "target": format_polynomial(cert.target),
        "generators": [format_polynomial(g) for g in cert.generators],
        "denominator": numeral(cert.denominator),
        "cofactors": [_cofactor_fields(n) for n in cert.numerators],
        "remainder": format_polynomial(cert.remainder),
        "is_member": cert.remainder.is_zero(),
    }


def _read_cofactor(cofactor, field: str, vars: VariableSet) -> Polynomial:
    """N_i of an @3 cofactor object, refused unless its monomials are the
    text that the writer gives them, each beside one numeral.

    Comparing the text with ``_monomials_text`` of the monomials read
    refuses a coefficient, a sign, a repeated monomial, LEX order broken,
    and any other spelling of a monomial ("1*x", "x^1", "y*x").
    """
    if not (isinstance(cofactor, dict) and cofactor.keys() == {"monomials", "numerators"}
            and all(isinstance(text, str) for text in cofactor.values())):
        raise ValueError(f"{field} is not an object of two strings, monomials and numerators")
    text = cofactor["monomials"]
    monomials = [exps for exps, _, _ in parse_terms(text, vars)] if text else []
    if monomials and _monomials_text(vars, monomials) != text:
        raise ValueError(f"{field}.monomials: not each monomial once, with no coefficient "
                         "or sign, in LEX order, as format_polynomial writes it")
    values = _numerals(cofactor["numerators"], f"{field}.numerators")
    if len(values) != len(monomials):
        raise ValueError(f"{field}.numerators: {len(values)} numerals "
                         f"for {len(monomials)} monomials")
    return Polynomial._clean(vars, dict(zip(monomials, values)))


def _document_denominator(doc: dict) -> int:
    """k as the document writes it: one numeral under @3, decimal text under
    @2, none under @1 (k = 1).  The certificate refuses an @3 k below 1."""
    fmt, text = doc.get("format"), doc.get("denominator")
    if fmt == CERTIFICATE_FORMAT:
        values = _numerals(text, "denominator") if isinstance(text, str) else []
        if len(values) != 1:
            raise ValueError(f"denominator is not one numeral: {text!r}")
        return values[0]
    if fmt == CERTIFICATE_FORMAT_1:
        if "denominator" in doc:
            raise ValueError(f"a {fmt} document has no denominator")
        return 1
    if fmt != CERTIFICATE_FORMAT_2:
        raise ValueError(f"unsupported document format: {fmt!r}")
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
    """Read an @3 document, or an older one.

    Under @3 each N_i is read from its monomials and its numerals, and k from
    its numeral.  Under @2 and @1 the cofactor texts are read as integers over
    the lcm L of the denominators they write (``parse_numerators``; L = 1 for
    @2), over the @2 "denominator" k (k = 1 for @1), so they stand over L * k.
    Either way the certificate brings N_i / k to its canonical form.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a certificate document is an object, not {type(doc).__name__}")
    _unlock_wide_integers()
    k = _document_denominator(doc)
    vars = VariableSet(tuple(_texts(doc, "variables")))
    if doc["format"] == CERTIFICATE_FORMAT:
        cofactors = doc.get("cofactors")
        if not isinstance(cofactors, list):
            raise ValueError("cofactors is not an array of objects")
        numerators = [_read_cofactor(c, f"cofactors[{i}]", vars)
                      for i, c in enumerate(cofactors)]
    else:
        numerators, den = parse_numerators(_texts(doc, "cofactors"), vars)
        k *= den
    return MembershipCertificate.from_numerators(
        target=parse_polynomial(_texts(doc, "target", str), vars),
        generators=tuple(parse_polynomial(t, vars) for t in _texts(doc, "generators")),
        numerators=numerators,
        denominator=k,
        remainder=parse_polynomial(_texts(doc, "remainder", str), vars),
    )
