"""The certificate document format: @2 writes integer cofactors over one
denominator, @1 documents stay readable, and the flagship certificate is the
same certificate in either format.  The exact check, ``verify``, is held at
the edge of its Kronecker base and against sympy's expansion."""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import random_polynomial

from birot4.certificate import (
    MembershipCertificate,
    certificate_from_document,
    certificate_to_document,
)
from birot4.constraints import NORMALIZED_VARS
from birot4.fixtures import CERTIFICATE_TARGET_TEXT
from birot4.poly import Polynomial, parse_polynomial, variables

FORMAT_1 = "birot4/membership-certificate@1"
FORMAT_2 = "birot4/membership-certificate@2"
# CERTIFICATE_DIGEST of tests/test_cli.py while certify wrote @1 documents.
# Rendered as @1, the flagship certificate must still hash to it: the move to
# @2 changed how the certificate is written, not the certificate.
FLAGSHIP_FORMAT_1_DIGEST = (
    "sha256:da8a26002ffa3e60d4cb56791e1204b88d5672d1f384a9445ccc620759a1ebdd")
STORED_ARTIFACT = (Path(__file__).resolve().parent.parent
                   / "perfbench" / "data" / "flagship_certify.json.gz")

XY = variables("x", "y")
# target = sum(K_i*g_i) + remainder, worked out by hand; the cofactor
# coefficients have denominators 2, 3 and 4, so k = 12
HAND_WRITTEN_1 = {
    "format": FORMAT_1,
    "variables": ["x", "y"],
    "target": "x^2 - 2",
    "generators": ["x + y", "y^2 - 2"],
    "cofactors": ["1/2*x + 1/3", "-3/4*y"],
    "remainder": "1/2*x^2 - 1/2*x*y - 1/3*x + 3/4*y^3 - 11/6*y - 2",
    "is_member": False,
}


def _digest(document: dict) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return f"sha256:{hashlib.sha256(text.encode()).hexdigest()}"


def test_hand_written_format_1_document_decodes_as_its_format_2_re_encoding():
    cert = certificate_from_document(HAND_WRITTEN_1)
    assert cert.verify()
    document = certificate_to_document(cert)
    assert document == {**HAND_WRITTEN_1, "format": FORMAT_2, "denominator": "12",
                        "cofactors": ["6*x + 4", "-9*y"]}
    assert certificate_from_document(document) == cert


@pytest.mark.parametrize("cofactors", [["2*x", "0"], ["0", "0"], []],
                         ids=["integer", "zero", "none"])
def test_denominator_is_one_without_fractional_cofactor_coefficients(cofactors):
    cert = MembershipCertificate(
        target=parse_polynomial("x", XY),
        generators=tuple(parse_polynomial(g, XY) for g in ("x", "y")[:len(cofactors)]),
        cofactors=[parse_polynomial(k, XY) for k in cofactors],
        remainder=parse_polynomial("x", XY) if not cofactors else Polynomial.zero(XY))
    document = certificate_to_document(cert)
    assert document["denominator"] == "1"
    assert certificate_from_document(document) == cert


def test_cofactors_are_divided_by_the_denominator():
    document = {**HAND_WRITTEN_1, "format": FORMAT_2, "denominator": "24",
                "cofactors": ["6*x + 4", "-9*y"]}
    x, y = (Polynomial.variable(XY, n) for n in "xy")
    cofactors = certificate_from_document(document).cofactors
    assert cofactors == [Fraction(1, 4) * x + Fraction(1, 6), Fraction(-3, 8) * y]


@pytest.mark.parametrize("change", [
    {"format": FORMAT_2},
    {"denominator": "12"},
    *({"format": FORMAT_2, "denominator": text}
      for text in ("0", "-1", "1.5", "", " 12", "+12", "1e3", "１２")),
    {"format": FORMAT_2, "denominator": 12},
    {"format": FORMAT_2, "denominator": None},
    # the polynomial fields: a string where an array belongs would otherwise
    # be read character by character, "xy" as the variables x and y
    {"variables": "xy"},
    {"variables": {"x": 0, "y": 1}},
    {"cofactors": "00"},
    {"cofactors": None},
    {"generators": ["x + y", 2]},
    {"target": ["x^2 - 2"]},
    {"remainder": 0},
], ids=["@2-without", "@1-with", "zero", "negative", "decimal-point", "empty", "space",
        "plus", "exponent", "non-ascii-digits", "json-number", "null",
        "variables-string", "variables-object", "cofactors-string", "cofactors-null",
        "generators-number-item", "target-array", "remainder-number"])
def test_a_bad_denominator_field_is_refused(change):
    with pytest.raises(ValueError):
        certificate_from_document({**HAND_WRITTEN_1, **change})


def test_flagship_certificate_did_not_move(certify_artifact, certify_artifact_v1,
                                           flagship_certificate):
    """The flagship's @2 document, decoded and rendered as @1, is the @1
    document certify wrote before, byte for byte."""
    document_1 = certify_artifact_v1["payload"]["certificate"]
    assert _digest(document_1) == FLAGSHIP_FORMAT_1_DIGEST
    assert certificate_from_document(document_1) == flagship_certificate
    document_2 = certify_artifact["payload"]["certificate"]
    assert certificate_to_document(flagship_certificate) == document_2
    assert all("/" not in text for text in document_2["cofactors"])


def test_committed_benchmark_artifact_re_verifies():
    """The benchmark's recheck gate parses this stored @1 artifact on every pass."""
    with gzip.open(STORED_ARTIFACT, "rt") as stored:
        document = json.load(stored)["payload"]["certificate"]
    assert document["format"] == FORMAT_1
    cert = certificate_from_document(document)
    assert cert.target == parse_polynomial(CERTIFICATE_TARGET_TEXT, NORMALIZED_VARS)
    assert cert.is_member and cert.verify()


# -- the Kronecker base of verify ------------------------------------------


def _certificate(target, generators, cofactors, remainder=None) -> MembershipCertificate:
    return MembershipCertificate(target=target, generators=tuple(generators),
                                 cofactors=list(cofactors),
                                 remainder=Polynomial.zero(target.vars) if remainder is None
                                 else remainder)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_the_kronecker_base_leaves_no_room_to_alias(m):
    """K*g = x^(m+1) reaches the exponent B - 1, B = m + 2.  Under a base one
    smaller, x^(m+1) and y would have the same code and y = x * x^m would pass."""
    x, y = (Polynomial.variable(XY, n) for n in "xy")
    assert not _certificate(y, [x ** m], [x]).verify()
    assert _certificate(x ** (m + 1), [x ** m], [x]).verify()


def test_the_kronecker_base_covers_the_target_and_remainder():
    """The product reaches exponent 1 only; the target or the remainder
    reaches x^3, which has x*y's code under any base sized by the product
    alone and y's code under B = 3, one smaller than the base of x^3."""
    x, y = (Polynomial.variable(XY, n) for n in "xy")
    one = Polynomial.constant(XY, 1)
    assert not _certificate(x ** 3 + y, [y], [one]).verify()
    assert not _certificate(x ** 3 + x * y, [x * y], [one]).verify()
    assert not _certificate(2 * x * y, [x * y], [one], remainder=x ** 3).verify()


def test_verify_refuses_polynomials_over_two_rings():
    x = Polynomial.variable(XY, "x")
    other = Polynomial.variable(variables("x"), "x")
    with pytest.raises(ValueError, match="different variable sets"):
        _certificate(x, [other], [Polynomial.constant(variables("x"), 1)]).verify()


def test_a_product_at_the_top_of_the_base_verifies():
    """(x + 2)*(x^4 - y) reaches x^5, the exponent B - 1 for B = 6."""
    x, y = (Polynomial.variable(XY, n) for n in "xy")
    one = Polynomial.constant(XY, 1)
    assert _certificate(x ** 5 + 2 * x ** 4 - x * y - 2 * y + 1, [x ** 4 - y], [x + 2],
                        remainder=one).verify()
    assert not _certificate(x ** 5 + 2 * x ** 4 - x * y - 2 * y, [x ** 4 - y], [x + 2],
                            remainder=one).verify()


def test_verify_beyond_any_small_base():
    """Exponents near 70000 re-expand exactly: the verify-side twin of
    test_groebner's test_reduce_beyond_the_packing_width."""
    def mono(i, j):  # x^i * y^j, built directly: Polynomial.__pow__ multiplies i times
        return Polynomial(XY, {(i, j): Fraction(1)})

    cofactor, generator = mono(35000, 1) + 1, mono(34999, 0) - mono(0, 69999)
    product = cofactor * generator
    assert _certificate(product, [generator], [cofactor]).verify()
    assert _certificate(product - mono(69999, 1), [generator], [cofactor],
                        remainder=-mono(69999, 1)).verify()
    assert not _certificate(product + mono(69999, 1), [generator], [cofactor]).verify()
    assert not _certificate(product, [generator], [cofactor + mono(0, 70000)]).verify()


def test_verify_agrees_with_sympy_on_random_certificates():
    """verify() against sympy's expansion of sum(K_i * g_i) + R - T, on random
    certificates over x, y, z and on each after one coefficient is changed."""
    sympy = pytest.importorskip("sympy")
    vars = variables("x", "y", "z")
    symbols = sympy.symbols(vars.names)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
            or {(0, 0, 0): 0}, *symbols, domain="QQ")

    def holds(cert):
        total = to_sympy(cert.remainder) - to_sympy(cert.target)
        for k, g in zip(cert.cofactors, cert.generators):
            total += to_sympy(k) * to_sympy(g)
        return total.is_zero

    rng = random.Random(20261020)
    for _ in range(30):
        count = rng.randint(1, 3)
        generators = [random_polynomial(rng, vars, rng.randint(1, 2)) for _ in range(count)]
        cofactors = [random_polynomial(rng, vars, rng.randint(0, 2))
                     * Fraction(1, rng.randint(1, 6)) for _ in range(count)]
        remainder = Polynomial.zero(vars)
        if rng.random() < 0.5:
            remainder = random_polynomial(rng, vars, 1) * Fraction(1, rng.randint(1, 4))
        expanded = sum((to_sympy(k) * to_sympy(g) for k, g in zip(cofactors, generators)),
                       to_sympy(remainder))
        target = Polynomial(vars, {e: Fraction(int(c.p), int(c.q))
                                   for e, c in expanded.terms()})
        cert = _certificate(target, generators, cofactors, remainder)
        assert holds(cert) and cert.verify()
        # change one coefficient: no K_i or g_i is zero, so the identity breaks
        polys = [*cert.cofactors, *cert.generators, cert.remainder, cert.target]
        i = rng.randrange(len(polys))
        terms = dict(polys[i].terms) or {(0, 0, 0): Fraction(0)}
        e = rng.choice(sorted(terms))
        terms[e] += rng.choice((-1, 1)) * Fraction(1, rng.randint(1, 3))
        polys[i] = Polynomial(vars, terms)
        tampered = _certificate(polys[-1], polys[count:2 * count], polys[:count], polys[-2])
        assert not holds(tampered) and not tampered.verify()
