"""The certificate document format: @2 writes integer cofactors over one
denominator, @1 documents stay readable, and the flagship certificate is the
same certificate in either format."""

from __future__ import annotations

import gzip
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

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
], ids=["@2-without", "@1-with", "zero", "negative", "decimal-point", "empty", "space",
        "plus", "exponent", "non-ascii-digits", "json-number", "null"])
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
