"""Buchberger completion, normal forms, and membership certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import oracle_is_member, random_polynomial, random_small_ideal
from birot4.groebner import (
    GroebnerBasis,
    IdealPresentation,
    MembershipCertificate,
    ResourceCapExceeded,
    basis_from_document,
    basis_to_document,
    buchberger,
    certificate_from_document,
    certificate_to_document,
    certify_membership,
    reduce,
    s_polynomial,
    staged_buchberger,
)
from birot4.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    monomial_divides,
    variables,
)

XY = variables("x", "y")
XYZ = variables("x", "y", "z")


def _xy():
    return Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")


def test_s_polynomial_cancels_leading_terms():
    x, y = _xy()
    f = x * x * y + x
    g = x * y * y - y
    s = s_polynomial(f, g, LEX)
    lcm = (2, 2)
    assert all(mono != lcm for mono in s.terms)
    with pytest.raises(ValueError):
        s_polynomial(f, Polynomial.zero(XY), LEX)


def test_reduce_division_identity_and_irreducibility():
    rng = random.Random(101)
    for _ in range(25):
        vars, gens = random_small_ideal(rng)
        basis = [g for g in gens]
        f = random_polynomial(rng, vars, 3)
        normal, quotients = reduce(f, basis, GREVLEX)
        rebuilt = normal
        for q, b in zip(quotients, basis):
            rebuilt = rebuilt + q * b
        assert rebuilt == f
        heads = [b.leading_monomial(GREVLEX) for b in basis]
        for mono in normal.terms:
            assert not any(monomial_divides(h, mono) for h in heads)


def test_reduce_rejects_zero_divisor():
    x, y = _xy()
    with pytest.raises(ValueError):
        reduce(x, [Polynomial.zero(XY)], LEX)


def test_textbook_basis_circle_and_hyperbola():
    """The lex basis of (x^2 + y^2 - 1, x*y - 1) eliminates x as expected."""
    x, y = _xy()
    presentation = IdealPresentation(XY, LEX, (x * x + y * y - 1, x * y - 1))
    gb = buchberger(presentation)
    eliminant = y ** 4 - y * y + 1
    assert any(g == eliminant for g in gb.elements)
    assert all(g.degree_in("x") <= 1 for g in gb.elements)
    # both generators reduce to zero against the basis
    for g in presentation.generators:
        assert reduce(g, gb.elements, LEX)[0].is_zero()


def test_buchberger_postconditions_on_random_ideals():
    rng = random.Random(202)
    for _ in range(12):
        vars, gens = random_small_ideal(rng)
        order = GREVLEX if rng.random() < 0.5 else LEX
        presentation = IdealPresentation(vars, order, gens)
        gb = buchberger(presentation, track_provenance=False)
        elements = gb.elements
        # every S-polynomial of the final basis reduces to zero
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                s = s_polynomial(elements[i], elements[j], order)
                assert reduce(s, elements, order)[0].is_zero()
        # the reduced basis is monic-primitive and mutually irreducible
        for pos, g in enumerate(elements):
            assert g.leading_coefficient(order) > 0
            others = elements[:pos] + elements[pos + 1:]
            heads = [b.leading_monomial(order) for b in others]
            for mono in g.terms:
                assert not any(monomial_divides(h, mono) for h in heads)


def test_reduced_basis_unique_under_generator_permutation():
    rng = random.Random(303)
    for _ in range(8):
        vars, gens = random_small_ideal(rng)
        presentation = IdealPresentation(vars, GREVLEX, gens)
        reference = buchberger(presentation, track_provenance=False).elements
        shuffled = list(gens)
        rng.shuffle(shuffled)
        again = buchberger(IdealPresentation(vars, GREVLEX, tuple(shuffled)),
                           track_provenance=False).elements
        assert again == reference


def test_provenance_rows_re_expand_each_basis_element():
    rng = random.Random(404)
    for _ in range(6):
        vars, gens = random_small_ideal(rng)
        gb = buchberger(IdealPresentation(vars, GREVLEX, gens))
        assert gb.provenance is not None
        for element, row in zip(gb.elements, gb.provenance):
            acc = Polynomial.zero(vars)
            for cof, g in zip(row, gens):
                acc = acc + cof * g
            assert acc == element


def test_normal_form_agrees_with_membership_oracle():
    """Zero normal form against a degree-graded basis iff the bounded
    linear system for cofactors is solvable."""
    rng = random.Random(505)
    for _ in range(10):
        vars, gens = random_small_ideal(rng)
        gb = buchberger(IdealPresentation(vars, GREVLEX, gens), track_provenance=False)
        planted = Polynomial.zero(vars)
        for g in gens:
            planted = planted + random_polynomial(rng, vars, 1) * g
        probes = [planted, random_polynomial(rng, vars, 2), gens[0]]
        for f in probes:
            in_ideal = reduce(f, gb.elements, GREVLEX)[0].is_zero()
            assert oracle_is_member(f, gb.elements) == in_ideal
        assert reduce(planted, gb.elements, GREVLEX)[0].is_zero()


def test_staged_buchberger_equals_direct_lex():
    x, y = _xy()
    gens = (x * x + y * y - 1, x * y - 1)
    direct = buchberger(IdealPresentation(XY, LEX, gens), track_provenance=False)
    staged = staged_buchberger(IdealPresentation(XY, LEX, gens), track_provenance=False)
    assert staged.elements == direct.elements
    # staged provenance still expresses elements over the original generators
    tracked = staged_buchberger(IdealPresentation(XY, LEX, gens))
    for element, row in zip(tracked.elements, tracked.provenance):
        acc = Polynomial.zero(XY)
        for cof, g in zip(row, gens):
            acc = acc + cof * g
        assert acc == element


def test_backward_contraction_matches_forward_rows():
    """The certificate contracts the provenance trace backward from the
    target's quotients; it must equal the same quotients applied to the
    forward rows, sum_k Q_k * provenance[k]."""
    rng = random.Random(606)
    nonzero_quotients = 0
    for _ in range(20):
        vars, gens = random_small_ideal(rng)
        presentation = IdealPresentation(vars, LEX, gens)
        target = Polynomial.zero(vars)
        while target.is_zero():
            for g in gens:
                target = target + random_polynomial(rng, vars, 1) * g
        gb = staged_buchberger(presentation)
        cert = certify_membership(presentation, target, basis=gb)
        assert cert.is_member and cert.verify()
        normal, quotients = reduce(target, gb.elements, LEX)
        assert normal.is_zero()
        expected = [Polynomial.zero(vars) for _ in gens]
        for q, row in zip(quotients, gb.provenance):
            nonzero_quotients += not q.is_zero()
            expected = [e + q * r for e, r in zip(expected, row)]
        assert cert.cofactors == expected
        # a basis read back from its document carries the same provenance
        stored = basis_from_document(basis_to_document(gb))
        assert certify_membership(presentation, target, basis=stored).cofactors == expected
    assert nonzero_quotients >= 20


def test_pivot_route_members_and_non_members():
    """Generators linear in the lead variable take the elimination route,
    also when nothing is left after the pivot or the target is outside."""
    x, y = _xy()
    single = IdealPresentation(XY, LEX, (x,))
    square = certify_membership(single, x * x)
    assert square.is_member and square.verify()
    assert square.cofactors == [x]
    outside = certify_membership(single, y)
    assert not outside.is_member and outside.verify()
    pair = IdealPresentation(XY, LEX, (x + y, x * y))
    member = certify_membership(pair, y * y)  # x*y - y*(x+y) = -y^2
    assert member.is_member and member.verify()
    unit = certify_membership(pair, Polynomial.constant(XY, 1))
    assert not unit.is_member and unit.verify()


def test_certify_membership_member_and_non_member():
    x, y = _xy()
    gens = (x * x + y * y - 1, x * y - 1)
    presentation = IdealPresentation(XY, LEX, gens)
    member = (x + y) * gens[0] - y * y * gens[1]
    cert = certify_membership(presentation, member)
    assert cert.is_member
    assert cert.verify()
    acc = Polynomial.zero(XY)
    for cof, g in zip(cert.cofactors, cert.generators):
        acc = acc + cof * g
    assert acc == member
    outsider = certify_membership(presentation, x)
    assert not outsider.is_member
    assert outsider.verify()


def test_certificate_verify_detects_tampering():
    x, y = _xy()
    gens = (x + y, y * y - 2)
    cert = certify_membership(IdealPresentation(XY, LEX, gens), x * x - 2)
    assert cert.verify()
    bad = MembershipCertificate(cert.target, cert.generators,
                               [cert.cofactors[0] + 1] + list(cert.cofactors[1:]),
                               cert.remainder)
    assert not bad.verify()


def test_unit_pivot_path_matches_basis_path():
    """A generator linear in the lead variable routes through elimination;
    the certificate must still be a valid identity over the original
    generators."""
    x, y, z = (Polynomial.variable(XYZ, n) for n in ("x", "y", "z"))
    gens = (2 * x + y * z - 1, y * y + z - 3, z * z - y)
    presentation = IdealPresentation(XYZ, LEX, gens)
    target = (y + 1) * gens[0] + z * gens[1] + gens[2]
    cert = certify_membership(presentation, target)
    assert cert.is_member
    assert cert.verify()
    gb = staged_buchberger(presentation, track_provenance=True)
    via_basis = certify_membership(presentation, target, basis=gb)
    assert via_basis.is_member
    assert via_basis.verify()


def test_resource_cap_raises():
    x, y = _xy()
    gens = (x * x + y * y - 1, x * y - 1)
    with pytest.raises(ResourceCapExceeded):
        buchberger(IdealPresentation(XY, LEX, gens), max_pairs=1)


def test_presentation_rejects_bad_generators():
    x, _ = _xy()
    with pytest.raises(ValueError):
        IdealPresentation(XY, LEX, (Polynomial.zero(XY),))
    foreign = Polynomial.variable(XYZ, "x")
    with pytest.raises(ValueError):
        IdealPresentation(XY, LEX, (foreign,))
    assert IdealPresentation(XY, LEX, (x,)).generators == (x,)


def test_basis_document_round_trip():
    x, y = _xy()
    gb = buchberger(IdealPresentation(XY, LEX, (x * x + y * y - 1, x * y - 1)))
    doc = basis_to_document(gb)
    back = basis_from_document(doc)
    assert back.elements == gb.elements
    assert back.presentation.generators == gb.presentation.generators
    assert back.provenance == gb.provenance
    with pytest.raises(ValueError):
        basis_from_document({"format": "other"})


def test_certificate_document_round_trip():
    x, y = _xy()
    cert = certify_membership(IdealPresentation(XY, LEX, (x + y, y * y - 2)), x * x - 2)
    doc = certificate_to_document(cert)
    back = certificate_from_document(doc)
    assert back.target == cert.target
    assert back.generators == cert.generators
    assert back.cofactors == cert.cofactors
    assert back.remainder == cert.remainder
    assert back.verify()
    with pytest.raises(ValueError):
        certificate_from_document({"format": "other"})


def test_ideal_containing_a_unit_collapses():
    x, y = _xy()
    gens = (x * y - 1, x * y + 1)
    gb = buchberger(IdealPresentation(XY, LEX, gens), track_provenance=False)
    assert gb.elements == [Polynomial.constant(XY, 1)]
    assert reduce(x + Fraction(5, 3), gb.elements, LEX)[0].is_zero()
