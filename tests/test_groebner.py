"""Buchberger completion, normal forms, and membership certificates."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from conftest import monomial_divides, oracle_is_member, random_polynomial, random_small_ideal
from birot4.certificate import (
    MembershipCertificate,
    certificate_from_document,
    certificate_to_document,
)
from birot4.constraints import NORMALIZED_VARS
from birot4.groebner import (
    _PRIMES,
    IdealPresentation,
    _Echelon,
    _dixon,
    _find_unit_pivot,
    _macaulay_certificate,
    _reconstruct,
    basis_from_document,
    basis_to_document,
    buchberger,
    certify_membership,
    monomial_div,
    reduce,
    s_polynomial,
    staged_buchberger,
)
from birot4.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    monomial_mul,
    parse_polynomial,
    primitive_normalize,
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


def _reference_reduce(f, basis, order):
    """Plain Fraction division on exponent tuples under the rule ``reduce``
    documents: the highest remaining term goes to the first basis element
    whose leading monomial divides it, else into the normal form."""
    heads = [(b.leading_monomial(order), b.leading_coefficient(order)) for b in basis]
    work = dict(f.terms)
    normal = {}
    quotients = [{} for _ in basis]
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        for idx, (lm, lc) in enumerate(heads):
            if monomial_divides(lm, mono):
                q_mono, q = monomial_div(mono, lm), coeff / lc
                quotients[idx][q_mono] = quotients[idx].get(q_mono, 0) + q
                for e, c in basis[idx].terms.items():
                    if e != lm:
                        k = monomial_mul(q_mono, e)
                        work[k] = work.get(k, 0) - q * c
                        if not work[k]:
                            del work[k]
                break
        else:
            normal[mono] = coeff
    return Polynomial(f.vars, normal), [Polynomial(f.vars, q) for q in quotients]


def _rationalized(rng, p):
    """p with every coefficient scaled by its own random non-integer rational."""
    return Polynomial(p.vars, {e: c * Fraction(rng.choice((-7, -3, 2, 5, 11)), rng.choice((2, 3, 9, 10)))
                               for e, c in p.terms.items()})


def test_reduce_matches_fraction_reference():
    """Normal forms and quotients are identical to a plain Fraction division,
    under both orders, with integer and with rational coefficients."""
    rng = random.Random(707)
    rational_cases = 0
    for trial in range(40):
        vars, gens = random_small_ideal(rng)
        order = LEX if trial % 2 else GREVLEX
        basis = list(gens)
        f = random_polynomial(rng, vars, 3)
        if trial % 4 >= 2:
            basis = [_rationalized(rng, b) for b in basis]
            f = _rationalized(rng, f)
            rational_cases += 1
        assert reduce(f, basis, order) == _reference_reduce(f, basis, order)
        gb = buchberger(IdealPresentation(vars, order, gens))
        assert reduce(f, gb.elements, order) == _reference_reduce(f, gb.elements, order)
    assert rational_cases == 20


def test_reduce_beyond_the_packing_width():
    """Exponents past any small packed field, given or grown during the
    division, come out exact instead of wrapping."""
    x, y = _xy()
    big = reduce(x ** 70000, [x ** 40000 - y], LEX)
    assert big == _reference_reduce(x ** 70000, [x ** 40000 - y], LEX)
    assert big[0] == x ** 30000 * y
    # in lex, y's exponent grows from 200 to 600 while x is divided out
    grown = reduce(x ** 3, [x - y ** 200], LEX)
    assert grown == _reference_reduce(x ** 3, [x - y ** 200], LEX)
    assert grown[0] == y ** 600
    gb = buchberger(IdealPresentation(XY, LEX, (x - y ** 50, x ** 3)))
    assert gb.elements == [x - y ** 50, y ** 150]


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
        gb = buchberger(presentation)
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
        reference = buchberger(presentation).elements
        shuffled = list(gens)
        rng.shuffle(shuffled)
        again = buchberger(IdealPresentation(vars, GREVLEX, tuple(shuffled))).elements
        assert again == reference


def test_each_basis_element_has_a_membership_certificate():
    """Every reduced basis element, under either order, lies in the
    generators' ideal with a certificate that verifies."""
    rng = random.Random(404)
    for _ in range(6):
        vars, gens = random_small_ideal(rng)
        for order in (GREVLEX, LEX):
            presentation = IdealPresentation(vars, order, gens)
            for element in staged_buchberger(presentation).elements:
                cert = certify_membership(presentation, element)
                assert cert.is_member and cert.verify()


def test_normal_form_agrees_with_membership_oracle():
    """Zero normal form against a degree-graded basis iff the bounded
    linear system for cofactors is solvable."""
    rng = random.Random(505)
    for _ in range(10):
        vars, gens = random_small_ideal(rng)
        gb = buchberger(IdealPresentation(vars, GREVLEX, gens))
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
    direct = buchberger(IdealPresentation(XY, LEX, gens))
    staged = staged_buchberger(IdealPresentation(XY, LEX, gens))
    assert staged.elements == direct.elements


def test_staged_buchberger_ignores_track_provenance():
    """The benchmark's call shape, ``track_provenance=True``, changes nothing:
    same basis, same counters, same document, and no provenance rows."""
    x, y = _xy()
    presentation = IdealPresentation(XY, LEX, (x * x + y * y - 1, x * y - 1))
    tracked = staged_buchberger(presentation, track_provenance=True)
    plain = staged_buchberger(presentation)
    assert tracked.elements == plain.elements
    assert tracked.stats == plain.stats
    doc = basis_to_document(tracked)
    assert doc == basis_to_document(plain)
    assert "provenance" not in doc


def test_planted_member_certificates():
    """Targets planted as sum(h_i * g_i) with deg(h_i) <= 1 get certificates
    that verify, with no row above the planted degree; a basis read back
    from its document, or none at all, gives the same certificate."""
    rng = random.Random(606)
    for _ in range(20):
        vars, gens = random_small_ideal(rng)
        presentation = IdealPresentation(vars, LEX, gens)
        target = Polynomial.zero(vars)
        while target.is_zero():
            multipliers = [random_polynomial(rng, vars, 1) for _ in gens]
            target = sum((h * g for h, g in zip(multipliers, gens)), target)
        planted = max((h * g).total_degree() for h, g in zip(multipliers, gens))
        gb = staged_buchberger(presentation)
        cert = certify_membership(presentation, target, basis=gb)
        assert cert.is_member and cert.verify()
        assert reduce(target, gb.elements, LEX)[0].is_zero()
        assert max(k.total_degree() + g.total_degree()
                   for k, g in zip(cert.cofactors, gens) if not k.is_zero()) <= planted
        stored = basis_from_document(basis_to_document(gb))
        assert certify_membership(presentation, target, basis=stored).cofactors == cert.cofactors
        assert certify_membership(presentation, target).cofactors == cert.cofactors


def test_non_member_certificate_needs_a_higher_degree():
    """target - NF = y^2 has degree 2 like the generators, but its only
    certificate y*g1 - x*g2 uses rows of degree 3."""
    x, y = _xy()
    gens = (x * x + y, x * y)
    presentation = IdealPresentation(XY, LEX, gens)
    gb = staged_buchberger(presentation)
    assert gb.elements == [x * x + y, x * y, y * y]
    target = y * y + y
    cert = certify_membership(presentation, target, basis=gb)
    assert cert.verify() and not cert.is_member
    assert cert.remainder == reduce(target, gb.elements, LEX)[0] == y
    assert cert.cofactors == [y, -x]
    assert max(k.total_degree() + g.total_degree() for k, g in zip(cert.cofactors, gens)) == 3


def _span_holds(rows, goal, prime):
    """Whether goal lies in the span of rows modulo prime, from a fresh elimination."""
    echelon = _Echelon(prime, {})
    for row in rows:
        echelon.add(dict(row))
    return echelon.solve(dict(goal)) is not None


def test_echelon_stops_at_the_first_row_that_spans_the_goal():
    """A tracked goal leaves ``goal_lead`` None exactly at the first prefix of
    rows whose span holds it; what ``solve`` gives there reproduces it and
    equals what ``solve`` gives after every row.  A goal with a term that no
    row has never enters."""
    rng = random.Random(707)
    prime = 101
    seen = {"at start": 0, "midway": 0, "at the end": 0, "never": 0}
    for _ in range(300):
        width = rng.randint(2, 9)  # handles 0 .. width - 1
        rows = [{h: rng.randrange(1, prime)
                 for h in rng.sample(range(width), rng.randint(1, min(3, width)))}
                for _ in range(rng.randint(1, 10))]
        goal = {}
        for j in rng.sample(range(len(rows)), rng.randint(0, len(rows))):
            c = rng.randrange(1, prime)
            for h, v in rows[j].items():
                goal[h] = (goal.get(h, 0) + c * v) % prime
        goal = {h: v for h, v in goal.items() if v}
        if rng.random() < 0.2:
            goal[width] = 1
        echelon = _Echelon(prime, dict(goal))
        entered = 0 if echelon.goal_lead is None else None
        combination = echelon.solve(dict(goal)) if entered == 0 else None
        for n, row in enumerate(rows, 1):
            echelon.add(dict(row))
            if entered is None and echelon.goal_lead is None:
                entered, combination = n, echelon.solve(dict(goal))
        first = next((n for n in range(len(rows) + 1) if _span_holds(rows[:n], goal, prime)),
                     None)
        assert entered == first
        full = echelon.solve(dict(goal))
        if first is None:
            assert full is None and echelon.goal_lead is not None
            seen["never"] += 1
            continue
        assert combination == full
        total = {}
        for j, c in combination.items():
            for h, v in rows[j].items():
                total[h] = (total.get(h, 0) + c * v) % prime
        assert {h: v for h, v in total.items() if v} == goal
        seen["at start" if first == 0 else "at the end" if first == len(rows) else "midway"] += 1
    assert min(seen.values()) > 0, seen


def test_dixon_lifts_the_rational_solution_over_the_support_rows():
    """On an echelon that also holds other independent rows, the lift of a
    target planted on some support rows ends with exactly the planted
    rational solution over them; a target that needs a row outside the
    support yields no candidate."""
    rng = random.Random(1982)
    prime = _PRIMES[0]
    seen = {"extra rows": 0, "fractions": 0, "needs another row": 0}
    for _ in range(60):
        width = rng.randint(3, 9)
        rows = [{h: rng.choice([-1, 1]) * rng.randint(1, 9)
                 for h in rng.sample(range(width), rng.randint(1, width))}
                for _ in range(rng.randint(2, width))]
        echelon = _Echelon(prime, {})
        pivots = [j for j, row in enumerate(rows)
                  if echelon.add({h: c % prime for h, c in row.items()})]
        planted = {j: Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 12))
                   for j in sorted(rng.sample(pivots, rng.randint(1, len(pivots))))}
        total = {}
        for j, y in planted.items():
            for h, v in rows[j].items():
                total[h] = total.get(h, 0) + y * v
        scale = lcm(*(v.denominator for v in total.values()))
        target = {h: int(v * scale) for h, v in total.items() if v}
        if len(planted) > 1:
            left_out = rng.choice(list(planted))
            assert list(_dixon(echelon, {j: rows[j] for j in planted if j != left_out},
                               target)) == []
            seen["needs another row"] += 1
        candidates = list(_dixon(echelon, {j: rows[j] for j in planted}, target))
        assert candidates and candidates[-1] == {j: y * scale for j, y in planted.items()}
        seen["extra rows"] += len(planted) < len(pivots)
        seen["fractions"] += any((y * scale).denominator > 1 for y in planted.values())
    assert min(seen.values()) > 0, seen


def test_dixon_stops_when_a_later_residual_needs_another_row():
    """Modulo p, a = (1, p) alone spans the target (1, 0), but exactly it is
    a - p*b: the second step needs b, so the lift ends after the first
    candidate."""
    prime = _PRIMES[0]
    a, b = {0: 1, 1: prime}, {1: 1}
    echelon = _Echelon(prime, {})
    assert echelon.add({h: c % prime for h, c in a.items()}) and echelon.add(dict(b))
    assert list(_dixon(echelon, {0: a}, {0: 1})) == [{0: Fraction(1)}]
    assert list(_dixon(echelon, {0: a, 1: b}, {0: 1}))[-1] == {0: 1, 1: -prime}


def test_reconstruct_stops_at_its_bound():
    """Values k_i/d with |k_i|, d <= sqrt(modulus/2) reconstruct; a fraction
    whose denominator is past that bound gives None.  Each value is scaled by
    the denominators found before it, so the outcome depends on the order."""
    rng = random.Random(30)
    modulus = _PRIMES[0]
    bound = isqrt(modulus // 2)

    def residue(y):
        return y.numerator * pow(y.denominator, -1, modulus) % modulus

    assert _reconstruct([residue(Fraction(-bound))], modulus) == [Fraction(-bound)]
    assert _reconstruct([residue(Fraction(1, bound))], modulus) == [Fraction(1, bound)]
    assert _reconstruct([residue(Fraction(1, bound + 1))], modulus) is None
    assert bound == 23170
    assert _reconstruct([residue(Fraction(1, 6)), bound], modulus) is None
    assert _reconstruct([bound, residue(Fraction(1, 6))], modulus) == [bound, Fraction(1, 6)]
    for _ in range(200):
        den = rng.randint(1, bound)
        inside = [Fraction(rng.randint(-bound, bound), den) for _ in range(3)]
        assert _reconstruct([residue(y) for y in inside], modulus) == inside
        # |n| <= 1000 and den <= bound + 1000 leave no other fraction within the bound
        past = Fraction(rng.randint(-1000, 1000) or 1, rng.randint(bound + 1, bound + 1000))
        if past.denominator > bound:
            assert _reconstruct([residue(past)], modulus) is None


def test_flagship_elimination_stops_at_row_1256(flagship_basis, monkeypatch):
    """p*t^4 enters the span of the flagship's Macaulay rows at row 1256 of
    the 2167 up to degree 10.  The first prime's elimination skips 17 of
    those rows, multiples of rows that reduced to zero before them, and adds
    the other 1239, 15 of which reduce to zero.  It is the only echelon
    built: the Dixon lift solves on it."""
    added = {}
    init, add = _Echelon.__init__, _Echelon.add

    def counting_init(self, *args):
        init(self, *args)
        added[self] = [0, 0]

    def counting_add(self, work):
        pivot = add(self, work)
        added[self][0] += 1
        added[self][1] += not pivot
        return pivot

    monkeypatch.setattr(_Echelon, "__init__", counting_init)
    monkeypatch.setattr(_Echelon, "add", counting_add)
    target = parse_polynomial("p*t^4", NORMALIZED_VARS)
    certificate = certify_membership(flagship_basis.presentation, target, basis=flagship_basis)
    assert list(added.values()) == [[1239, 15]]
    assert certificate.verify() and certificate.is_member
    assert sum(len(k.terms) for k in certificate.cofactors) == 297


def test_skipped_rows_are_rows_the_full_elimination_finds_dependent(monkeypatch):
    """The search skips a row that is a multiple of a row that reduced to
    zero.  On seeded small ideals, the same search told that no row ever
    reduced to zero skips no row for that reason.  With the first prime, the
    rows it adds and the skipping search leaves out all reduce to zero there,
    both searches make the same pivots in the same order, and they find the
    same certificate."""
    log = []
    add = _Echelon.add

    def logging_add(self, work):
        row = tuple(sorted(work.items()))
        pivot = add(self, work)
        if self.prime == _PRIMES[0]:
            log.append((row, pivot))
            # the skipping search adds a subset of the full search's rows,
            # and neither needs many; one that skips a pivot row can climb
            # degrees without end
            assert len(log) <= bound
        return pivot or not skip

    monkeypatch.setattr(_Echelon, "add", logging_add)
    rng = random.Random(1)
    skipped = 0
    for _ in range(20):
        vars, gens = random_small_ideal(rng)
        target = Polynomial.zero(vars)
        while target.is_zero():
            target = sum((random_polynomial(rng, vars, 3) * g for g in gens), target)
        runs = {}
        bound = 1000
        for skip in (False, True):
            log.clear()
            certificate = _macaulay_certificate(target, gens, Polynomial.zero(vars))
            runs[skip] = list(log), certificate.cofactors
            bound = len(log)
        (kept, cofactors), (full, reference) = runs[True], runs[False]
        kept_rows = {row for row, _ in kept}
        assert all(not pivot for row, pivot in full if row not in kept_rows)
        assert [row for row, pivot in kept if pivot] == [row for row, pivot in full if pivot]
        assert cofactors == reference
        skipped += len(full) - len(kept)
    assert skipped > 0


def _check_pivot_route(presentation, targets):
    """The unit-pivot route gives the direct lex basis; every basis element
    has a membership certificate that verifies; each target's certificate
    from that basis verifies, with the normal form against the basis as its
    remainder.  Returns the target certificates."""
    assert _find_unit_pivot(presentation) is not None
    gb = staged_buchberger(presentation)
    assert gb.elements == buchberger(presentation).elements
    for element in gb.elements:
        cert = certify_membership(presentation, element, basis=gb)
        assert cert.is_member and cert.verify()
    certificates = []
    for target in targets:
        cert = certify_membership(presentation, target, basis=gb)
        assert cert.verify()
        assert cert.remainder == reduce(target, gb.elements, LEX)[0]
        certificates.append(cert)
    return certificates


def test_pivot_route_members_and_non_members():
    """Generators linear in the lead variable take the elimination route,
    also when nothing is left after the pivot, when a generator is a multiple
    of the pivot, when the ideal is the unit ideal, or the target is outside."""
    x, y = _xy()
    one = Polynomial.constant(XY, 1)
    single = IdealPresentation(XY, LEX, (x,))
    square, outside = _check_pivot_route(single, [x * x, y])
    assert square.is_member and square.cofactors == [x]
    assert not outside.is_member
    assert certify_membership(single, x * x).cofactors == [x]
    pair = IdealPresentation(XY, LEX, (x + y, x * y))
    member, unit = _check_pivot_route(pair, [y * y, one])  # x*y - y*(x+y) = -y^2
    assert member.is_member and not unit.is_member
    # the pivot alone, with a tail the search leaves as it is
    pivot_only = IdealPresentation(XY, LEX, (2 * x + y * y - 1,))
    member, outside = _check_pivot_route(pivot_only, [(x + y) * (2 * x + y * y - 1), x])
    assert member.is_member and not outside.is_member
    # a multiple of the pivot leaves a zero remainder, which is dropped
    multiple = IdealPresentation(XY, LEX, (x + y, (x + y) * (y - 3), y * y - 2))
    member, outside = _check_pivot_route(multiple, [x * x - 2, x])
    assert member.is_member and not outside.is_member
    assert staged_buchberger(multiple).elements == [x + y, y * y - 2]
    # the unit ideal: the pivot's normal form against the basis [1] is zero
    unit_ideal = IdealPresentation(XY, LEX, (x + y, x + y + 1, y * y))
    (member,) = _check_pivot_route(unit_ideal, [x * y + 7])
    assert member.is_member
    assert staged_buchberger(unit_ideal).elements == [one]


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
    gb = staged_buchberger(presentation)
    assert certify_membership(presentation, member, basis=gb).verify()
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

    # rational cofactors, rational generators and a nonzero remainder
    gens = (Fraction(1, 2) * x + Fraction(2, 3) * y, y * y - Fraction(3, 5))
    cofactors = [Fraction(1, 3) * x + Fraction(5, 7), Fraction(-2, 9) * y + Fraction(1, 4)]
    remainder = Fraction(4, 11) * y + Fraction(1, 6)
    target = cofactors[0] * gens[0] + cofactors[1] * gens[1] + remainder
    assert MembershipCertificate(target, gens, cofactors, remainder).verify()
    found = certify_membership(IdealPresentation(XY, LEX, gens), target)
    assert found.verify() and not found.is_member
    assert any(c.denominator != 1 for k in found.cofactors for c in k.terms.values())

    def changed(p, mono, delta):
        return p + Polynomial(XY, {mono: delta})

    tampered = [
        MembershipCertificate(target, gens, [changed(cofactors[0], (1, 0), Fraction(1, 1000)),
                                             cofactors[1]], remainder),
        MembershipCertificate(target, (gens[0], changed(gens[1], (0, 0), Fraction(1, 5))),
                              cofactors, remainder),
        MembershipCertificate(target, gens, cofactors, remainder + x * y),
        MembershipCertificate(target * 2, gens, cofactors, remainder),
        # one cofactor more than generators: a zip would pair it with nothing
        MembershipCertificate(target, gens, cofactors + [x * y + 3], remainder),
    ]
    for bad in tampered:
        assert not bad.verify()


def test_unit_pivot_path_matches_basis_path():
    """Nested unit pivots: x is eliminated by the first generator, then y by
    the remainder z^2 - y; the basis and the certificates must match a
    direct lex computation over the original generators."""
    x, y, z = (Polynomial.variable(XYZ, n) for n in ("x", "y", "z"))
    gens = (2 * x + y * z - 1, y * y + z - 3, z * z - y)
    presentation = IdealPresentation(XYZ, LEX, gens)
    target = (y + 1) * gens[0] + z * gens[1] + gens[2]
    inner = IdealPresentation(XYZ, LEX, (y * y + z - 3, z * z - y))
    assert _find_unit_pivot(inner) == 1
    cert, outside = _check_pivot_route(presentation, [target, x * z])
    assert cert.is_member and not outside.is_member
    assert certify_membership(presentation, target).cofactors == cert.cofactors


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
    assert doc["format"] == "birot4/groebner-basis@2" and "stats" not in doc
    back = basis_from_document(doc)
    assert back.elements == gb.elements
    assert back.stats == {}
    assert back.presentation.generators == gb.presentation.generators
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
    gb = buchberger(IdealPresentation(XY, LEX, gens))
    assert gb.elements == [Polynomial.constant(XY, 1)]
    assert reduce(x + Fraction(5, 3), gb.elements, LEX)[0].is_zero()


def _sympy_lex_basis(vars, generators):
    """sympy's reduced lex basis, primitive-normalized like ours."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(vars.names)
    exprs = [sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*[s ** e for s, e in zip(symbols, mono)])
                         for mono, c in g.terms.items()]) for g in generators]
    basis = sympy.groebner(exprs, *symbols, order="lex")
    out = []
    for expr in basis.exprs:
        terms = sympy.Poly(expr, *symbols).terms()
        p = Polynomial(vars, {mono: Fraction(int(c.p), int(c.q)) for mono, c in terms})
        out.append(primitive_normalize(p, LEX)[0])
    return sorted(out, key=lambda p: LEX.key(p.leading_monomial(LEX)), reverse=True)


def test_lex_basis_matches_sympy_on_small_ideals():
    """An independent implementation gives the same reduced lex basis."""
    pytest.importorskip("sympy")
    rng = random.Random(808)
    for _ in range(10):
        vars, gens = random_small_ideal(rng)
        ours = staged_buchberger(IdealPresentation(vars, LEX, gens))
        assert ours.elements == _sympy_lex_basis(vars, gens)


def test_flagship_certificate_expands_in_sympy(flagship_certificate, system_vii):
    """An independent re-expansion: sympy's sum(K_i * E_i) is p*t^4, and no
    product K_i * E_i goes above degree 10."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(NORMALIZED_VARS.names)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {mono: sympy.Rational(c.numerator, c.denominator) for mono, c in p.terms.items()},
            *symbols, domain="QQ")

    cert = flagship_certificate
    assert cert.generators == tuple(system_vii.polynomials())
    total = sympy.Poly(0, *symbols, domain="QQ")
    for k, g in zip(cert.cofactors, cert.generators, strict=True):
        total += to_sympy(k) * to_sympy(g)
    p, t = symbols[3], symbols[4]
    assert total == sympy.Poly(p * t ** 4, *symbols, domain="QQ")
    assert cert.remainder.is_zero()
    assert max(k.total_degree() + g.total_degree()
               for k, g in zip(cert.cofactors, cert.generators)) <= 10


@pytest.mark.slow
def test_flagship_lex_basis_matches_sympy(system_vii):
    """The full-rotation system's reduced lex basis, against sympy (about a
    minute in sympy)."""
    pytest.importorskip("sympy")
    gens = tuple(system_vii.polynomials())
    ours = staged_buchberger(IdealPresentation(NORMALIZED_VARS, LEX, gens))
    assert ours.elements == _sympy_lex_basis(NORMALIZED_VARS, gens)
