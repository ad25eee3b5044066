"""End-to-end gate: eight checks covering the whole verification chain.

Each test regenerates its objects from scratch (or pulls the session
artifact produced through the command-line entry point), re-verifies the
claimed identities in exact arithmetic, and finishes by printing one
scorecard line, so a verbose run shows the full verdict at a glance.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from fractions import Fraction

from conftest import (
    case7_reference_system,
    monomial_divides,
    oracle_is_member,
    profile_series_table,
    random_polynomial,
    random_small_ideal,
)
from birot4.cases import check_case_V
from birot4.constraints import (
    NORMALIZED_VARS,
    arc_defect_series,
    compatibility_series,
    extract_system,
)
from birot4.fixtures import (
    CASE5_FOURTH_DERIVATIVE,
    CASE6_CUBIC_AT_HI,
    CASE6_CUBIC_AT_LO,
    CASE6_ROOT_WINDOW,
    CASE6_TAU4_COEFF,
    CASE7_A_VALUE,
    CASE7_B_VALUE,
    CASE7_REDUCED_CONSTANT,
    CERTIFICATE_TARGET_TEXT,
    CUBIC_T_TEXT,
    QUADRATIC_T_TEXT,
    QUARTIC_DECOMP_CONST,
    QUARTIC_DECOMP_T2,
    QUARTIC_SQUARE_SHIFT,
    QUARTIC_T_TEXT,
)
from birot4.groebner import (
    IdealPresentation,
    buchberger,
    monomial_div,
    reduce,
    s_polynomial,
    staged_buchberger,
)
from birot4.numeric import (
    biharmonic_residual,
    catenoid_state,
    catenoid_surface,
    cylinder_state,
    integrate_profile,
    surface_laplacian_gap,
)
from birot4.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    RationalFunction,
    parse_polynomial,
    primitive_normalize,
)
from birot4.series import (
    INITIAL_DATA_VARS,
    ProfileIVP,
    quadratic_forced_component,
    solve_profile_ivp,
)
from birot4.univariate import REAL_LINE, count_real_roots, resultant_univariate
from birot4.witness import PositiveCombination, ProductTerm, Region, SignFact, VariableCondition


def _scorecard(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _nsym(name: str) -> Polynomial:
    return Polynomial.variable(NORMALIZED_VARS, name)


def _value_at_t(f: Polynomial, point: Fraction) -> Fraction:
    return f.evaluate({"t": point})


def _top_reduces_to_zero(f: Polynomial, basis, heads, order) -> bool:
    """Cancel the leading term of f against the first head dividing it until
    f is zero (True) or its leading term is irreducible (False).

    Written without groebner.reduce so the basis postcondition is checked by
    independent code.
    """
    while not f.is_zero():
        lead = f.leading_monomial(order)
        for g, (head, coeff) in zip(basis, heads):
            if monomial_divides(head, lead):
                f = f - Polynomial(f.vars, {monomial_div(lead, head): f.terms[lead] / coeff}) * g
                break
        else:
            return False
    return True


def _unique_step(report, fragment: str):
    matches = [step for step in report.steps if fragment in step.description]
    assert len(matches) == 1, fragment
    return matches[0]


def test_acceptance_1_profile_series_table_reproduced_exactly():
    started = time.perf_counter()
    profile = solve_profile_ivp(ProfileIVP())
    table = profile_series_table()
    assert sorted(table["r"]) == [2, 3, 4, 5, 6, 7]
    assert sorted(table["x"]) == [2, 3, 4, 5, 6]
    assert sorted(table["y"]) == [2, 3, 4, 5, 6, 7]
    for channel, series in (("r", profile.r), ("x", profile.x), ("y", profile.y)):
        for order, expected in table[channel].items():
            assert series[order] == expected, f"{channel}[{order}]"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _scorecard(1, "profile series table reproduced exactly")


def test_acceptance_2_constraint_system_reproduced_exactly():
    started = time.perf_counter()
    system = extract_system(solve_profile_ivp(ProfileIVP()), "VII")
    reference = case7_reference_system()
    assert system.labels() == ("E0", "E2", "E3", "E4", "E5", "E6")
    for label in system.labels():
        lhs, _ = primitive_normalize(system.equation(label))
        rhs, _ = primitive_normalize(reference[label])
        assert lhs == rhs, label
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _scorecard(2, "constraint system reproduced exactly")


def test_acceptance_3_lex_certificate_reduces_target_and_re_expands(
        flagship_basis, flagship_certificate, system_vii, certify_artifact):
    presentation = flagship_basis.presentation
    assert presentation.vars.names == ("A", "B", "u", "p", "t")
    assert presentation.order.kind == "lex"
    assert tuple(presentation.generators) == tuple(system_vii.polynomials())
    target = parse_polynomial(CERTIFICATE_TARGET_TEXT, NORMALIZED_VARS)

    remainder, _ = reduce(target, list(flagship_basis.elements), LEX)
    assert remainder.is_zero()

    assert flagship_certificate.target == target
    assert tuple(flagship_certificate.generators) == tuple(presentation.generators)
    assert flagship_certificate.remainder.is_zero()
    rebuilt = Polynomial.zero(NORMALIZED_VARS)
    for cofactor, generator in zip(flagship_certificate.cofactors,
                                   flagship_certificate.generators):
        rebuilt = rebuilt + cofactor * generator
    assert rebuilt == target
    assert certify_artifact["manifest"]["elapsed_seconds"] > 0.0
    _scorecard(3, "lex basis and membership certificate verified by re-expansion")


def test_acceptance_4_constant_speed_branch_values_with_witnesses():
    report = check_case_V()
    assert report.verdict == "contradiction-verified"
    assert CASE5_FOURTH_DERIVATIVE == Fraction(56, 9)
    pairs = (
        ("the fourth derivative is the constant 56/9",
         "56/9 is positive"),
        ("the second derivative reduces to 3*c1^4/alpha^4",
         "3*c1^4*alpha^4 is strictly positive"),
        ("c0^4*(c0^2 + 4*alpha^2)^2*(c0^2 + 16*alpha^2)/(8*A^5)",
         "numerator-denominator product expands with positive"),
    )
    for value_fragment, sign_fragment in pairs:
        value_step = _unique_step(report, value_fragment)
        assert value_step.kind == "identity"
        assert value_step.status == "pass"
        sign_step = _unique_step(report, sign_fragment)
        assert sign_step.kind == "sign"
        assert sign_step.status == "pass"
        assert sign_step.sign_fact is not None
        assert sign_step.sign_fact.claimed_sign == "positive"
        assert sign_step.sign_fact.verify()
    _scorecard(4, "constant-speed branch values verified with positivity witnesses")


def test_acceptance_5_linear_speed_eliminations_and_root_counts():
    kvar = Polynomial.variable(INITIAL_DATA_VARS, "k")
    system = extract_system(solve_profile_ivp(ProfileIVP(beta=0, k=kvar)), "VI")
    av, uv, tv = _nsym("A"), _nsym("u"), _nsym("t")
    one = Polynomial.constant(NORMALIZED_VARS, 1)
    cubic = parse_polynomial(CUBIC_T_TEXT, NORMALIZED_VARS)

    # eliminating A from the u = 0 specialization leaves, up to a nonzero
    # rational factor, t times the cubic; the t = 0 root is excluded here
    e3 = system.equation("E3").substitute({"u": 0})
    e5 = system.equation("E5").substitute({"u": 0})
    res = resultant_univariate(e3, e5, "A")
    assert not res.is_zero()
    normalized_res, _ = primitive_normalize(res)
    assert normalized_res == tv * cubic

    assert count_real_roots(cubic, REAL_LINE) == 1
    lo, hi = CASE6_ROOT_WINDOW
    assert (lo, hi) == (Fraction(-12, 5), Fraction(-9, 4))
    assert count_real_roots(cubic, (lo, hi)) == 1
    assert _value_at_t(cubic, lo) == CASE6_CUBIC_AT_LO == Fraction(-36, 25)
    assert _value_at_t(cubic, hi) == CASE6_CUBIC_AT_HI == Fraction(75, 64)
    quadratic = parse_polynomial(QUADRATIC_T_TEXT, NORMALIZED_VARS)
    assert count_real_roots(quadratic, (lo, hi)) == 0
    assert _value_at_t(quadratic, lo) < 0

    # at t = -2/3 the cubic branch identities: A + u^2 is pinned to 4/81
    # (A + u^2 = r0^2*(alpha^2 + c1^2)), and the order-4 equation forces the
    # ordinary tau^4 coefficient -(17/54)*c1*r0 to vanish
    e3b = system.equation("E3").substitute({"t": Fraction(-2, 3)})
    assert 27 * e3b == 81 * av + 81 * uv * uv - 4 * one
    e4b = system.equation("E4").substitute({"t": Fraction(-2, 3)})
    assert e4b == Fraction(-34, 9) * uv
    scalar = system.origins["E4"].scalar
    ordinary = Fraction(-34, 9) / scalar / 24
    assert ordinary == CASE6_TAU4_COEFF == Fraction(-17, 54)
    _scorecard(5, "linear-speed eliminations, root counts and branch identities")


def test_acceptance_6_general_case_branch_eliminations_and_witnesses():
    system = extract_system(solve_profile_ivp(ProfileIVP()), "VII")
    av, bv, uv, pv, tv = (_nsym(n) for n in ("A", "B", "u", "p", "t"))
    one = Polynomial.constant(NORMALIZED_VARS, 1)
    quartic = parse_polynomial(QUARTIC_T_TEXT, NORMALIZED_VARS)

    # branch p = 0, u = 0: the order-0 equation pins A, and eliminating B
    # from the specialized order-3/order-5 pair leaves 12*t^2 times a
    # root-free quartic
    shifted = bv + tv + tv * tv
    e0 = system.equation("E0").substitute({"p": 0, "u": 0})
    assert e0 == bv * (shifted * shifted - av)
    eq1 = system.equation("E3").substitute({"p": 0, "u": 0, "A": shifted * shifted})
    eq2 = system.equation("E5").substitute({"p": 0, "u": 0, "A": shifted * shifted})
    res = resultant_univariate(eq1, eq2, "B")
    assert not res.is_zero()
    assert res == 12 * tv * tv * quartic
    assert count_real_roots(quartic, REAL_LINE) == 0
    s1, s0 = QUARTIC_SQUARE_SHIFT
    inner = tv * tv + s1 * tv + s0 * one
    assert (18 * inner * inner + QUARTIC_DECOMP_T2 * tv * tv
            + QUARTIC_DECOMP_CONST * one) == quartic

    # branch p = 0, t = -2/3: B and A become rationals and the order-3
    # equation turns into a positive constant plus a square
    e4b = system.equation("E4").substitute({"p": 0, "t": Fraction(-2, 3)})
    dense = e4b.as_univariate_in("B")
    assert len(dense) == 2
    rest, coeff = dense
    assert RationalFunction(-rest, coeff) == RationalFunction(CASE7_B_VALUE * one)
    assert CASE7_B_VALUE == Fraction(34, 9)
    assert CASE7_A_VALUE == Fraction(1024, 81)
    e0b = system.equation("E0").substitute({"p": 0, "t": Fraction(-2, 3),
                                            "B": CASE7_B_VALUE})
    assert e0b == CASE7_B_VALUE * (CASE7_A_VALUE * one - av)
    e3b = system.equation("E3").substitute({"p": 0, "t": Fraction(-2, 3),
                                            "B": CASE7_B_VALUE, "A": CASE7_A_VALUE})
    assert e3b == 3 * uv * uv + CASE7_REDUCED_CONSTANT * one
    assert CASE7_REDUCED_CONSTANT == Fraction(1088, 27)

    # branch t = 0: u = -B*p, then p = 0 collapses the order-3 equation to
    # 3*A + 2*B, while p != 0 factors the order-4 equation and leaves an
    # expression positive on B > 0, p^2 < 1/8 (|p| < 1/2 covers that strip)
    assert system.equation("E2").substitute({"t": 0}) == 2 * (bv * pv + uv)
    e3_t = system.equation("E3").substitute({"t": 0, "u": -(bv * pv)})
    assert e3_t.substitute({"p": 0}) == 3 * av + 2 * bv
    e4_t = system.equation("E4").substitute({"t": 0, "u": -(bv * pv)})
    assert e4_t == pv * (8 * av - bv * bv + 8 * bv * bv * pv * pv)
    a_image = Fraction(1, 8) * (bv * bv - 8 * bv * bv * pv * pv)
    e3_fin = e3_t.substitute({"A": a_image})
    assert e3_fin == Fraction(3, 8) * bv * bv + 2 * bv * (one - pv * pv)
    region = Region({"B": VariableCondition.positive(),
                     "p": VariableCondition.window(Fraction(-1, 2), Fraction(1, 2))})
    witness = PositiveCombination((
        ProductTerm(Fraction(3, 8), ((bv, 2),)),
        ProductTerm(Fraction(2), ((bv, 1), (one - pv * pv, 1))),
    ))
    assert SignFact(e3_fin, region, "positive", witness).verify()
    _scorecard(6, "general-case branch eliminations verified with sign witnesses")


def test_acceptance_7_numeric_residuals_within_thresholds():
    started = time.perf_counter()
    for t_end in (2.0, -2.0):
        state, params = catenoid_state()
        report = biharmonic_residual(integrate_profile(state, params, t_end))
        assert report.arc_defect < 1e-8
        assert report.biharmonic < 1e-6
    state, params = cylinder_state()
    report = biharmonic_residual(integrate_profile(state, params, 2.0))
    assert abs(report.biharmonic - 1.0) <= 1e-6
    coarse = surface_laplacian_gap(catenoid_surface(), grid=(41, 64))
    fine = surface_laplacian_gap(catenoid_surface(), grid=(81, 128))
    assert 3.5 <= coarse / fine <= 4.5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _scorecard(7, "numeric residuals within thresholds")


def test_acceptance_8_structural_identities_and_basis_postconditions(
        flagship_basis, system_vii):
    # the derivative of the arc-length defect equals 2*r^2 times the
    # compatibility series, coefficient-wise, on each case's profile
    kvar = Polynomial.variable(INITIAL_DATA_VARS, "k")
    profile_vii = solve_profile_ivp(ProfileIVP())
    profile_vi = solve_profile_ivp(ProfileIVP(beta=0, k=kvar))
    forced = quadratic_forced_component(
        profile_vi.r, Polynomial.variable(INITIAL_DATA_VARS, "alpha"),
        Polynomial.variable(INITIAL_DATA_VARS, "x1"))
    profile_v = dataclasses.replace(profile_vi, x=forced)
    for profile, tag in ((profile_vii, "VII"), (profile_vi, "VI"), (profile_v, "V")):
        lhs = arc_defect_series(profile).derivative()
        rhs = (2 * (profile.r * profile.r)) * compatibility_series(profile, tag)
        order = min(lhs.truncation_order, rhs.truncation_order)
        assert order >= profile.ivp.truncation_order - 2
        for n in range(order + 1):
            assert lhs[n] == rhs[n], (tag, n)

    # flagship postconditions: every S-pair of the lex basis reduces to
    # zero, and a permuted generating set yields the identical reduced basis
    elements = list(flagship_basis.elements)
    heads = [(g.leading_monomial(LEX), g.leading_coefficient(LEX)) for g in elements]
    for i, j in itertools.combinations(range(len(elements)), 2):
        spoly = s_polynomial(elements[i], elements[j], LEX)
        assert _top_reduces_to_zero(spoly, elements, heads, LEX), (i, j)
    # t is its own lex normal form against the basis, so the helper must say no
    assert not _top_reduces_to_zero(_nsym("t"), elements, heads, LEX)
    generators = tuple(system_vii.polynomials())
    rotated = generators[1:] + generators[:1]
    again = staged_buchberger(IdealPresentation(NORMALIZED_VARS, LEX, rotated))
    assert list(again.elements) == elements

    # the same postconditions on fifty randomized small ideals, with normal
    # forms cross-checked against the exhaustive linear-algebra oracle
    rng = random.Random(20260823)
    members_seen = 0
    for index in range(50):
        vars, gens = random_small_ideal(rng)
        gb = buchberger(IdealPresentation(vars, GREVLEX, gens))
        basis = gb.elements
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                spoly = s_polynomial(basis[i], basis[j], GREVLEX)
                assert reduce(spoly, basis, GREVLEX)[0].is_zero(), index
        shuffled = list(gens)
        rng.shuffle(shuffled)
        permuted = buchberger(IdealPresentation(vars, GREVLEX, tuple(shuffled)))
        assert permuted.elements == basis, index
        planted = (gens[0] * random_polynomial(rng, vars, 1)
                   + gens[-1] * random_polynomial(rng, vars, 1))
        for probe in (planted, random_polynomial(rng, vars, 2)):
            direct = reduce(probe, basis, GREVLEX)[0].is_zero()
            assert direct == oracle_is_member(probe, basis), index
            members_seen += int(direct)
    assert members_seen >= 50
    _scorecard(8, "structural identities and basis postconditions")
