"""Per-branch contradiction reports and the sign-witness machinery behind them."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from birot4 import cases
from birot4.cases import CASE_IDS, check_case_VII, report_to_document, summarize_report
from birot4.constraints import NORMALIZED_VARS, extract_system
from birot4.fixtures import CUBIC_T_TEXT, QUADRATIC_T_TEXT, QUARTIC_T_TEXT
from birot4.certificate import MembershipCertificate
from birot4.poly import Polynomial, RationalFunction, parse_polynomial, variables
from birot4.series import INITIAL_DATA_VARS, ProfileIVP, solve_profile_ivp
from birot4.univariate import resultant_univariate
from birot4.witness import (
    PositiveCombination,
    ProductTerm,
    Region,
    SignFact,
    VariableCondition,
    polynomial_sign_set,
)

XY = variables("x", "y")
X = Polynomial.variable(XY, "x")
Y = Polynomial.variable(XY, "y")
ONE = Polynomial.constant(XY, 1)


def test_every_branch_report_is_verified(case_reports):
    assert tuple(r.case_id for r in case_reports) == CASE_IDS
    for report in case_reports:
        assert report.verdict == "contradiction-verified", report.case_id
        assert report.failed_steps() == ()


def test_verdicts_do_not_depend_on_how_a_rational_function_is_stored(monkeypatch,
                                                                    flagship_certificate):
    """Every value that evaluate_rational or replace_square returns to the
    case checks is stored as (num*h)/(den*h), h = 1 + v^2 for the ring's first
    variable v: the same rational function, with no zero of h on the reals.
    A step that reads the numerator or the denominator instead of the value
    fails here."""
    padded_calls = []

    def padding(original):
        def padded(*args):
            value = original(*args)
            v = Polynomial.variable(value.num.vars, value.num.vars.names[0])
            padded_calls.append(original.__name__)
            return RationalFunction(value.num * (1 + v * v), value.den * (1 + v * v))
        return padded

    for name in ("evaluate_rational", "replace_square"):
        monkeypatch.setattr(cases, name, padding(getattr(cases, name)))
    reports = cases.check_all_cases(flagship_certificate)
    assert set(padded_calls) == {"evaluate_rational", "replace_square"}
    assert {r.case_id: r.verdict for r in reports} == dict.fromkeys(CASE_IDS,
                                                                     "contradiction-verified")


def test_every_step_is_well_formed(case_reports):
    for report in case_reports:
        kinds = set()
        for step in report.steps:
            assert step.kind in ("identity", "sign", "hypothesis")
            assert step.status == "pass"
            assert step.description
            kinds.add(step.kind)
        assert "sign" in kinds, f"case {report.case_id} carries no sign fact"
        assert "hypothesis" in kinds


def test_recorded_sign_facts_reverify(case_reports):
    total = 0
    for report in case_reports:
        for step in report.steps:
            if step.sign_fact is not None:
                assert step.kind == "sign"
                assert step.sign_fact.verify(), step.description
                total += 1
    assert total >= 15


def test_certificate_artifacts_of_the_final_case(case_reports):
    artifact = case_reports[-1].artifacts["certificate"]
    assert artifact["target"] == "p*t^4"
    assert artifact["generators"] == ["E0", "E2", "E3", "E4", "E5", "E6"]
    assert artifact["remainder_zero"] is True
    assert set(artifact["cofactor_terms"]) == set(artifact["generators"])


def test_reports_serialize_to_plain_documents(case_reports):
    for report in case_reports:
        document = report_to_document(report)
        recycled = json.loads(json.dumps(document))
        assert recycled["format"] == "birot4/case-report@1"
        assert recycled["case"] == report.case_id
        assert recycled["verdict"] == report.verdict
        assert len(recycled["steps"]) == len(report.steps)
        assert "assumption" in recycled
        for entry, step in zip(recycled["steps"], report.steps):
            assert entry["kind"] == step.kind
            if step.sign_fact is not None:
                fact = entry["sign_fact"]
                assert fact["claimed_sign"] == step.sign_fact.claimed_sign
                assert len(fact["terms"]) == len(step.sign_fact.witness.terms)


def test_summary_lines(case_reports):
    for report in case_reports:
        line = summarize_report(report)
        assert line.startswith(f"case {report.case_id}: contradiction-verified")
        assert "sign facts" in line and "hypotheses" in line
    broken = dataclasses.replace(case_reports[0], verdict="failed")
    assert "failed" in summarize_report(broken)


def test_tampered_certificate_is_caught(flagship_certificate):
    cofactors = list(flagship_certificate.cofactors)
    cofactors[0] = cofactors[0] + Polynomial.constant(cofactors[0].vars, 1)
    tampered = MembershipCertificate(
        target=flagship_certificate.target,
        generators=flagship_certificate.generators,
        cofactors=cofactors,
        remainder=flagship_certificate.remainder,
    )
    report = check_case_VII(tampered)
    assert report.verdict == "failed"
    failing = report.failed_steps()
    assert failing and failing[0].kind == "identity"
    assert "failed" in summarize_report(report)


# -- witness machinery, negative controls ------------------------------


def _one_factor(f: Polynomial) -> PositiveCombination:
    """The one-term rewrite 1 * f, so f's sign comes from polynomial_sign_set."""
    return PositiveCombination((ProductTerm(Fraction(1), ((f, 1),)),))


def test_one_factor_sign_at_a_point():
    """A point region decides a univariate factor by its exact value there."""
    region = Region({"x": VariableCondition.point(Fraction(2))})
    f = X * X - ONE
    assert SignFact(f, region, "positive", _one_factor(f)).verify()
    # wrong claimed sign
    assert not SignFact(f, region, "negative", _one_factor(f)).verify()
    # zero claims work too, at a root
    one = Region({"x": VariableCondition.point(1)})
    assert SignFact(f, one, "zero", _one_factor(f)).verify()
    assert not SignFact(f, one, "positive", _one_factor(f)).verify()
    # a half-open bound at one value admits no point and decides nothing
    half_open = VariableCondition(lower=Fraction(2), lower_strict=False,
                                  upper=Fraction(2), upper_strict=True)
    for claim in ("positive", "negative", "zero"):
        assert not SignFact(f, Region({"x": half_open}), claim, _one_factor(f)).verify()
    # a second variable left free is not pinned by the first one's point
    assert not SignFact(X - Y, region, "positive", _one_factor(X - Y)).verify()


def test_one_factor_sign_on_a_window():
    """A univariate factor with no root on its window takes one sign there."""
    window = Region({"x": VariableCondition.window(-1, 1, strict=False)})
    f = X * X + ONE
    assert SignFact(f, Region(), "positive", _one_factor(f)).verify()
    # wrong claimed sign
    assert not SignFact(f, Region(), "negative", _one_factor(f)).verify()
    # a root inside the window defeats the rule
    g = X * X * X - X + Fraction(1, 10) * ONE
    assert not SignFact(g, window, "positive", _one_factor(g)).verify()
    assert not SignFact(g, window, "negative", _one_factor(g)).verify()
    # a root at a closed end defeats it as well
    assert not SignFact(X * X - X, window, "negative", _one_factor(X * X - X)).verify()
    # ... also when it is the only root, and without raising
    assert not SignFact(X - ONE, window, "negative", _one_factor(X - ONE)).verify()
    # a two-variable factor that the per-monomial rule cannot decide
    assert not SignFact(X + Y, window, "positive", _one_factor(X + Y)).verify()


def test_case_vi_one_term_steps_fail_on_windows_that_hold_a_root():
    """Case VI's one-term sign steps, on wider windows than its own.  The
    cubic's root lies in (-12/5, -2), so the cubic has no sign there.  The
    quadratic's roots, (-7 -+ sqrt(17))/4, lie outside (-12/5, -2), so it stays
    negative there; (-3, -9/4) holds its lower root, and there both the
    quadratic step and the step on -t times the quadratic fail."""
    nv = NORMALIZED_VARS
    t = Polynomial.variable(nv, "t")
    cubic = parse_polynomial(CUBIC_T_TEXT, nv)
    quad = parse_polynomial(QUADRATIC_T_TEXT, nv)
    own = Region({"t": VariableCondition.window(Fraction(-12, 5), Fraction(-9, 4),
                                                 strict=False)})
    cubic_root = Region({"t": VariableCondition.window(Fraction(-12, 5), -2, strict=False)})
    quad_root = Region({"t": VariableCondition.window(-3, Fraction(-9, 4), strict=False)})
    product = PositiveCombination((ProductTerm(Fraction(-1), ((t, 1), (quad, 1))),))
    assert SignFact(quad, own, "negative", _one_factor(quad)).verify()
    assert SignFact(-(t * quad), own, "negative", product).verify()
    for claim in ("positive", "negative"):
        assert not SignFact(cubic, cubic_root, claim, _one_factor(cubic)).verify()
    assert SignFact(quad, cubic_root, "negative", _one_factor(quad)).verify()
    assert not SignFact(quad, quad_root, "negative", _one_factor(quad)).verify()
    assert not SignFact(-(t * quad), quad_root, "negative", product).verify()


def test_positive_combination_witness():
    region = Region({"x": VariableCondition.nonzero_only()})
    f = X * X + ONE
    assert SignFact(f, region, "positive", PositiveCombination.from_polynomial(f)).verify()
    # even powers of a merely nonzero variable count as strictly positive,
    # but an odd power leaves the sign open
    g = X + ONE
    assert not SignFact(g, region, "positive", PositiveCombination.from_polynomial(g)).verify()
    # the rewrite must re-expand to the expression exactly
    wrong = PositiveCombination((ProductTerm(Fraction(2), ((X, 2),)),))
    assert not SignFact(f, region, "positive", wrong).verify()
    # grouped factors let the witness see cancellation-free structure
    grouped = PositiveCombination((ProductTerm(Fraction(1), ((X + ONE, 2),)),))
    assert SignFact(X * X + 2 * X + ONE, Region({"x": VariableCondition.positive()}),
                    "positive", grouped).verify()


def test_exact_zero_witness():
    """Every sign claim names its witness; an unknown claim fails whatever
    the witness."""
    with pytest.raises(TypeError):
        SignFact(Polynomial.zero(XY), Region(), "zero")
    assert not SignFact(ONE, Region(), "huge", PositiveCombination.from_polynomial(ONE)).verify()


def test_from_polynomial_round_trip():
    rng = random.Random(20260401)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            coeff = Fraction(rng.randint(-5, 5))
            if coeff:
                terms[exps] = coeff
        if not terms:
            continue
        f = Polynomial(XY, terms)
        combo = PositiveCombination.from_polynomial(f)
        rebuilt = Polynomial.zero(XY)
        for term in combo.terms:
            rebuilt = rebuilt + term.rebuild(XY)
        assert rebuilt == f


# -- regions and sign sets ---------------------------------------------


def test_variable_condition_admission():
    assert VariableCondition.positive().admits(Fraction(1, 100))
    assert not VariableCondition.positive().admits(Fraction(0))
    assert VariableCondition.nonzero_only().admits(Fraction(-7))
    assert not VariableCondition.nonzero_only().admits(Fraction(0))
    window = VariableCondition.window(-2, 3)
    assert window.admits(Fraction(0)) and not window.admits(Fraction(-2))
    closed = VariableCondition.window(-2, 3, strict=False)
    assert closed.admits(Fraction(-2)) and closed.admits(Fraction(3))
    point = VariableCondition.point(Fraction(5, 2))
    assert point.admits(Fraction(5, 2)) and not point.admits(Fraction(2))


def test_polynomial_sign_sets():
    nonzero = Region({"x": VariableCondition.nonzero_only()})
    assert polynomial_sign_set(X * X + Y * Y, nonzero) == frozenset({1})
    assert polynomial_sign_set(Polynomial.zero(XY), Region()) == frozenset({0})
    assert polynomial_sign_set(X + ONE, Region()) == frozenset({-1, 0, 1})
    band = Region({"x": VariableCondition.window(0, 2)})
    assert polynomial_sign_set(X + ONE, band) == frozenset({1})
    assert polynomial_sign_set(-(X * X), nonzero) == frozenset({-1})


def test_univariate_sign_sets_are_sound():
    """Over random univariate polynomials and every kind of window, the sign
    at every admitted sample lies in the returned set; the case VI and VII
    signs that no per-monomial rule decides are decided exactly."""
    def closed(lo, hi):
        return VariableCondition.window(lo, hi, strict=False)

    def sign_set(f, cond):
        return polynomial_sign_set(f, Region({"x": cond}))

    windows = [
        VariableCondition(), VariableCondition.nonzero_only(), VariableCondition.positive(),
        VariableCondition(upper=Fraction(1), upper_strict=False),
        VariableCondition(lower=Fraction(-2), lower_strict=True),
        VariableCondition.window(-1, 1), closed(-1, 1), closed(Fraction(1, 2), 3),
        VariableCondition(lower=Fraction(-1), upper=Fraction(1), nonzero=True),
        VariableCondition(lower=Fraction(-3), lower_strict=False, upper=Fraction(-1)),
        VariableCondition.point(Fraction(3, 2)), VariableCondition.point(0),
        # two windows that admit no point
        VariableCondition.window(1, 1), dataclasses.replace(closed(0, 0), nonzero=True),
    ]
    samples = sorted({Fraction(k, 8) for k in range(-40, 41)} | {Fraction(-100), Fraction(100)}
                     | {w.lower + d for w in windows if w.lower is not None
                        for d in (0, Fraction(1, 1000))}
                     | {w.upper - d for w in windows if w.upper is not None
                        for d in (0, Fraction(1, 1000))})
    rng = random.Random(20261019)
    decided = 0
    for _ in range(300):
        f = Polynomial(XY, {(e, 0): rng.randint(-6, 6) for e in range(rng.randint(1, 4) + 1)})
        if f.is_zero():
            continue
        for cond in windows:
            signs = sign_set(f, cond)
            decided += len(signs) == 1
            for x in samples:
                if cond.admits(x):
                    value = f.evaluate({"x": x})
                    assert (value > 0) - (value < 0) in signs, (str(f), cond, x)
    assert decided > 1500  # the per-monomial rules alone decide 1024 of these

    quad = 2 * X * X + 7 * X + 4 * ONE
    assert sign_set(quad, closed(Fraction(-12, 5), Fraction(-9, 4))) == frozenset({-1})
    assert sign_set(ONE - X * X, VariableCondition.window(Fraction(-1, 2), Fraction(1, 2))) \
        == frozenset({1})
    # a point window gives the exact sign there, zero included
    assert sign_set(ONE - X * X, VariableCondition.point(1)) == frozenset({0})
    # a root at a window end, or no admitted point at all, leaves the sign open
    assert sign_set(ONE - X * X, closed(1, 2)) == frozenset({-1, 0, 1})
    assert sign_set(ONE - X * X, VariableCondition.window(3, 3)) == frozenset({-1, 0, 1})


def test_elimination_routes_agree_on_exact_resultants():
    """The case VI and VII eliminations, with exact scalars: eliminating A
    from case VI's u = 0 pair gives -3*t*cubic, and in case VII's p = 0,
    u = 0 subbranch the B-linear combination E5' - 5*(t + 1)*E3' meets E3'
    in 4*t^2*quartic, the same quartic that Res_B(E3', E5') = 12*t^2*quartic
    carries."""
    nv = NORMALIZED_VARS
    av, bv, tv = (Polynomial.variable(nv, n) for n in ("A", "B", "t"))
    cubic = parse_polynomial(CUBIC_T_TEXT, nv)
    quartic = parse_polynomial(QUARTIC_T_TEXT, nv)
    k = Polynomial.variable(INITIAL_DATA_VARS, "k")
    case_vi = extract_system(solve_profile_ivp(ProfileIVP(beta=0, k=k)), "VI")
    e3 = case_vi.equation("E3").substitute({"u": 0})
    e5 = case_vi.equation("E5").substitute({"u": 0})
    assert e3 == 3 * av + tv * (2 * tv * tv + 7 * tv + 4)
    assert resultant_univariate(e3, e5, "A") == -3 * tv * cubic

    case_vii = extract_system(solve_profile_ivp(ProfileIVP()), "VII")
    shifted = bv + tv + tv * tv
    eq1, eq2 = (case_vii.equation(label).substitute({"p": 0, "u": 0, "A": shifted * shifted})
                for label in ("E3", "E5"))
    lin = eq2 - 5 * (tv + 1) * eq1
    assert lin.degree_in("B") == 1
    assert resultant_univariate(eq1, eq2, "B") == 12 * tv * tv * quartic
    assert resultant_univariate(lin, eq1, "B") == 4 * tv * tv * quartic


def test_root_counts_and_resultants_agree_with_sympy(monkeypatch, flagship_certificate):
    """Every count_real_roots and resultant_univariate call that
    check_all_cases makes, re-decided by sympy: the distinct roots of
    Poly.real_roots inside the open window, an endpoint that raised
    EndpointRootError as a root, and sympy.resultant.  Each module that binds
    either name is patched, so no call goes unrecorded."""
    sympy = pytest.importorskip("sympy")
    from birot4 import univariate, witness

    counts, resultants = [], []

    def recording(module, original, calls):
        def recorded(*args):
            try:
                value = original(*args)
            except univariate.EndpointRootError as error:
                value = error
                raise
            finally:
                calls.append((module.__name__, args, value))
            return value
        return recorded

    bound = []
    originals = {"count_real_roots": (univariate.count_real_roots, counts),
                 "resultant_univariate": (univariate.resultant_univariate, resultants)}
    for module in (univariate, witness, cases):
        for name, (original, calls) in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording(module, original, calls))
                bound.append((module.__name__, name))
    assert sorted(bound) == [
        ("birot4.cases", "count_real_roots"), ("birot4.cases", "resultant_univariate"),
        ("birot4.univariate", "count_real_roots"), ("birot4.univariate", "resultant_univariate"),
        ("birot4.witness", "count_real_roots"),
    ]
    reports = cases.check_all_cases(flagship_certificate)
    assert all(r.verdict == "contradiction-verified" for r in reports)
    assert {source for source, _, _ in counts} == {"birot4.cases", "birot4.witness"}
    assert resultants

    def to_sympy(f):
        symbols = sympy.symbols(f.vars.names)
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*[s ** e for s, e in zip(symbols, exps)])
                           for exps, c in f.terms.items()])

    def bound_to_sympy(end):
        return sympy.oo * (1 if end > 0 else -1) if end in (float("inf"), float("-inf")) \
            else sympy.Rational(end.numerator, end.denominator)

    for _, (f, window), got in counts:
        (name,) = f.occurring_variables()
        poly = sympy.Poly(to_sympy(f), sympy.Symbol(name))
        lo, hi = (bound_to_sympy(end) for end in window)
        if isinstance(got, univariate.EndpointRootError):
            assert any(end.is_finite and poly.eval(end) == 0 for end in (lo, hi)), str(f)
            continue
        inside = {root for root in poly.real_roots() if lo < root < hi}
        assert got == len(inside), (str(f), window)
    for _, (f, g, name), got in resultants:
        want = sympy.resultant(to_sympy(f), to_sympy(g), sympy.Symbol(name))
        assert sympy.expand(to_sympy(got) - want) == 0, name


def test_a_zeroth_power_is_positive_whatever_the_base():
    from birot4.witness import _power_sign

    for signs in ({-1}, {0}, {-1, 0, 1}):
        assert _power_sign(frozenset(signs), 0) == frozenset({1})


# -- the step details of the checker ----------------------------------------


def test_a_failed_step_prints_both_sides():
    """A failed equality of two rational functions prints each as (num) / (den),
    and a failed proportionality prints the polynomial and the one it should
    be a multiple of."""
    checker = cases._Checker("T")
    assert not checker.equal("quotients agree", RationalFunction(X, Y), RationalFunction(Y, X))
    assert not checker.proportional("a multiple", X + Y, X - Y)
    assert not checker.proportional("a nonzero multiple", Polynomial.zero(XY), Polynomial.zero(XY))
    assert [(step.status, step.detail) for step in checker.steps] == [
        ("fail", "got (x) / (y), expected (y) / (x)"),
        ("fail", "got x + y, expected a multiple of x - y"),
        ("fail", "got 0, expected a multiple of 0"),
    ]
    assert checker.report().verdict == "failed"


@pytest.mark.parametrize("got, want, factor", [
    (2 * X + 2 * Y, X + Y, "2"),
    (-X, 3 * X, "-1/3"),
    (Fraction(1, 3) * X * Y - Fraction(2, 3), Fraction(-1, 2) * X * Y + 1, "-2/3"),
], ids=["integer", "negative", "rational"])
def test_a_passing_proportionality_reports_its_exact_scale_factor(got, want, factor):
    """got = factor * want, with the factor printed as a rational, never a float."""
    checker = cases._Checker("T")
    assert checker.proportional("a multiple", got, want)
    (step,) = checker.steps
    assert (step.status, step.detail) == ("pass", f"scale factor {factor}")
    assert got == Fraction(factor) * want

