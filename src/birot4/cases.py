"""Branch-by-branch contradiction checks for the surface classification.

Seven independent verifiers, one per branch of the rotation-data partition.
Each rebuilds its branch's deductions from the component equations: exact
polynomial identities, eliminations with every divisor tied to a recorded
nonzero hypothesis, and sign claims (SignFact) backed by re-verifiable
witnesses.  The outcome is an immutable CaseReport whose verdict is
contradiction-verified only if every step checked out.

This module states the deductions and is not itself trusted: each step is
decided by the trusted core, ``birot4.poly`` and ``birot4.univariate`` for
identities and root counts, ``birot4.witness`` for sign claims, and
``birot4.certificate`` for case VII's membership certificate for p*t^4.
Case VII checks the certificate it is given and never searches for one:
this module imports nothing from the Groebner search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .constraints import (NORMALIZED_VARS, ConstraintSystem, case_profile,
                          compatibility_series, extract_system, linear_split)
from .fixtures import (
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
    certificate_claim,
)
from .certificate import MembershipCertificate
from .poly import (
    Polynomial,
    RationalFunction,
    evaluate_rational,
    format_polynomial,
    parse_polynomial,
    primitive_normalize,
    replace_square,
    variables,
)
from .series import INITIAL_DATA_VARS, ProfileIVP, TruncatedSeries, solve_profile_ivp
from .univariate import REAL_LINE, count_real_roots, resultant_univariate
from .witness import (
    PointEvaluation,
    PositiveCombination,
    ProductTerm,
    Region,
    SignFact,
    SturmWindow,
    VariableCondition,
)

REPORT_FORMAT = "birot4/case-report@1"

CASE_IDS = ("I", "II", "III", "IV", "V", "VI", "VII")


# -- reports -----------------------------------------------------------


@dataclass(frozen=True)
class CaseStep:
    description: str
    kind: str
    status: str
    detail: str = ""
    sign_fact: SignFact | None = None


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    steps: tuple[CaseStep, ...]
    verdict: str
    artifacts: Mapping[str, object] = field(default_factory=dict)

    def failed_steps(self) -> tuple[CaseStep, ...]:
        return tuple(s for s in self.steps if s.status != "pass")


def _fmt(value) -> str:
    if isinstance(value, Polynomial):
        return format_polynomial(value)
    if isinstance(value, RationalFunction):
        return f"({format_polynomial(value.num)}) / ({format_polynomial(value.den)})"
    return str(value)


class _Checker:
    """Accumulates steps for one case and renders the final report."""

    def __init__(self, case_id: str):
        self.case_id = case_id
        self.steps: list[CaseStep] = []
        self.artifacts: dict[str, object] = {}

    def check(self, description: str, ok: bool, detail: str = "") -> bool:
        status = "pass" if ok else "fail"
        self.steps.append(CaseStep(description, "identity", status, detail))
        return ok

    def equal(self, description: str, got, want) -> bool:
        ok = got == want
        detail = "" if ok else f"got {_fmt(got)}, expected {_fmt(want)}"
        return self.check(description, ok, detail)

    def proportional(self, description: str, got: Polynomial, want: Polynomial) -> bool:
        ng, sg = primitive_normalize(got)
        nw, sw = primitive_normalize(want)
        if ng == nw and not ng.is_zero():
            return self.check(description, True, f"scale factor {sw / sg}")
        return self.check(description, False, f"got {_fmt(got)}, expected a multiple of {_fmt(want)}")

    def sign(self, description: str, fact: SignFact) -> bool:
        ok = fact.verify()
        status = "pass" if ok else "fail"
        detail = "" if ok else f"unverified {fact.claimed_sign} claim for {_fmt(fact.expression)}"
        self.steps.append(CaseStep(description, "sign", status, detail, fact))
        return ok

    def hypothesis(self, description: str) -> None:
        self.steps.append(CaseStep(description, "hypothesis", "pass"))

    def report(self) -> CaseReport:
        verdict = "contradiction-verified"
        if any(s.status != "pass" for s in self.steps):
            verdict = "failed"
        return CaseReport(self.case_id, tuple(self.steps), verdict, dict(self.artifacts))


# -- symbolic helpers --------------------------------------------------


def apply_derivation(f: Polynomial, images: Mapping[str, Polynomial]) -> Polynomial:
    """Leibniz extension of a variable-image map; unnamed variables are constants."""
    out = Polynomial.zero(f.vars)
    for name, image in images.items():
        out = out + f.partial_derivative(name) * image
    return out


@dataclass(frozen=True)
class PowerProduct:
    """base^exponent times a polynomial, closed under differentiation.

    The scalar front factor is carried by the caller; exponents may be
    fractional since differentiation only shifts them by integers.
    """

    base: Polynomial
    exponent: Fraction
    poly: Polynomial

    def derivative(self, name: str) -> "PowerProduct":
        base_dot = self.base.partial_derivative(name)
        poly_dot = self.poly.partial_derivative(name)
        return PowerProduct(self.base, self.exponent - 1,
                            self.exponent * base_dot * self.poly + self.base * poly_dot)


# -- the seven case checks ---------------------------------------------


def check_case_I() -> CaseReport:
    """Vanishing rotation data means a vanishing curvature vector."""
    c = _Checker("I")
    ring = variables("a", "b", "c", "cs", "sn")
    a, b, cc, cs, sn = (Polynomial.variable(ring, n) for n in ring.names)
    components = (a, b, cc * cs, cc * sn)
    norm2 = Polynomial.zero(ring)
    for comp in components:
        norm2 = norm2 + comp * comp
    circle = Polynomial.constant(ring, 1) - cs * cs
    squares = a * a + b * b + cc * cc
    c.equal("squared norm of the curvature data reduces to a^2 + b^2 + c^2 under sn^2 -> 1 - cs^2",
            replace_square(RationalFunction(norm2), "sn", circle), squares)
    for name in ("a", "b", "c"):
        c.sign(f"a^2 + b^2 + c^2 is strictly positive wherever {name} is nonzero; the three "
               "regions a, b, c != 0 cover every point but (a, b, c) = (0, 0, 0)",
               SignFact(squares, Region({name: VariableCondition.nonzero_only()}), "positive",
                        PositiveCombination.from_polynomial(squares)))
    c.check("all curvature components vanish at (a, b, c) = (0, 0, 0)",
            all(comp.substitute({"a": 0, "b": 0, "c": 0}).is_zero() for comp in components))
    at_unit = replace_square(RationalFunction(norm2.substitute({"a": 0, "b": 0, "c": 1})),
                             "sn", circle)
    c.equal("at (a, b, c) = (0, 0, 1) the squared norm is the nonzero constant 1",
            at_unit, Polynomial.constant(ring, 1))
    c.hypothesis("in this branch the three coefficient functions vanish identically, so the "
                 "curvature vector is zero: the surface is minimal, against the standing "
                 "non-minimality assumption")
    return c.report()


def check_case_II() -> CaseReport:
    """A velocity orthogonality forces the rotation speed to vanish."""
    c = _Checker("II")
    # the forced component w'' = phi*r^2 is case V's x: phi plays its alpha
    profile = case_profile("V")
    accel = profile.x.derivative().derivative()
    target = Polynomial.variable(INITIAL_DATA_VARS, "alpha") * profile.r_squared
    order = min(accel.truncation_order, target.truncation_order)
    c.check("second derivative of the forced component equals phi*r^2 at every series order",
            all((accel[n] - target[n]).is_zero() for n in range(order + 1)),
            f"checked through order {order}")
    c.hypothesis("the velocity component along the fixed direction vanishes identically, so "
                 "its derivative does too: phi*r^2 must be the zero series")
    lead = target[0].substitute({"alpha": 1})
    c.equal("with the speed normalized to 1 the order-0 coefficient is r0^2", lead,
            Polynomial.variable(INITIAL_DATA_VARS, "r0") ** 2)
    c.sign("r0^2 is strictly positive for a positive initial radius, so it cannot vanish",
           SignFact(lead, Region({"r0": VariableCondition.positive()}), "positive",
                    PositiveCombination.from_polynomial(lead)))
    c.hypothesis("an identically zero speed is excluded by the branch hypothesis (recorded, "
                 "not checked)")
    c.artifacts["truncation_order"] = order
    return c.report()


def check_case_III() -> CaseReport:
    """Constancy of a scale invariant contradicts the radial equation."""
    c = _Checker("III")
    ring = variables("lam", "lamd", "nq2", "Pq")
    lam, lamd, nq2, pq = (Polynomial.variable(ring, n) for n in ring.names)
    relation = lamd * nq2 + lam * pq
    derived = apply_derivation(lam * lam * nq2, {"lam": lamd, "nq2": 2 * pq})
    c.equal("derivative of lam^2*nq2 under lam -> lamd, nq2 -> 2*Pq is twice lam times the "
            "displayed relation", derived, 2 * lam * relation)
    c.hypothesis("the relation lamd*nq2 + lam*Pq = 0 holds along the curve and "
                 "lam*det = r^2*nq2 with r > 0 keeps lam and the speed vector nonzero, so "
                 "lam^2*nq2 is a nonzero constant and r^4 is proportional to a negative "
                 "power of nq2")
    tau_ring = variables("alpha", "beta", "tau")
    alpha = Polynomial.variable(tau_ring, "alpha")
    beta = Polynomial.variable(tau_ring, "beta")
    tau = Polynomial.variable(tau_ring, "tau")
    w = alpha * alpha * tau * tau + beta * beta
    radial = PowerProduct(w, Fraction(-3, 4), Polynomial.constant(tau_ring, 1))
    second = radial.derivative("tau").derivative("tau")
    display = (Fraction(15, 4) * alpha ** 4 * tau * tau
               - Fraction(3, 2) * alpha ** 2 * beta ** 2)
    c.equal("second derivative of w^(-3/4) carries exponent -11/4", second.exponent,
            Fraction(-11, 4))
    c.equal("its polynomial part is (15/4)*alpha^4*tau^2 - (3/2)*alpha^2*beta^2",
            second.poly, display)
    gap = second.poly - w * w
    buckets = gap.as_univariate_in("tau")
    coeff4 = buckets[4] if len(buckets) > 4 else Polynomial.zero(tau_ring)
    c.equal("the tau^4 coefficient of the defect against w^2 is -alpha^4", coeff4,
            -(alpha ** 4))
    c.sign("alpha^4 is strictly positive for nonzero alpha, so the defect polynomial is nonzero",
           SignFact(alpha ** 4, Region({"alpha": VariableCondition.nonzero_only()}), "positive",
                    PositiveCombination.from_polynomial(alpha ** 4)))
    c.hypothesis("a nonzero rotation speed is a branch hypothesis; with it the radial equation "
                 "r'' = r fails at degree four, closing the branch")
    return c.report()


def check_case_IV() -> CaseReport:
    """A constant curvature function must be zero, yet equals -1/r."""
    c = _Checker("IV")
    c.hypothesis("both rotation speeds vanish, so compatibility reads c*r' = 0; on a "
                 "subinterval where c is nonzero the radius is constant")
    rc = variables("r", "c")
    r = Polynomial.variable(rc, "r")
    cc = Polynomial.variable(rc, "c")
    radial = r + cc * r * r
    value = evaluate_rational(radial, {"r": RationalFunction(r),
                                       "c": RationalFunction(-Polynomial.constant(rc, 1), r)}, rc)
    c.check("with a constant radius the radial equation forces c = -1/r exactly",
            value.is_zero(), _fmt(value) if not value.is_zero() else "")
    vars = INITIAL_DATA_VARS
    zero = Polynomial.zero(vars)
    constant = TruncatedSeries(vars, (Polynomial.variable(vars, "c0"),) + (zero,) * 8)
    defect = constant.derivative().derivative() - constant
    c.check("for a constant series the defect against c'' = c is minus the constant",
            all((defect[n] + constant[n]).is_zero() for n in range(defect.truncation_order + 1)))
    trivial = solve_profile_ivp(ProfileIVP(c0=0, c1=0))
    c.check("zero initial curvature data propagates to the zero curvature series",
            all(term.is_zero() for term in trivial.c.coefficients))
    c.sign("the numerator-denominator product of -1/r is strictly negative for r > 0, so "
           "-1/r is never the zero constant",
           SignFact(-r, Region({"r": VariableCondition.positive()}), "negative",
                    PositiveCombination.from_polynomial(-r)))
    c.hypothesis("c must equal the nonzero constant -1/r while the only constant solution of "
                 "c'' = c is zero: the branch collapses")
    return c.report()


def _case_v_data():
    ring = variables("alpha", "c", "cd", "r", "rd")
    alpha, cc, cd, r, rd = (Polynomial.variable(ring, n) for n in ring.names)
    images = {"c": cd, "cd": cc, "r": rd, "rd": r + cc * r * r}
    g = cd * rd + cc * r + (alpha * alpha + cc * cc) * r * r
    chain = [g]
    for _ in range(4):
        chain.append(apply_derivation(chain[-1], images))
    params = variables("alpha", "c0", "c1", "rho", "rho1", "sigma")
    return ring, chain, params


def check_case_V() -> CaseReport:
    """One constant rotation speed: the conserved combination cannot stay zero."""
    c = _Checker("V")
    ring, chain, params = _case_v_data()
    alpha, c0, c1, rho, rho1, sigma = (Polynomial.variable(params, n) for n in params.names)
    one = Polynomial.constant(params, 1)

    def at_zero(index: int, point: Mapping[str, RationalFunction | Polynomial]) -> RationalFunction:
        return evaluate_rational(chain[index], point, params)

    c.hypothesis("with speeds (alpha, 0), alpha > 0, differentiating the compatibility "
                 "relation along the component equations makes G := cd*rd + c*r + "
                 "(alpha^2 + c^2)*r^2 vanish identically; every derivative of G vanishes at 0")
    big_a = alpha * alpha + c0 * c0
    c.sign("alpha^2 + c0^2 is strictly positive when alpha is nonzero",
           SignFact(big_a, Region({"alpha": VariableCondition.nonzero_only()}), "positive",
                    PositiveCombination.from_polynomial(big_a)))

    # regime 1: the curvature function has a critical point at 0
    point = {"alpha": alpha, "c": c0, "cd": Polynomial.zero(params), "r": rho, "rd": rho1}
    c.equal("regime 1: G(0) factors as rho*(c0 + (alpha^2 + c0^2)*rho)",
            at_zero(0, point), RationalFunction(rho * (c0 + big_a * rho)))
    c.hypothesis("regime 1: r(0) > 0 discards the zero root, so r(0) = -c0/(alpha^2 + c0^2)")
    rho_v = RationalFunction(-c0, big_a)
    point = dict(point, r=rho_v)
    c.check("regime 1: the first derivative of G then vanishes at 0 with no extra conditions",
            at_zero(1, point).is_zero())
    display2 = RationalFunction(2 * big_a ** 3 * rho1 * rho1
                                + c0 * c0 * (c0 * c0 - 2 * alpha * alpha), big_a ** 2)
    c.equal("regime 1: second derivative matches (2A^3*rho1^2 + c0^2*(c0^2 - 2*alpha^2))/A^2",
            at_zero(2, point), display2)
    c.equal("regime 1: third derivative matches -10*c0^3*rho1/A",
            at_zero(3, point), RationalFunction(-10 * c0 ** 3 * rho1, big_a))
    c.hypothesis("regime 1: c0 is nonzero (a critical value of a nonzero solution of c'' = c), "
                 "so the vanishing third derivative forces rho1 = 0, and the vanishing second "
                 "derivative then forces c0^2 = 2*alpha^2")
    point = dict(point, rd=Polynomial.zero(params))
    fourth = at_zero(4, point)
    reduced = replace_square(fourth, "c0", 2 * alpha * alpha)
    c.equal("regime 1: under those relations the fourth derivative is the constant 56/9",
            reduced, RationalFunction(CASE5_FOURTH_DERIVATIVE * one))
    c.sign("regime 1: 56/9 is positive, so the fourth derivative cannot vanish",
           SignFact(CASE5_FOURTH_DERIVATIVE * one, Region(), "positive",
                    PositiveCombination.from_polynomial(CASE5_FOURTH_DERIVATIVE * one)))

    # regime 2: the curvature function has a zero at 0
    point = {"alpha": alpha, "c": Polynomial.zero(params), "cd": c1, "r": rho, "rd": rho1}
    c.equal("regime 2: G(0) equals c1*rho1 + alpha^2*rho^2",
            at_zero(0, point), RationalFunction(c1 * rho1 + alpha * alpha * rho * rho))
    c.equal("regime 2: the first derivative at 0 equals 2*rho*(alpha^2*rho1 + c1)",
            at_zero(1, point), RationalFunction(2 * rho * (alpha * alpha * rho1 + c1)))
    c.hypothesis("regime 2: r(0) > 0 and alpha nonzero give rho1 = -c1/alpha^2")
    rho1_v = RationalFunction(-c1, alpha * alpha)
    point = dict(point, rd=rho1_v)
    c.equal("regime 2: G(0) becomes (alpha^4*rho^2 - c1^2)/alpha^2, so rho^2 = c1^2/alpha^4",
            at_zero(0, point),
            RationalFunction(alpha ** 4 * rho * rho - c1 * c1, alpha * alpha))
    second = at_zero(2, point)
    second = replace_square(second, "rho", RationalFunction(c1 * c1, alpha ** 4))
    c.equal("regime 2: the second derivative reduces to 3*c1^4/alpha^4",
            second, RationalFunction(3 * c1 ** 4, alpha ** 4))
    product = 3 * c1 ** 4 * alpha ** 4
    c.sign("regime 2: 3*c1^4*alpha^4 is strictly positive for nonzero alpha and c1, so the "
           "second derivative cannot vanish",
           SignFact(product, Region({"alpha": VariableCondition.nonzero_only(),
                                     "c1": VariableCondition.nonzero_only()}), "positive",
                    PositiveCombination.from_polynomial(product)))
    c.hypothesis("regime 2: c1 is nonzero, else the curvature function with c(0) = 0 would be "
                 "identically zero")

    # regime 3: the curvature function is proportional to its derivative
    point = {"alpha": alpha, "c": c0, "cd": sigma * c0, "r": rho, "rd": rho1}
    rest = big_a * rho * rho + c0 * rho
    c.equal("regime 3: G(0) equals sigma*c0*rho1 + (alpha^2 + c0^2)*rho^2 + c0*rho",
            at_zero(0, point), RationalFunction(sigma * c0 * rho1 + rest))
    c.hypothesis("regime 3: sigma^2 = 1 and c0 nonzero make sigma*c0 invertible, so rho1 "
                 "solves out of G(0)")
    rho1_num = -sigma * rest
    point = dict(point, rd=RationalFunction(rho1_num, c0))
    g1 = replace_square(at_zero(1, point), "sigma", one)
    linear = 2 * big_a ** 2 * rho + c0 * (c0 * c0 + 4 * alpha * alpha)
    c.equal("regime 3: the reduced first derivative equals "
            "-sigma*rho^2*(2*A^2*rho + c0*(c0^2 + 4*alpha^2))/c0",
            g1, RationalFunction(-sigma * rho * rho * linear, c0))
    c.sign("regime 3: c0^2 is strictly positive for nonzero c0, so the divisor c0 is nonzero "
           "and the first derivative vanishes exactly where its numerator does",
           SignFact(c0 * c0, Region({"c0": VariableCondition.nonzero_only()}), "positive",
                    PositiveCombination.from_polynomial(c0 * c0)))
    c.hypothesis("regime 3: r(0) > 0 discards the double root rho = 0, and the remaining "
                 "factor is linear in rho, so it pins r(0) uniquely")
    rho_v = RationalFunction(-c0 * (c0 * c0 + 4 * alpha * alpha), 2 * big_a ** 2)
    full = {name: Polynomial.variable(params, name) for name in params.names}
    at_root = dict(full, rho=rho_v)
    c.check("regime 3: r(0) = -c0*(c0^2 + 4*alpha^2)/(2*(alpha^2 + c0^2)^2) is that root",
            evaluate_rational(linear, at_root, params).is_zero())
    rho1_full = replace_square(evaluate_rational(rho1_num, at_root, params) / c0, "sigma", one)
    display_rho1 = RationalFunction(
        sigma * c0 * (c0 * c0 - 2 * alpha * alpha) * (c0 * c0 + 4 * alpha * alpha),
        4 * big_a ** 3)
    c.equal("regime 3: r'(0) matches sigma*c0*(c0^2 - 2*alpha^2)*(c0^2 + 4*alpha^2)/(4*A^3)",
            rho1_full, display_rho1)
    point = dict(point, r=rho_v, rd=rho1_full)
    second = replace_square(at_zero(2, point), "sigma", one)
    display_second = RationalFunction(
        c0 ** 4 * (c0 * c0 + 4 * alpha * alpha) ** 2 * (c0 * c0 + 16 * alpha * alpha),
        8 * big_a ** 5)
    c.equal("regime 3: the second derivative reduces to "
            "c0^4*(c0^2 + 4*alpha^2)^2*(c0^2 + 16*alpha^2)/(8*A^5)",
            second, display_second)
    region = Region({"alpha": VariableCondition.nonzero_only(),
                     "c0": VariableCondition.nonzero_only()})
    product = display_second.num * display_second.den
    c.sign("regime 3: the numerator-denominator product expands with positive coefficients "
           "in even powers of alpha and c0, so the second derivative cannot vanish",
           SignFact(product, region, "positive",
                    PositiveCombination.from_polynomial(product)))
    c.hypothesis("the three regimes cover every solution of c'' = c by the sign of "
                 "cd^2 - c^2, so the branch cannot occur")
    return c.report()


def check_case_VI() -> CaseReport:
    """One linear rotation speed: both curvature branches fail."""
    c = _Checker("VI")
    vars = INITIAL_DATA_VARS
    kvar = Polynomial.variable(vars, "k")
    r0 = Polynomial.variable(vars, "r0")
    c1 = Polynomial.variable(vars, "c1")

    # branch 1: curvature function with zero constant term
    profile0 = solve_profile_ivp(ProfileIVP(beta=0, k=kvar, c0=0))
    compat0 = compatibility_series(profile0, "VI")
    c.check("branch c0 = 0: the order-0 compatibility coefficient vanishes identically",
            compat0[0].is_zero())
    c.equal("branch c0 = 0: the order-2 coefficient is 2*c1*r[2] (twice the displayed "
            "ordinary coefficient)", compat0[2], 2 * c1 * profile0.r[2])
    c.equal("branch c0 = 0: the second radius coefficient collapses to r0", profile0.r[2], r0)
    trivial = solve_profile_ivp(ProfileIVP(c0=0, c1=0))
    c.check("branch c0 = 0: c0 = c1 = 0 would make the curvature series identically zero",
            all(term.is_zero() for term in trivial.c.coefficients))
    c.hypothesis("branch c0 = 0: a not-identically-zero curvature function therefore has "
                 "c1 nonzero, so the order-2 coefficient forces r0 = 0")
    c.sign("branch c0 = 0: r0 is strictly positive, a contradiction",
           SignFact(r0, Region({"r0": VariableCondition.positive()}), "positive",
                    PositiveCombination.from_polynomial(r0)))

    # branch 2: nonzero constant term; work in the normalized system
    profile = case_profile("VI")
    system = extract_system(profile, "VI")
    nv = NORMALIZED_VARS
    av, uv, tv = (Polynomial.variable(nv, n) for n in ("A", "u", "t"))
    c.check("branch c0 != 0: the order-0 coefficient forces r1 = 0 (recorded elimination)",
            system.eliminated["r1"].is_zero())
    c.equal("branch c0 != 0: the order-2 equation is u*(3*t + 2), twice the displayed "
            "product c1*r0*(1 + (3/2)*c0*r0)", system.equation("E2"), uv * (3 * tv + 2))
    c.hypothesis("branch c0 != 0: so u = 0 or t = -2/3")

    # subbranch 2a: u = 0
    e3 = system.equation("E3").substitute({"u": 0})
    e5 = system.equation("E5").substitute({"u": 0})
    display3 = 3 * av + 2 * tv ** 3 + 7 * tv ** 2 + 4 * tv
    display5 = 15 * av * (tv + 1) + 5 * tv ** 4 + 27 * tv ** 3 + 35 * tv ** 2 + 8 * tv
    c.equal("subbranch u = 0: the order-3 equation reads 3*A + 2*t^3 + 7*t^2 + 4*t",
            e3, display3)
    c.proportional("subbranch u = 0: the order-5 equation is proportional to "
                   "15*A*(t + 1) + 5*t^4 + 27*t^3 + 35*t^2 + 8*t", e5, display5)
    res = resultant_univariate(e3, e5, "A")
    cubic = parse_polynomial(CUBIC_T_TEXT, nv)
    c.proportional("subbranch u = 0: eliminating A leaves t times the cubic "
                   f"{CUBIC_T_TEXT}", res, tv * cubic)
    c.hypothesis("subbranch u = 0: t = c0*r0 is nonzero here, so the cubic itself must vanish")
    c.equal("subbranch u = 0: the cubic has exactly one real root",
            count_real_roots(cubic, REAL_LINE), 1)
    lo, hi = CASE6_ROOT_WINDOW
    c.equal("subbranch u = 0: that root lies in the window (-12/5, -9/4)",
            count_real_roots(cubic, (lo, hi)), 1)
    c.sign("subbranch u = 0: the cubic is negative at -12/5",
           SignFact(cubic, Region({"t": VariableCondition.point(lo)}), "negative",
                    PointEvaluation({"t": lo})))
    c.equal("subbranch u = 0: its value there is -36/25",
            cubic.evaluate({"t": lo}),
            CASE6_CUBIC_AT_LO)
    c.sign("subbranch u = 0: the cubic is positive at -9/4",
           SignFact(cubic, Region({"t": VariableCondition.point(hi)}), "positive",
                    PointEvaluation({"t": hi})))
    c.equal("subbranch u = 0: its value there is 75/64",
            cubic.evaluate({"t": hi}),
            CASE6_CUBIC_AT_HI)
    quad = parse_polynomial(QUADRATIC_T_TEXT, nv)
    window = Region({"t": VariableCondition.window(lo, hi, strict=False)})
    c.sign(f"subbranch u = 0: {QUADRATIC_T_TEXT} is negative on the whole window",
           SignFact(quad, window, "negative", SturmWindow("t", (lo, hi))))
    c.equal("subbranch u = 0: the order-3 equation rewrites as 3*A + t*(2*t^2 + 7*t + 4)",
            e3, 3 * av + tv * quad)
    c.sign("subbranch u = 0: -t*(2*t^2 + 7*t + 4) is negative on the window",
           SignFact(-(tv * quad), window, "negative",
                    PositiveCombination((ProductTerm(Fraction(-1), ((tv, 1), (quad, 1))),))))
    c.sign("subbranch u = 0: 3*A is strictly positive, so 3*A = -t*(2*t^2 + 7*t + 4) is "
           "impossible",
           SignFact(3 * av, Region({"A": VariableCondition.positive()}), "positive",
                    PositiveCombination.from_polynomial(3 * av)))

    # subbranch 2b: t = -2/3
    e3b = system.equation("E3").substitute({"t": Fraction(-2, 3)})
    c.equal("subbranch t = -2/3: 27 times the order-3 equation is 81*A + 81*u^2 - 4",
            27 * e3b, 81 * av + 81 * uv ** 2 - 4 * Polynomial.constant(nv, 1))
    c0_image = RationalFunction(Polynomial.constant(vars, Fraction(-2, 3)), r0)
    bindings = {n: c0_image if n == "c0" else RationalFunction(Polynomial.variable(vars, n))
                for n in vars.names}
    bindings["r1"] = RationalFunction(Polynomial.zero(vars))
    displays = {
        2: RationalFunction(r0, Polynomial.constant(vars, 3)),
        3: RationalFunction(c1 * r0 * r0),
        4: RationalFunction(Fraction(-7, 9) * r0),
        5: RationalFunction(Fraction(8, 3) * c1 * r0 * r0),
    }
    for n, want in displays.items():
        got = evaluate_rational(profile.r[n], bindings, vars)
        c.equal(f"subbranch t = -2/3: the radius coefficient r[{n}] matches its display",
                got, want)
    e4b = system.equation("E4").substitute({"t": Fraction(-2, 3)})
    c.equal("subbranch t = -2/3: the order-4 equation is -(34/9)*u",
            e4b, Fraction(-34, 9) * uv)
    scalar = system.origins["E4"].scalar
    ordinary = Fraction(-34, 9) / scalar / 24
    c.equal("subbranch t = -2/3: undoing the archived scale and the 4! of the exponential "
            "convention gives the displayed ordinary coefficient -(17/54)*c1*r0",
            ordinary, CASE6_TAU4_COEFF)
    c.hypothesis("subbranch t = -2/3: u = c1*r0 must vanish with r0 > 0, so c1 = 0, which is "
                 "the already-refuted u = 0 subbranch")
    c.artifacts["cubic"] = CUBIC_T_TEXT
    c.artifacts["window"] = [str(lo), str(hi)]
    return c.report()


def check_case_VII(certificate: MembershipCertificate,
                   system: ConstraintSystem | None = None) -> CaseReport:
    """Two independent rotation speeds: the full normalized system is infeasible.

    ``certificate`` states p*t^4 over the extracted E-system (``system``).
    """
    c = _Checker("VII")
    if system is None:
        system = extract_system(case_profile("VII"), "VII")
    nv = NORMALIZED_VARS
    av, bv, uv, pv, tv = (Polynomial.variable(nv, n) for n in nv.names)
    one = Polynomial.constant(nv, 1)
    for description, stated, expected in certificate_claim(certificate, system.polynomials()):
        c.equal(description, stated, expected)
    c.check("the certificate identity sum(K_i*E_i) + remainder = p*t^4 holds exactly",
            certificate.verify())
    c.check("the remainder is zero, so p*t^4 vanishes on every solution of the system",
            certificate.remainder.is_zero(), _fmt(certificate.remainder)
            if not certificate.remainder.is_zero() else "")
    c.hypothesis("hence p = 0 or t = 0; both branches are refuted below")

    # branch t = 0
    c.equal("branch t = 0: the order-2 equation becomes 2*(B*p + u)",
            system.equation("E2").substitute({"t": 0}), 2 * (bv * pv + uv))
    c.hypothesis("branch t = 0: so u = -B*p")
    e3_t = system.equation("E3").substitute({"t": 0, "u": -(bv * pv)})
    c.equal("branch t = 0, p = 0: the order-3 equation collapses to 3*A + 2*B",
            e3_t.substitute({"p": 0}), 3 * av + 2 * bv)
    c.sign("branch t = 0, p = 0: 3*A + 2*B is strictly positive, a contradiction",
           SignFact(3 * av + 2 * bv,
                    Region({"A": VariableCondition.positive(),
                            "B": VariableCondition.positive()}), "positive",
                    PositiveCombination.from_polynomial(3 * av + 2 * bv)))
    e4_t = system.equation("E4").substitute({"t": 0, "u": -(bv * pv)})
    c.equal("branch t = 0, p != 0: the order-4 equation factors as "
            "p*(8*A - B^2 + 8*B^2*p^2)",
            e4_t, pv * (8 * av - bv * bv + 8 * bv * bv * pv * pv))
    c.hypothesis("branch t = 0, p != 0: dividing by p gives A = B^2*(1/8 - p^2); positivity "
                 "of A forces p^2 < 1/8, hence -1/2 < p < 1/2")
    a_image = Fraction(1, 8) * (bv * bv - 8 * bv * bv * pv * pv)
    e3_fin = e3_t.substitute({"A": a_image})
    display = Fraction(3, 8) * bv * bv + 2 * bv * (one - pv * pv)
    c.equal("branch t = 0, p != 0: substituting A into the order-3 equation gives "
            "(3/8)*B^2 + 2*B*(1 - p^2)", e3_fin, display)
    region = Region({"B": VariableCondition.positive(),
                     "p": VariableCondition.window(Fraction(-1, 2), Fraction(1, 2))})
    witness = PositiveCombination((
        ProductTerm(Fraction(3, 8), ((bv, 2),)),
        ProductTerm(Fraction(2), ((bv, 1), (one - pv * pv, 1))),
    ))
    c.sign("branch t = 0, p != 0: that expression is strictly positive on B > 0, |p| < 1/2",
           SignFact(e3_fin, region, "positive", witness))

    # branch p = 0
    c.equal("branch p = 0: the order-2 equation becomes u*(3*t + 2)",
            system.equation("E2").substitute({"p": 0}), uv * (3 * tv + 2))
    c.hypothesis("branch p = 0: so u = 0 or t = -2/3")

    # subbranch u = 0
    e0 = system.equation("E0").substitute({"p": 0, "u": 0})
    shifted = bv + tv + tv * tv
    c.equal("subbranch p = 0, u = 0: the order-0 equation factors as "
            "B*((B + t + t^2)^2 - A)", e0, bv * (shifted * shifted - av))
    c.hypothesis("subbranch p = 0, u = 0: B > 0 gives A = (B + t + t^2)^2")
    eq1 = system.equation("E3").substitute({"p": 0, "u": 0, "A": shifted * shifted})
    eq2 = system.equation("E5").substitute({"p": 0, "u": 0, "A": shifted * shifted})
    cubic = parse_polynomial(CUBIC_T_TEXT, nv)
    quadratic_t = 5 * tv * tv + 10 * tv + 6
    lin = eq2 - 5 * (tv + 1) * eq1
    c.equal("subbranch p = 0, u = 0: the combination E5' - 5*(t + 1)*E3' is linear in B and "
            "equals -(B*(5*t^2 + 10*t + 6) + t*(5*t^3 + 18*t^2 + 20*t + 12))",
            lin, -(bv * quadratic_t + tv * cubic))
    c.sign("subbranch p = 0, u = 0: 5*t^2 + 10*t + 6 = 5*(t + 1)^2 + 1 is positive for "
           "every t, so B solves to -t*(5*t^3 + 18*t^2 + 20*t + 12)/(5*t^2 + 10*t + 6)",
           SignFact(quadratic_t, Region(), "positive",
                    PositiveCombination((ProductTerm(Fraction(5), ((tv + one, 2),)),
                                         ProductTerm(Fraction(1))))))
    res = resultant_univariate(eq1, eq2, "B")
    quartic = parse_polynomial(QUARTIC_T_TEXT, nv)
    c.equal("subbranch p = 0, u = 0: eliminating B gives 12*t^2 times the quartic "
            f"{QUARTIC_T_TEXT}", res, 12 * tv * tv * quartic)
    c.equal("subbranch p = 0, u = 0: the quartic has no real roots",
            count_real_roots(quartic, REAL_LINE), 0)
    s1, s0 = QUARTIC_SQUARE_SHIFT
    inner = tv * tv + s1 * tv + s0 * one
    decomposition = PositiveCombination((
        ProductTerm(Fraction(18), ((inner, 2),)),
        ProductTerm(QUARTIC_DECOMP_T2, ((tv, 2),)),
        ProductTerm(QUARTIC_DECOMP_CONST),
    ))
    c.equal("subbranch p = 0, u = 0: the displayed square-plus-remainder decomposition "
            "expands to the quartic exactly",
            18 * inner * inner + QUARTIC_DECOMP_T2 * tv * tv
            + QUARTIC_DECOMP_CONST * one, quartic)
    c.sign("subbranch p = 0, u = 0: the decomposition certifies the quartic positive for "
           "every t", SignFact(quartic, Region(), "positive", decomposition))
    c.hypothesis("subbranch p = 0, u = 0: 12*t^2 times a positive quartic vanishes only at "
                 "t = 0, which belongs to the already-refuted t = 0 branch")

    # subbranch t = -2/3
    e4b = system.equation("E4").substitute({"p": 0, "t": Fraction(-2, 3)})
    coeff, rest = linear_split(e4b, "B")
    c.check("subbranch p = 0, t = -2/3: the order-4 equation is linear in B with both "
            "coefficients multiples of u",
            coeff.substitute({"u": 0}).is_zero() and rest.substitute({"u": 0}).is_zero()
            and not coeff.is_zero())
    b_solved = RationalFunction(-rest, coeff)
    c.equal("subbranch p = 0, t = -2/3: with u != 0 it solves to B = 34/9",
            b_solved, RationalFunction(CASE7_B_VALUE * one))
    e0b = system.equation("E0").substitute({"p": 0, "t": Fraction(-2, 3),
                                            "B": CASE7_B_VALUE})
    c.equal("subbranch p = 0, t = -2/3: the order-0 equation becomes "
            "(34/9)*((32/9)^2 - A)",
            e0b, CASE7_B_VALUE * (CASE7_A_VALUE * one - av))
    c.hypothesis("subbranch p = 0, t = -2/3: B = 34/9 > 0, so A = (32/9)^2 = 1024/81")
    e3b = system.equation("E3").substitute({"p": 0, "t": Fraction(-2, 3),
                                            "B": CASE7_B_VALUE, "A": CASE7_A_VALUE})
    c.equal("subbranch p = 0, t = -2/3: the order-3 equation reduces to 3*u^2 + 1088/27",
            e3b, 3 * uv * uv + CASE7_REDUCED_CONSTANT * one)
    c.sign("subbranch p = 0, t = -2/3: 3*u^2 + 1088/27 is strictly positive, a contradiction",
           SignFact(e3b, Region(), "positive", PositiveCombination.from_polynomial(e3b)))
    c.artifacts["certificate"] = {
        "target": CERTIFICATE_TARGET_TEXT,
        "generators": [label for label, _ in system.equations],
        "remainder_zero": certificate.remainder.is_zero(),
        "cofactor_terms": {label: len(numerator.terms) for (label, _), numerator
                           in zip(system.equations, certificate.numerators)},
    }
    c.artifacts["quartic"] = QUARTIC_T_TEXT
    return c.report()


def check_all_cases(certificate: MembershipCertificate) -> list[CaseReport]:
    """Run the seven branch checks in order; case VII checks ``certificate``."""
    return [
        check_case_I(),
        check_case_II(),
        check_case_III(),
        check_case_IV(),
        check_case_V(),
        check_case_VI(),
        check_case_VII(certificate),
    ]


# -- document form -----------------------------------------------------


def report_to_document(report: CaseReport) -> dict:
    """Render a CaseReport as a plain-data document."""
    steps = []
    for step in report.steps:
        entry: dict = {"description": step.description, "kind": step.kind,
                       "status": step.status}
        if step.detail:
            entry["detail"] = step.detail
        if step.sign_fact is not None:
            entry["sign_fact"] = step.sign_fact.document()
        steps.append(entry)
    return {
        "format": REPORT_FORMAT,
        "case": report.case_id,
        "verdict": report.verdict,
        "steps": steps,
        "artifacts": dict(report.artifacts),
        "assumption": "the seven-branch partition of the rotation data is exhaustive",
    }


def summarize_report(report: CaseReport) -> str:
    """One human-readable line per case."""
    counts = {"identity": 0, "sign": 0, "hypothesis": 0}
    for step in report.steps:
        counts[step.kind] = counts.get(step.kind, 0) + 1
    line = (f"case {report.case_id}: {report.verdict} "
            f"({counts['identity']} identities, {counts['sign']} sign facts, "
            f"{counts['hypothesis']} hypotheses)")
    failures = report.failed_steps()
    if failures:
        first = failures[0]
        line += f"; first failure: {first.description}"
        if first.detail:
            line += f" [{first.detail}]"
    return line


__all__ = [
    "CASE_IDS",
    "CaseReport",
    "CaseStep",
    "PowerProduct",
    "REPORT_FORMAT",
    "apply_derivation",
    "check_all_cases",
    "check_case_I",
    "check_case_II",
    "check_case_III",
    "check_case_IV",
    "check_case_V",
    "check_case_VI",
    "check_case_VII",
    "report_to_document",
    "summarize_report",
]
