"""Constraint-system extraction from solved profile series.

The solved profile series satisfy their component differential equations
identically, so what remains of the surface geometry is a first-order
compatibility relation among the component velocities together with the
arc-length normalization of the profile curve.  Expanding both in the
curve parameter gives one polynomial condition on the initial data per
power of the parameter.  After eliminating the free first-order
coefficients x1 and y1 and clearing a uniform power of the initial radius
r0, every condition lives in five scale-free combinations of the initial
data.  This module builds each case's profile and its two series, performs
those eliminations, and emits the resulting labeled polynomial system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .poly import (
    Polynomial,
    RationalFunction,
    VariableSet,
    eliminate_linear,
    format_polynomial,
    primitive_normalize,
    variables,
)
from .series import (
    INITIAL_DATA_VARS,
    ProfileIVP,
    ProfileSolution,
    TruncatedSeries,
    forced_by_square,
    shift_by_expansion_variable,
    solve_profile_ivp,
)

# Scale-free symbols: A = alpha^2*r0^2, B = beta^2*r0^2, u = c1*r0,
# p = r1/r0, t = c0*r0.  Lex precedence A > B > u > p > t.
NORMALIZED_NAMES = ("A", "B", "u", "p", "t")
NORMALIZED_VARS = variables(*NORMALIZED_NAMES)

SYSTEM_FORMAT = "birot4/constraint-system@1"

CASE_TAGS = ("V", "VI", "VII")

# symbols each case assumes nonzero; they are the only legal divisors
CASE_HYPOTHESES = {
    "V": ("alpha",),
    "VI": ("alpha", "c0"),
    "VII": ("alpha", "beta"),
}


class ExtractionError(ValueError):
    """A series coefficient lacks the shape the elimination relies on."""


def case_profile(case_tag: str, order: int = 10) -> ProfileSolution:
    """One case's profile series to ``order``, under that case's premises.

    VII: speeds alpha and beta, so x'' = alpha*tau*r^2 and y'' = beta*r^2.
    VI: beta = 0, so y' is the constant k.  V: VI's data, with x forced by
    x'' = alpha*r^2 (no factor of tau), x(0) = 0 and x'(0) = x1.  Every
    other initial coefficient stays symbolic.
    """
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")
    if case_tag == "VII":
        return solve_profile_ivp(ProfileIVP(truncation_order=order))
    k = Polynomial.variable(INITIAL_DATA_VARS, "k")
    planar = solve_profile_ivp(ProfileIVP(beta=0, k=k, truncation_order=order))
    if case_tag == "VI":
        return planar
    alpha, x1 = (Polynomial.variable(INITIAL_DATA_VARS, n) for n in ("alpha", "x1"))
    return replace(planar, x=forced_by_square(INITIAL_DATA_VARS, planar.r_squared.coefficients,
                                              alpha, x1))


def compatibility_series(profile: ProfileSolution, case_tag: str) -> TruncatedSeries:
    """Velocity-compatibility series for one case of the rotation data.

    The general relation pairs each rotation speed with the velocity of
    its plane coordinate plus the c-weighted radial velocity.  The three
    supported cases differ in which speeds survive and in whether the
    x-speed carries an extra factor of the expansion variable.
    """
    if profile.ivp is None:
        raise ValueError("profile must carry its initial data record")
    xdot = profile.x.derivative()
    rdot = profile.r.derivative()
    alpha = profile.resolved_alpha()
    if case_tag == "VII":
        ydot = profile.y.derivative()
        beta = profile.resolved_beta()
        return shift_by_expansion_variable(alpha * xdot) + beta * ydot + profile.c * rdot
    if case_tag == "VI":
        return shift_by_expansion_variable(alpha * xdot) + profile.c * rdot
    if case_tag == "V":
        return alpha * xdot + profile.c * rdot
    raise ValueError(f"no compatibility series for case {case_tag!r}")


def arc_defect_series(profile: ProfileSolution) -> TruncatedSeries:
    """Series of x'^2 + y'^2 + r'^2 - r^2; zero iff the curve is unit speed."""
    xdot = profile.x.derivative()
    ydot = profile.y.derivative()
    rdot = profile.r.derivative()
    return xdot * xdot + ydot * ydot + rdot * rdot - profile.r * profile.r


@dataclass(frozen=True)
class NormalizationMap:
    """Monomial rewriting from raw initial data to scale-free symbols.

    Dictionary: alpha^2*r0^2 -> A, beta^2*r0^2 -> B, c1*r0 -> u,
    r1/r0 -> p, c0*r0 -> t.  Every raw monomial becomes a normalized
    monomial times a power of r0; apply() demands that residual power be
    the same across all terms of its input, clears it, and reports it.
    """

    source: VariableSet = INITIAL_DATA_VARS
    target: VariableSet = NORMALIZED_VARS

    def apply(self, f: Polynomial) -> tuple[Polynomial, int]:
        if f.vars != self.source:
            raise ValueError("input does not live in the raw initial-data ring")
        if f.is_zero():
            return Polynomial.zero(self.target), 0
        pos = {name: self.source.index(name) for name in self.source.names}
        out: dict[tuple[int, ...], Fraction] = {}
        residual: int | None = None
        for exps, coeff in f.terms.items():
            if exps[pos["k"]] or exps[pos["x1"]] or exps[pos["y1"]]:
                raise ExtractionError("term mentions a symbol outside the normalization dictionary")
            a, b = exps[pos["r0"]], exps[pos["r1"]]
            c, d = exps[pos["c0"]], exps[pos["c1"]]
            e, g = exps[pos["alpha"]], exps[pos["beta"]]
            if e % 2 or g % 2:
                raise ExtractionError("odd power of a rotation speed cannot be normalized")
            power = a + b - c - d - e - g
            if residual is None:
                residual = power
            elif power != residual:
                raise ExtractionError("mixed residual powers of r0 across terms")
            image = (e // 2, g // 2, d, b, c)
            out[image] = out.get(image, Fraction(0)) + coeff
        return Polynomial(self.target, out), residual


@dataclass(frozen=True)
class EquationOrigin:
    """How one emitted equation was produced from a series coefficient."""

    tau_order: int
    scalar: Fraction
    r0_power: int


@dataclass(frozen=True)
class ConstraintSystem:
    """Labeled polynomial system extracted for one case."""

    case_tag: str
    hypotheses: tuple[str, ...]
    eliminated: Mapping[str, RationalFunction]
    equations: tuple[tuple[str, Polynomial], ...]
    origins: Mapping[str, EquationOrigin]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.equations)

    def polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(eq for _, eq in self.equations)

    def equation(self, label: str) -> Polynomial:
        for found, eq in self.equations:
            if found == label:
                return eq
        raise KeyError(label)


def _require_divisor(name: str, case_tag: str) -> None:
    if name not in CASE_HYPOTHESES[case_tag]:
        raise ExtractionError(
            f"case {case_tag} would divide by {name}, which its hypotheses do not protect")


def linear_split(f: Polynomial, name: str) -> tuple[Polynomial, Polynomial]:
    """Split f = coeff*name + rest, requiring degree exactly one in name."""
    buckets = f.as_univariate_in(name)
    if len(buckets) != 2:
        raise ExtractionError(f"coefficient is not linear in {name}")
    return buckets[1], buckets[0]


def _normalize_coefficient(raw: Polynomial, tau_order: int, mapping: NormalizationMap):
    label = f"E{tau_order}"
    if raw.is_zero():
        raise ExtractionError(f"series coefficient for {label} vanished identically")
    mapped, r0_power = mapping.apply(raw)
    normalized, scalar = primitive_normalize(mapped)
    return (label, normalized), (label, EquationOrigin(tau_order, scalar, r0_power))


_LAST_ORDER = 6  # the highest compatibility order an equation reads (E6)


def _cut(profile: ProfileSolution, order: int) -> ProfileSolution:
    """The profile with each component series cut after ``order``."""
    def cut(f: TruncatedSeries) -> TruncatedSeries:
        return TruncatedSeries(f.vars, f.coefficients[:order + 1])

    return replace(profile, x=cut(profile.x), y=cut(profile.y), r=cut(profile.r),
                   c=cut(profile.c))


def extract_system(profile: ProfileSolution, case_tag: str) -> ConstraintSystem:
    """Eliminate the free first-order data and emit the normalized system.

    Case VII solves the order-0 compatibility coefficient for y1 and the
    order-1 coefficient for x1, feeds both into the order-0 arc-length
    coefficient to get E0, and normalizes the order 2..6 compatibility
    coefficients into E2..E6.  Case VI forces r1 = 0 at order 0, consumes
    x1 at order 1, and emits E2..E6.  Case V consumes x1 at order 0 and
    emits E1..E6.  Every divisor used is checked against the case's
    nonzero hypotheses.  The profile must be the case's (``case_profile``):
    order 2 of x is alpha*r0^2 for V and 0 for VI and VII.  No equation
    reads past compatibility order 6, so the component series are cut after
    order 7, before any product forms.
    """
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")
    vars = INITIAL_DATA_VARS
    alpha = Polynomial.variable(vars, "alpha")
    r0 = Polynomial.variable(vars, "r0")
    if profile.x[2] != (alpha * r0 * r0 if case_tag == "V" else Polynomial.zero(vars)):
        raise ExtractionError(f"order 2 of the x component is not case {case_tag}'s")
    mapping = NormalizationMap()
    compat = compatibility_series(_cut(profile, _LAST_ORDER + 1), case_tag)
    eliminated: dict[str, RationalFunction] = {}
    coeffs = compat.coefficients
    if case_tag == "VII":
        beta = Polynomial.variable(vars, "beta")
        c0r1 = Polynomial.variable(vars, "c0") * Polynomial.variable(vars, "r1")
        if compat[0] != beta * Polynomial.variable(vars, "y1") + c0r1:
            raise ExtractionError("order-0 compatibility coefficient has unexpected shape")
        _require_divisor("beta", case_tag)
        eliminated["y1"] = RationalFunction(-c0r1, beta)
    elif case_tag == "VI":
        if compat[0] != Polynomial.variable(vars, "c0") * Polynomial.variable(vars, "r1"):
            raise ExtractionError("order-0 compatibility coefficient has unexpected shape")
        _require_divisor("c0", case_tag)
        eliminated["r1"] = RationalFunction(Polynomial.zero(vars))
        coeffs = [f.substitute({"r1": 0}) for f in coeffs]

    # case V consumes x1 at order 0; VI and VII have spent order 0 on r1 and y1
    x1_order = 0 if case_tag == "V" else 1
    x1_coeff, x1_rest = linear_split(coeffs[x1_order], "x1")
    if x1_coeff != alpha:
        raise ExtractionError(
            f"order-{x1_order} compatibility coefficient is not monic in x1 over alpha")
    _require_divisor("alpha", case_tag)
    eliminated["x1"] = RationalFunction(-x1_rest, alpha)

    raw = {n: coeffs[n] for n in range(x1_order + 1, _LAST_ORDER + 1)}
    if case_tag == "VII":
        # order 0 of arc_defect_series: x'^2 + y'^2 + r'^2 - r^2 at tau = 0
        x, y, r = profile.x, profile.y, profile.r
        arc0 = eliminate_linear(x[1] * x[1] + y[1] * y[1] + r[1] * r[1] - r[0] * r[0],
                                "y1", beta, c0r1)
        raw = {0: eliminate_linear(arc0, "x1", alpha, x1_rest), **raw}
    normalized = [_normalize_coefficient(f, n, mapping) for n, f in raw.items()]
    return ConstraintSystem(
        case_tag=case_tag,
        hypotheses=CASE_HYPOTHESES[case_tag],
        eliminated=eliminated,
        equations=tuple(eq for eq, _ in normalized),
        origins=dict(origin for _, origin in normalized),
    )


# -- document form -----------------------------------------------------


def system_to_document(system: ConstraintSystem) -> dict:
    """Render a ConstraintSystem as a plain-data document."""
    return {
        "format": SYSTEM_FORMAT,
        "case": system.case_tag,
        "hypotheses_nonzero": list(system.hypotheses),
        "variables": list(NORMALIZED_VARS.names),
        "eliminated": {
            name: {
                "numerator": format_polynomial(value.num),
                "denominator": format_polynomial(value.den),
            }
            for name, value in system.eliminated.items()
        },
        "equations": [
            {
                "label": label,
                "text": format_polynomial(eq),
                "tau_order": system.origins[label].tau_order,
                "scalar": str(system.origins[label].scalar),
                "r0_power": system.origins[label].r0_power,
            }
            for label, eq in system.equations
        ],
    }


__all__ = [
    "CASE_HYPOTHESES",
    "CASE_TAGS",
    "ConstraintSystem",
    "EquationOrigin",
    "ExtractionError",
    "NORMALIZED_NAMES",
    "NORMALIZED_VARS",
    "NormalizationMap",
    "SYSTEM_FORMAT",
    "arc_defect_series",
    "case_profile",
    "compatibility_series",
    "extract_system",
    "linear_split",
    "system_to_document",
]
