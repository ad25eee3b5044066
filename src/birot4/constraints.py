"""Constraint-system extraction from solved profile series.

The solved profile series satisfy their component differential equations
identically, so what remains of the surface geometry is a first-order
compatibility relation among the component velocities together with the
arc-length normalization of the profile curve.  Expanding both in the
curve parameter gives one polynomial condition on the initial data per
power of the parameter.  After eliminating the free first-order
coefficients x1 and y1 and clearing a uniform power of the initial radius
r0, every condition lives in five scale-free combinations of the initial
data.  This module builds the two series, performs those eliminations,
and emits the resulting labeled polynomial system.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    ProfileSolution,
    TruncatedSeries,
    shift_by_expansion_variable,
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


def _normalize_coefficient(raw: Polynomial, tau_order: int, label: str,
                           mapping: NormalizationMap):
    if raw.is_zero():
        raise ExtractionError(f"series coefficient for {label} vanished identically")
    mapped, r0_power = mapping.apply(raw)
    normalized, scalar = primitive_normalize(mapped)
    return (label, normalized), (label, EquationOrigin(tau_order, scalar, r0_power))


def extract_system(profile: ProfileSolution, case_tag: str) -> ConstraintSystem:
    """Eliminate the free first-order data and emit the normalized system.

    Case VII solves the order-0 compatibility coefficient for y1 and the
    order-1 coefficient for x1, feeds both into the order-0 arc-length
    coefficient to get E0, and normalizes the order 2..6 compatibility
    coefficients into E2..E6.  Case VI forces r1 = 0 at order 0, consumes
    x1 at order 1, and emits E2..E6.  Case V consumes x1 at order 0 and
    emits E1..E6.  Every divisor used is checked against the case's
    nonzero hypotheses.
    """
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")
    vars = INITIAL_DATA_VARS
    mapping = NormalizationMap()
    compat = compatibility_series(profile, case_tag)
    alpha = Polynomial.variable(vars, "alpha")
    eliminated: dict[str, RationalFunction] = {}
    equations = []
    origins = []

    if case_tag == "VII":
        beta = Polynomial.variable(vars, "beta")
        c0r1 = Polynomial.variable(vars, "c0") * Polynomial.variable(vars, "r1")
        if compat[0] != beta * Polynomial.variable(vars, "y1") + c0r1:
            raise ExtractionError("order-0 compatibility coefficient has unexpected shape")
        _require_divisor("beta", case_tag)
        eliminated["y1"] = RationalFunction(-c0r1, beta)

        x1_coeff, x1_rest = linear_split(compat[1], "x1")
        if x1_coeff != alpha:
            raise ExtractionError("order-1 compatibility coefficient is not monic in x1 over alpha")
        _require_divisor("alpha", case_tag)
        eliminated["x1"] = RationalFunction(-x1_rest, alpha)

        arc0 = arc_defect_series(profile)[0]
        arc0 = eliminate_linear(arc0, "y1", beta, c0r1)
        arc0 = eliminate_linear(arc0, "x1", alpha, x1_rest)
        eq, origin = _normalize_coefficient(arc0, 0, "E0", mapping)
        equations.append(eq)
        origins.append(origin)
        for n in range(2, 7):
            eq, origin = _normalize_coefficient(compat[n], n, f"E{n}", mapping)
            equations.append(eq)
            origins.append(origin)

    elif case_tag == "VI":
        if compat[0] != Polynomial.variable(vars, "c0") * Polynomial.variable(vars, "r1"):
            raise ExtractionError("order-0 compatibility coefficient has unexpected shape")
        _require_divisor("c0", case_tag)
        eliminated["r1"] = RationalFunction(Polynomial.zero(vars))
        coeffs = [f.substitute({"r1": 0}) for f in compat.coefficients]

        x1_coeff, x1_rest = linear_split(coeffs[1], "x1")
        if x1_coeff != alpha:
            raise ExtractionError("order-1 compatibility coefficient is not monic in x1 over alpha")
        _require_divisor("alpha", case_tag)
        eliminated["x1"] = RationalFunction(-x1_rest, alpha)
        for n in range(2, 7):
            eq, origin = _normalize_coefficient(coeffs[n], n, f"E{n}", mapping)
            equations.append(eq)
            origins.append(origin)

    else:
        x1_coeff, x1_rest = linear_split(compat[0], "x1")
        if x1_coeff != alpha:
            raise ExtractionError("order-0 compatibility coefficient is not monic in x1 over alpha")
        _require_divisor("alpha", case_tag)
        eliminated["x1"] = RationalFunction(-x1_rest, alpha)
        for n in range(1, 7):
            eq, origin = _normalize_coefficient(compat[n], n, f"E{n}", mapping)
            equations.append(eq)
            origins.append(origin)

    return ConstraintSystem(
        case_tag=case_tag,
        hypotheses=CASE_HYPOTHESES[case_tag],
        eliminated=eliminated,
        equations=tuple(equations),
        origins=dict(origins),
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
    "compatibility_series",
    "extract_system",
    "linear_split",
    "system_to_document",
]
