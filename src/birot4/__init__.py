"""Exact verification engine for rotational profile surfaces in E4.

The package splits into an exact symbolic layer (sparse multivariate
polynomials over the rationals, Groebner bases with membership certificates,
Sturm sequences, truncated Taylor series, constraint extraction, and the
seven-branch case analysis) and a floating-point layer that integrates
the same differential system and measures residuals.  The ``birot4``
console script exposes the four standard runs: derive, certify,
check-cases, and simulate.

Importing the package loads no submodule.  A name below, or a submodule
such as ``birot4.numeric``, is imported on first access, so a run that
never touches the float layer never loads numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "cases": (
        "CASE_IDS", "CaseReport", "CaseStep", "check_all_cases",
        "report_to_document", "summarize_report",
    ),
    "constraints": (
        "CASE_TAGS", "NORMALIZED_NAMES", "NORMALIZED_VARS", "ConstraintSystem",
        "ExtractionError", "NormalizationMap", "arc_defect_series",
        "compatibility_series", "extract_system", "system_to_document",
    ),
    "certificate": (
        "MembershipCertificate", "certificate_from_document", "certificate_to_document",
    ),
    "groebner": (
        "GroebnerBasis", "IdealPresentation", "basis_from_document",
        "basis_to_document", "buchberger", "certify_membership", "reduce",
        "s_polynomial", "staged_buchberger",
    ),
    "numeric": (
        "IntegrationParams", "NumericError", "ProfileState", "ResidualReport",
        "SurfaceProfile", "Trajectory", "biharmonic_residual",
        "integrate_profile", "surface_laplacian_gap", "sweep_nonminimal",
    ),
    "poly": (
        "GREVLEX", "LEX", "MonomialOrder", "Polynomial", "RationalFunction",
        "VariableSet", "format_polynomial", "parse_polynomial",
        "primitive_normalize", "variables",
    ),
    "series": (
        "INITIAL_DATA_NAMES", "INITIAL_DATA_VARS", "ProfileIVP",
        "ProfileSolution", "TruncatedSeries", "solve_profile_ivp",
    ),
    "univariate": ("count_real_roots", "resultant_univariate"),
    "witness": ("PositiveCombination", "Region", "SignFact", "VariableCondition"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fixtures"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
