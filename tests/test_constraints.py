"""Extraction layer: compatibility and arc-length series, normalization, systems."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import case7_reference_system
from birot4.constraints import (
    CASE_HYPOTHESES,
    ExtractionError,
    NORMALIZED_VARS,
    NormalizationMap,
    arc_defect_series,
    case_profile,
    compatibility_series,
    extract_system,
)
from birot4.poly import (
    Polynomial,
    RationalFunction,
    eliminate_linear,
    evaluate_rational,
    parse_polynomial,
    primitive_normalize,
)
from birot4.series import (
    INITIAL_DATA_VARS,
    ProfileIVP,
    quadratic_forced_component,
    solve_profile_ivp,
)

V = INITIAL_DATA_VARS


def _sym(name):
    return Polynomial.variable(V, name)


@pytest.fixture(scope="module")
def profile_vi():
    return solve_profile_ivp(ProfileIVP(beta=0, k=_sym("k")))


@pytest.fixture(scope="module")
def profile_v(profile_vi):
    forced = quadratic_forced_component(profile_vi.r, _sym("alpha"), _sym("x1"))
    return dataclasses.replace(profile_vi, x=forced)


def test_transcribed_e0_expands_its_factored_display():
    """CASE7_SYSTEM_TEXT's E0 is B*(B + p*u + t + t^2)^2 + A*p^2*(B + t^2) - A*B."""
    A, B, u, p, t = (Polynomial.variable(NORMALIZED_VARS, n) for n in NORMALIZED_VARS.names)
    display = B * (B + p * u + t + t ** 2) ** 2 + A * p ** 2 * (B + t ** 2) - A * B
    assert case7_reference_system()["E0"] == display


def test_full_case_system_matches_reference(system_vii):
    assert system_vii.labels() == ("E0", "E2", "E3", "E4", "E5", "E6")
    reference = case7_reference_system()
    for label in system_vii.labels():
        assert system_vii.equation(label) == reference[label], label
    with pytest.raises(KeyError):
        system_vii.equation("E1")


def test_eliminated_first_order_data(profile_vii, system_vii):
    c0r1 = _sym("c0") * _sym("r1")
    assert system_vii.eliminated["y1"] == RationalFunction(-c0r1, _sym("beta"))
    x1_rest = (_sym("beta") ** 2 * _sym("r0") ** 2 + _sym("c0") * _sym("r0")
               + _sym("c0") ** 2 * _sym("r0") ** 2 + _sym("c1") * _sym("r1"))
    assert system_vii.eliminated["x1"] == RationalFunction(-x1_rest, _sym("alpha"))
    # substituting the eliminated values kills the two consumed coefficients
    compat = compatibility_series(profile_vii, "VII")
    point = {name: RationalFunction(_sym(name)) for name in V.names}
    point["y1"] = system_vii.eliminated["y1"]
    point["x1"] = system_vii.eliminated["x1"]
    assert evaluate_rational(compat[0], point, V).num.is_zero()
    assert evaluate_rational(compat[1], point, V).num.is_zero()


def test_origin_metadata_reconstructs_each_equation(profile_vii, system_vii):
    mapping = NormalizationMap()
    compat = compatibility_series(profile_vii, "VII")
    for n in range(2, 7):
        label = f"E{n}"
        mapped, r0_power = mapping.apply(compat[n])
        normalized, scalar = primitive_normalize(mapped)
        assert system_vii.equation(label) == normalized
        origin = system_vii.origins[label]
        assert origin.tau_order == n
        assert origin.scalar == scalar
        assert origin.r0_power == r0_power
        assert mapped * scalar == normalized


def test_zeroth_equation_comes_from_the_arc_length_coefficient(profile_vii, system_vii):
    compat = compatibility_series(profile_vii, "VII")
    x1_rest = compat[1].as_univariate_in("x1")[0]
    arc0 = arc_defect_series(profile_vii)[0]
    arc0 = eliminate_linear(arc0, "y1", _sym("beta"), _sym("c0") * _sym("r1"))
    arc0 = eliminate_linear(arc0, "x1", _sym("alpha"), x1_rest)
    mapped, r0_power = NormalizationMap().apply(arc0)
    normalized, _ = primitive_normalize(mapped)
    assert system_vii.equation("E0") == normalized
    assert system_vii.origins["E0"].tau_order == 0
    assert system_vii.origins["E0"].r0_power == r0_power


def test_arc_defect_derivative_is_radius_weighted_compatibility(
        profile_vii, profile_vi, profile_v):
    """d/dtau of the arc-length defect equals 2*r^2 times the compatibility
    series once the component equations hold, for each case's profile."""
    for profile, tag in ((profile_vii, "VII"), (profile_vi, "VI"), (profile_v, "V")):
        lhs = arc_defect_series(profile).derivative()
        rhs = (2 * (profile.r * profile.r)) * compatibility_series(profile, tag)
        order = min(lhs.truncation_order, rhs.truncation_order)
        assert order >= 8
        for n in range(order + 1):
            assert lhs[n] == rhs[n], f"case {tag}, order {n}"


def test_single_speed_case_first_equation(profile_v):
    system = extract_system(profile_v, "V")
    assert system.labels() == ("E1", "E2", "E3", "E4", "E5", "E6")
    assert system.equation("E1") == parse_polynomial("A + u*p + t^2 + t", NORMALIZED_VARS)
    x1_rest = compatibility_series(profile_v, "V")[0].as_univariate_in("x1")[0]
    assert system.eliminated["x1"] == RationalFunction(-x1_rest, _sym("alpha"))


def test_planar_speed_case_specializes_the_full_case(profile_vi, system_vii):
    system_vi = extract_system(profile_vi, "VI")
    assert system_vi.labels() == ("E2", "E3", "E4", "E5", "E6")
    assert system_vi.eliminated["r1"].num.is_zero()
    for label in system_vi.labels():
        specialized = system_vii.equation(label).substitute({"B": 0, "p": 0})
        lhs, _ = primitive_normalize(specialized)
        rhs, _ = primitive_normalize(system_vi.equation(label))
        assert lhs == rhs, label


def test_planar_extraction_ignores_the_orthogonal_component(profile_vii, profile_vi):
    """The planar case never touches the y-series, so extracting it from the
    general profile and from the beta-free profile must agree."""
    from_general = extract_system(profile_vii, "VI")
    from_planar = extract_system(profile_vi, "VI")
    assert from_general.equations == from_planar.equations


def test_case_hypotheses_are_recorded(system_vii):
    assert system_vii.hypotheses == CASE_HYPOTHESES["VII"] == ("alpha", "beta")


def test_case_profile_matches_independent_constructions(profile_vii, profile_vi, profile_v):
    assert case_profile("VII") == profile_vii == solve_profile_ivp(ProfileIVP())
    assert case_profile("VI") == profile_vi
    assert case_profile("V") == profile_v
    assert case_profile("V", order=8).r.truncation_order == 8
    with pytest.raises(ValueError):
        case_profile("IV")


def test_extraction_rejects_mismatched_profiles(profile_vi, profile_vii, profile_v):
    with pytest.raises(ValueError):
        extract_system(profile_vii, "IV")
    # a beta-free profile lacks the order-0 shape the full case relies on
    with pytest.raises(ExtractionError):
        extract_system(profile_vi, "VII")
    # order 2 of x tells case V's forced component from VI's and VII's
    for profile, tag in ((profile_vii, "V"), (profile_vi, "V"), (profile_v, "VI")):
        with pytest.raises(ExtractionError, match="order 2 of the x component"):
            extract_system(profile, tag)
    with pytest.raises(ValueError):
        compatibility_series(profile_vii, "II")
    with pytest.raises(ValueError):
        compatibility_series(dataclasses.replace(profile_vii, ivp=None), "VII")


def test_normalization_map_images():
    mapping = NormalizationMap()
    cases = {
        "c0*r0": ("t", 0),
        "c1*r0": ("u", 0),
        "r1": ("p", 1),
        "alpha^2*r0^2": ("A", 0),
        "beta^2*r0^4": ("B", 2),
        "c0^2*r0^2 + 2*r1*c1": ("t^2 + 2*u*p", 0),
    }
    for text, (image_text, power) in cases.items():
        image, r0_power = mapping.apply(parse_polynomial(text, V))
        assert image == parse_polynomial(image_text, NORMALIZED_VARS)
        assert r0_power == power
    # residual r0-powers 0 and 1 across the terms: no common power to clear
    with pytest.raises(ExtractionError):
        mapping.apply(parse_polynomial("c0^2*r0^2 + 2*r0*r1*c1", V))
    zero_image, zero_power = mapping.apply(Polynomial.zero(V))
    assert zero_image.is_zero() and zero_power == 0


def test_normalization_map_rejections():
    mapping = NormalizationMap()
    for text in ("k", "x1", "y1 + r0", "alpha*r0", "beta^3*r0^3", "r0 + c0"):
        with pytest.raises(ExtractionError):
            mapping.apply(parse_polynomial(text, V))
    with pytest.raises(ValueError):
        mapping.apply(Polynomial.variable(NORMALIZED_VARS, "A"))


def test_flat_profile_is_exactly_unit_speed():
    """Radius cosh, no curvature, unit slope along x: every emitted residual
    series vanishes identically."""
    profile = solve_profile_ivp(ProfileIVP(alpha=0, beta=0, c0=0, c1=0, r0=1, r1=0))
    arc = arc_defect_series(profile)
    unit = {"x1": 1, "y1": 0}
    assert all(c.substitute(unit).is_zero() for c in arc.coefficients)
    for tag in ("V", "VI", "VII"):
        compat = compatibility_series(profile, tag)
        assert compat.is_zero(), tag
