"""Truncated series layer: convention checks, solver recurrences, reference table."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import profile_series_table
from birot4.poly import Polynomial, variables
from birot4.series import (
    INITIAL_DATA_VARS,
    ProfileIVP,
    TruncatedSeries,
    quadratic_forced_component,
    series_derivative,
    series_mul,
    shift_by_expansion_variable,
    solve_profile_ivp,
)

V = INITIAL_DATA_VARS


def _const_series(values):
    return TruncatedSeries(V, tuple(Polynomial.constant(V, v) for v in values))


def test_exponential_convention_on_the_exponential():
    """The series with all coefficients 1 is its own derivative, and its
    square doubles coefficients like exp(2*tau) demands."""
    e = _const_series([1] * 9)
    assert e.derivative().coefficients == e.coefficients[1:]
    square = e * e
    for n, coeff in enumerate(square.coefficients):
        assert coeff == Polynomial.constant(V, 2 ** n)


def test_binomial_convolution_small_case():
    f = _const_series([1, 2, 3])
    g = _const_series([4, 5, 6])
    product = series_mul(f, g)
    assert product[0] == Polynomial.constant(V, 4)
    assert product[1] == Polynomial.constant(V, 1 * 5 + 2 * 4)
    assert product[2] == Polynomial.constant(V, 1 * 6 + 2 * (2 * 5) + 3 * 4)


def test_a_coefficient_over_another_ring_is_refused():
    other = Polynomial.variable(variables("z"), "z")
    with pytest.raises(ValueError, match="variable set"):
        TruncatedSeries.constant(V, other, 3)
    with pytest.raises(ValueError, match="variable set"):
        _const_series([1, 2, 3]) * other


def test_shift_by_expansion_variable():
    f = _const_series([7, 1, 2, 5])
    shifted = shift_by_expansion_variable(f)
    assert shifted[0].is_zero()
    for n in range(1, 4):
        assert shifted[n] == n * f[n - 1]
    # derivative undoes the shift up to the product rule: (tau*f)' = f + tau*f'
    lhs = shifted.derivative()
    rhs = f + shift_by_expansion_variable(f.derivative())
    order = min(lhs.truncation_order, rhs.truncation_order)
    for n in range(order + 1):
        assert lhs[n] == rhs[n]


def test_series_validation_errors():
    with pytest.raises(ValueError):
        TruncatedSeries(V, ())
    other = variables("q")
    with pytest.raises(ValueError):
        TruncatedSeries(V, (Polynomial.constant(other, 1),))
    with pytest.raises(ValueError):
        series_derivative(TruncatedSeries.constant(V, 1, 0))
    with pytest.raises(ValueError):
        _const_series([1, 2]) + TruncatedSeries.constant(other, 1, 2)


def test_truncation_tracks_the_shorter_operand():
    f = _const_series([1, 1, 1, 1, 1])
    g = _const_series([1, 1])
    assert (f + g).truncation_order == 1
    assert (f * g).truncation_order == 1


def test_solver_reproduces_the_reference_table():
    profile = solve_profile_ivp(ProfileIVP())
    table = profile_series_table()
    for name, series in (("r", profile.r), ("x", profile.x), ("y", profile.y)):
        for n, expected in table[name].items():
            assert series[n] == expected, f"{name}[{n}] diverges"


def test_solution_satisfies_the_component_equations():
    """Back-substitution: each solved series obeys its second-order law."""
    profile = solve_profile_ivp(ProfileIVP())
    alpha = Polynomial.variable(V, "alpha")
    beta = Polynomial.variable(V, "beta")
    r2 = profile.r * profile.r
    x_rhs = shift_by_expansion_variable(alpha * r2)
    y_rhs = beta * r2
    r_rhs = profile.r + profile.c * r2
    c_rhs = profile.c
    pairs = (
        (profile.x.derivative().derivative(), x_rhs),
        (profile.y.derivative().derivative(), y_rhs),
        (profile.r.derivative().derivative(), r_rhs),
        (profile.c.derivative().derivative(), c_rhs),
    )
    for got, want in pairs:
        order = min(got.truncation_order, want.truncation_order)
        assert order >= 6
        for n in range(order + 1):
            assert got[n] == want[n]


def test_initial_coefficients_are_the_given_data():
    profile = solve_profile_ivp(ProfileIVP())
    names = ("r0", "r1", "c0", "c1")
    r0, r1, c0, c1 = (Polynomial.variable(V, n) for n in names)
    assert profile.r[0] == r0 and profile.r[1] == r1
    assert profile.c[0] == c0 and profile.c[1] == c1
    assert profile.x[0].is_zero()
    assert profile.x[1] == Polynomial.variable(V, "x1")
    assert profile.y[0].is_zero()
    assert profile.y[1] == Polynomial.variable(V, "y1")


def test_curvature_series_alternates_its_two_seeds():
    profile = solve_profile_ivp(ProfileIVP())
    c0 = Polynomial.variable(V, "c0")
    c1 = Polynomial.variable(V, "c1")
    for n in range(profile.c.truncation_order + 1):
        assert profile.c[n] == (c0 if n % 2 == 0 else c1)


def test_numeric_initial_data_is_accepted():
    profile = solve_profile_ivp(ProfileIVP(alpha=0, beta=0, c0=0, c1=0, r0=1, r1=0))
    # with no curvature the radius series is the even/odd indicator (cosh)
    for n in range(profile.r.truncation_order + 1):
        expected = Fraction(1) if n % 2 == 0 else Fraction(0)
        assert profile.r[n] == Polynomial.constant(V, expected)
    assert all(c.is_zero() for c in profile.c.coefficients)
    assert all(c.is_zero() for c in profile.x.coefficients[2:])


def test_symbolic_k_replaces_the_first_order_y_coefficient():
    kvar = Polynomial.variable(V, "k")
    profile = solve_profile_ivp(ProfileIVP(beta=0, k=kvar))
    assert profile.y[1] == kvar
    assert all(c.is_zero() for c in profile.y.coefficients[2:])


def test_truncation_order_floor():
    with pytest.raises(ValueError):
        ProfileIVP(truncation_order=7)
    deep = solve_profile_ivp(ProfileIVP(truncation_order=12))
    assert deep.r.truncation_order == 12


def test_quadratic_forced_component_solves_its_equation():
    alpha = Polynomial.variable(V, "alpha")
    x1 = Polynomial.variable(V, "x1")
    profile = solve_profile_ivp(ProfileIVP())
    forced = quadratic_forced_component(profile.r, alpha, x1)
    assert forced[0].is_zero()
    assert forced[1] == x1
    accel = forced.derivative().derivative()
    target = alpha * (profile.r * profile.r)
    order = min(accel.truncation_order, target.truncation_order)
    for n in range(order + 1):
        assert accel[n] == target[n]
