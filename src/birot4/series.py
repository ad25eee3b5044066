"""Truncated Taylor series in one expansion variable with polynomial coefficients.

Coefficients live in an exact polynomial ring over the initial data of the
profile-curve ODE system and follow the exponential convention: the series
is sum of c[n] * tau^n / n!.  Products therefore convolve with binomial
weights and differentiation is a plain index shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .poly import Polynomial, VariableSet, variables

INITIAL_DATA_NAMES = ("r0", "r1", "c0", "c1", "alpha", "beta", "k", "x1", "y1")
INITIAL_DATA_VARS = variables(*INITIAL_DATA_NAMES)


def _as_coefficient(vars: VariableSet, value) -> Polynomial:
    if isinstance(value, Polynomial):
        if value.vars != vars:
            raise ValueError("coefficient variable set differs from series")
        return value
    return Polynomial.constant(vars, value)


@dataclass(frozen=True)
class TruncatedSeries:
    """Exponential-convention series sum(c[n] * tau^n / n!) for n = 0..N."""

    vars: VariableSet
    coefficients: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("series needs at least the order-0 coefficient")
        for c in self.coefficients:
            if c.vars != self.vars:
                raise ValueError("coefficient variable set differs from series")

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Polynomial:
        return self.coefficients[n]

    @staticmethod
    def constant(vars: VariableSet, value, order: int) -> TruncatedSeries:
        head = [_as_coefficient(vars, value)]
        head.extend(Polynomial.zero(vars) for _ in range(order))
        return TruncatedSeries(vars, tuple(head))

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch between series")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        n = min(self.truncation_order, other.truncation_order)
        return TruncatedSeries(self.vars, tuple(
            self.coefficients[i] + other.coefficients[i] for i in range(n + 1)))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        n = min(self.truncation_order, other.truncation_order)
        return TruncatedSeries(self.vars, tuple(
            self.coefficients[i] - other.coefficients[i] for i in range(n + 1)))

    def __mul__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        scale = _as_coefficient(self.vars, other)
        return TruncatedSeries(self.vars, tuple(c * scale for c in self.coefficients))

    __rmul__ = __mul__

    def derivative(self) -> TruncatedSeries:
        return series_derivative(self)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Binomial convolution: (fg)[n] = sum of C(n,j) * f[j] * g[n-j]."""
    f._check_compatible(g)
    order = min(f.truncation_order, g.truncation_order)
    coeffs = []
    for n in range(order + 1):
        acc = Polynomial.zero(f.vars)
        for j in range(n + 1):
            acc = acc + comb(n, j) * (f.coefficients[j] * g.coefficients[n - j])
        coeffs.append(acc)
    return TruncatedSeries(f.vars, tuple(coeffs))


def series_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Index shift (f')[n] = f[n+1]; the truncation order drops by one."""
    if f.truncation_order < 1:
        raise ValueError("cannot differentiate an order-0 series")
    return TruncatedSeries(f.vars, f.coefficients[1:])


def shift_by_expansion_variable(f: TruncatedSeries) -> TruncatedSeries:
    """Multiply by the expansion variable: (tau*f)[n] = n * f[n-1]."""
    coeffs = [Polynomial.zero(f.vars)]
    for n in range(1, f.truncation_order + 1):
        coeffs.append(n * f.coefficients[n - 1])
    return TruncatedSeries(f.vars, tuple(coeffs))


@dataclass(frozen=True)
class ProfileIVP:
    """Initial data for the profile-curve system.

    The system solved is x'' = alpha*tau*r^2, y'' = beta*r^2, r'' = r + c*r^2,
    c'' = c, with symbolic initial coefficients in INITIAL_DATA_VARS.  alpha
    and beta may be ring symbols or rational constants; k names the symbol
    used for the constant first-order y-coefficient when that role is played
    by a dedicated symbol rather than y1.  ``constraints.case_profile``
    specializes this system to each case's rotation data.
    """

    alpha: object = None
    beta: object = None
    k: object = None
    r0: object = None
    r1: object = None
    c0: object = None
    c1: object = None
    truncation_order: int = 10

    def __post_init__(self) -> None:
        if self.truncation_order < 8:
            raise ValueError("truncation order below 8 cannot reach the needed coefficients")

    def _resolved(self, value, default_name: str) -> Polynomial:
        if value is None:
            return Polynomial.variable(INITIAL_DATA_VARS, default_name)
        return _as_coefficient(INITIAL_DATA_VARS, value)


@dataclass(frozen=True)
class ProfileSolution:
    """Solved component series of one profile initial-value problem.

    r_squared is r^2 through order two below r's: all that x'' and y'' read.
    """

    x: TruncatedSeries
    y: TruncatedSeries
    r: TruncatedSeries
    c: TruncatedSeries
    r_squared: TruncatedSeries
    ivp: "ProfileIVP" = None

    def resolved_alpha(self) -> Polynomial:
        return self.ivp._resolved(self.ivp.alpha, "alpha")

    def resolved_beta(self) -> Polynomial:
        return self.ivp._resolved(self.ivp.beta, "beta")


def forced_by_square(vars: VariableSet, square, factor, initial_slope) -> TruncatedSeries:
    """Solve w'' = factor * s with w(0) = 0 and w'(0) = initial_slope.

    square holds the coefficients s[0], s[1], ... of s, and w has two more.
    factor and initial_slope may be symbols (by Polynomial) or rationals.
    """
    factor = _as_coefficient(vars, factor)
    slope = _as_coefficient(vars, initial_slope)
    return TruncatedSeries(vars, (Polynomial.zero(vars), slope, *(factor * s for s in square)))


def solve_profile_ivp(ivp: ProfileIVP) -> ProfileSolution:
    """Solve the profile system by recurrence up to the truncation order.

    Recurrences in exponential convention: c[n+2] = c[n]; r[n+2] = r[n] +
    (c*r^2)[n]; x[n+2] = alpha * n * (r^2)[n-1]; y[n+2] = beta * (r^2)[n].
    x[0] and y[0] are zero (only derivatives of x and y matter) and x[1],
    y[1] stay symbolic.
    """
    vars = INITIAL_DATA_VARS
    n_max = ivp.truncation_order
    zero = Polynomial.zero(vars)
    alpha = ivp._resolved(ivp.alpha, "alpha")
    beta = ivp._resolved(ivp.beta, "beta")
    y1 = ivp._resolved(ivp.k, "y1")
    x1 = Polynomial.variable(vars, "x1")

    c = [ivp._resolved(ivp.c0, "c0"), ivp._resolved(ivp.c1, "c1")]
    r = [ivp._resolved(ivp.r0, "r0"), ivp._resolved(ivp.r1, "r1")]
    r2: list[Polynomial] = []
    for n in range(n_max - 1):
        # (r^2)[n] = sum C(n, j)*r[j]*r[n-j]: each pair j < n - j once, doubled,
        # then the middle term j = n/2 once for even n
        pairs = sum((comb(n, j) * (r[j] * r[n - j]) for j in range((n + 1) // 2)), zero)
        middle = comb(n, n // 2) * (r[n // 2] * r[n // 2]) if n % 2 == 0 else zero
        r2.append(2 * pairs + middle)
        cr2_n = sum((comb(n, j) * (c[j] * r2[n - j]) for j in range(n + 1)), zero)
        c.append(c[n])
        r.append(r[n] + cr2_n)

    x = [zero, x1]
    for n in range(n_max - 1):
        x.append(alpha * (n * r2[n - 1]) if n >= 1 else zero)

    return ProfileSolution(
        x=TruncatedSeries(vars, tuple(x)),
        y=forced_by_square(vars, r2, beta, y1),
        r=TruncatedSeries(vars, tuple(r)),
        c=TruncatedSeries(vars, tuple(c)),
        r_squared=TruncatedSeries(vars, tuple(r2)),
        ivp=ivp,
    )


def quadratic_forced_component(r: TruncatedSeries, factor, initial_slope) -> TruncatedSeries:
    """Solve w'' = factor * r^2 with w(0) = 0 and w'(0) = initial_slope.

    Covers component equations whose forcing is the squared radius without
    the extra expansion-variable factor; w has r's order.  A solved profile
    carries its r^2 (``ProfileSolution.r_squared``) for ``forced_by_square``.
    """
    square = (r * r).coefficients[:r.truncation_order - 1]
    return forced_by_square(r.vars, square, factor, initial_slope)


__all__ = [
    "INITIAL_DATA_NAMES",
    "INITIAL_DATA_VARS",
    "ProfileIVP",
    "ProfileSolution",
    "TruncatedSeries",
    "forced_by_square",
    "quadratic_forced_component",
    "series_derivative",
    "series_mul",
    "shift_by_expansion_variable",
    "solve_profile_ivp",
]
