"""Univariate toolkit: Sturm chains, real-root counting, resultants.

Root counting works on polynomials that are univariate in fact (a single
variable occurs), whatever the ambient variable set.  Intervals are open,
with rational endpoints or +/- infinity (floats).  Resultants treat one
designated variable as the main one and the remaining variables as
coefficient symbols; the subresultant polynomial remainder sequence keeps
all arithmetic in the polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, exact_divide, monomial_degree

NEG_INFINITY = float("-inf")
POS_INFINITY = float("inf")
REAL_LINE = (NEG_INFINITY, POS_INFINITY)


class EndpointRootError(ValueError):
    """An interval endpoint is a root of the polynomial being counted."""


def univariate_name(f: Polynomial) -> str | None:
    """The single variable occurring in f, or None for a constant."""
    names = f.occurring_variables()
    if len(names) > 1:
        raise ValueError(f"not univariate: {list(names)} occur in {f}")
    return names[0] if names else None


def dense_coefficients(f: Polynomial, name: str) -> list[Fraction]:
    """[a0, a1, ..., an] with f = sum a_k name^k; [] for the zero polynomial."""
    if f.is_zero():
        return []
    idx = f.vars.index(name)
    coeffs = [Fraction(0)] * (max(e[idx] for e in f.terms) + 1)
    for exps, coeff in f.terms.items():
        rest = exps[:idx] + (0,) + exps[idx + 1:]
        if monomial_degree(rest):
            raise ValueError(f"not univariate in {name!r}: {f}")
        coeffs[exps[idx]] += coeff
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _from_dense(coeffs: list[Fraction], template: Polynomial, name: str) -> Polynomial:
    idx = template.vars.index(name)
    width = len(template.vars)
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            exps = [0] * width
            exps[idx] = k
            terms[tuple(exps)] = c
    return Polynomial(template.vars, terms)


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over Q, dense lists."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and r:
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        for i, bc in enumerate(b):
            r[i + shift] -= factor * bc
        while r and not r[-1]:
            r.pop()
    return r


def _dense_sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """f, f', then negated Euclidean remainders; f has degree at least one."""
    chain = [coeffs, [c * k for k, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def sturm_chain(f: Polynomial) -> list[Polynomial]:
    """Standard Sturm sequence: f, f', then negated Euclidean remainders."""
    if f.is_zero():
        raise ValueError("zero polynomial has no Sturm chain")
    name = univariate_name(f)
    if name is None:
        return [f]
    return [_from_dense(c, f, name) for c in _dense_sturm_chain(dense_coefficients(f, name))]


def _sign_at(coeffs: list[Fraction], point) -> int:
    if not coeffs:
        return 0
    if point == POS_INFINITY:
        lead = coeffs[-1]
        return 1 if lead > 0 else -1
    if point == NEG_INFINITY:
        lead = coeffs[-1]
        sign = 1 if lead > 0 else -1
        return sign if (len(coeffs) - 1) % 2 == 0 else -sign
    value = _horner(coeffs, Fraction(point))
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _variations(chains: list[list[Fraction]], point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chains) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(f: Polynomial, interval=REAL_LINE) -> int:
    """Distinct real roots of f in the open interval (a, b).

    Endpoints are rationals or +/- infinity.  A finite endpoint that is a
    root raises EndpointRootError.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no root count")
    lo, hi = interval
    if not (lo == NEG_INFINITY or isinstance(lo, (int, Fraction))):
        raise ValueError(f"bad lower endpoint {lo!r}")
    if not (hi == POS_INFINITY or isinstance(hi, (int, Fraction))):
        raise ValueError(f"bad upper endpoint {hi!r}")
    if lo != NEG_INFINITY and hi != POS_INFINITY and Fraction(lo) >= Fraction(hi):
        return 0
    name = univariate_name(f)
    if name is None:
        return 0
    coeffs = dense_coefficients(f, name)
    for endpoint in (lo, hi):
        if endpoint not in (NEG_INFINITY, POS_INFINITY) and not _horner(coeffs, Fraction(endpoint)):
            raise EndpointRootError(f"endpoint {endpoint} is a root of {f}")
    chain = _dense_sturm_chain(coeffs)
    return _variations(chain, lo) - _variations(chain, hi)


# -- resultants --------------------------------------------------------

def _strip(coeffs: list[Polynomial]) -> list[Polynomial]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _pseudo_rem(a: list[Polynomial], b: list[Polynomial]) -> list[Polynomial]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a = q*b + r."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    power = da - db + 1
    r = list(a)
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[i + shift] = r[i + shift] - top * bc
        _strip(r)
        power -= 1
    if power > 0:
        factor = lead ** power
        r = [factor * c for c in r]
    return r


def resultant_univariate(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """Resultant of f and g with respect to one variable.

    Computed by the subresultant polynomial remainder sequence; the result is
    returned un-normalized (callers primitive-normalize before comparing up
    to rational multiples).
    """
    f._check_same_vars(g)
    a = _strip(f.as_univariate_in(name))
    b = _strip(g.as_univariate_in(name))
    if not a or not b:
        return Polynomial.zero(f.vars)
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        raise ValueError(f"both inputs constant in {name!r}")
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2:
            sign = -sign
    one = Polynomial.constant(f.vars, 1)
    if db == 0:
        return sign * b[0] ** da
    g_coef = one
    h_coef = one
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        if ((len(a) - 1) % 2) and ((len(b) - 1) % 2):
            sign = -sign
        rem = _pseudo_rem(a, b)
        if not rem:
            return Polynomial.zero(f.vars)
        divisor = g_coef * h_coef ** delta
        a = b
        b = [exact_divide(c, divisor) for c in rem]
        g_coef = a[-1]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h_coef = g_coef
        else:
            h_coef = exact_divide(g_coef ** delta, h_coef ** (delta - 1))
        if len(b) - 1 == 0:
            break
    q = len(a) - 1
    if q == 1:
        res = b[0]
    else:
        res = exact_divide(b[0] ** q, h_coef ** (q - 1))
    return sign * res
