"""Shared fixtures and exact linear-algebra helpers for the test suite.

The expensive artifact (lex basis plus membership certificate for the
full-rotation system) is produced exactly once per session through the
command-line entry point; everything downstream re-reads it from disk.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from birot4.cases import check_all_cases
from birot4.cli import main
from birot4.constraints import NORMALIZED_VARS, extract_system
from birot4.certificate import certificate_from_document
from birot4.fixtures import CASE7_SYSTEM_TEXT, PROFILE_R_SERIES, PROFILE_X_SERIES, PROFILE_Y_SERIES
from birot4.groebner import basis_from_document
from birot4.poly import Polynomial, VariableSet, format_polynomial, parse_polynomial, variables
from birot4.series import INITIAL_DATA_VARS, ProfileIVP, solve_profile_ivp


@pytest.fixture(scope="session")
def certify_artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "certify.json"
    code = main(["certify", "--output", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="session")
def certify_artifact(certify_artifact_path):
    return json.loads(certify_artifact_path.read_text())


@pytest.fixture(scope="session")
def flagship_certificate(certify_artifact):
    return certificate_from_document(certify_artifact["payload"]["certificate"])


@pytest.fixture(scope="session")
def certify_artifact_v1(certify_artifact, flagship_certificate):
    """The certify artifact with its certificate in the @1 document format:
    each cofactor over its own rational coefficients, and no denominator."""
    artifact = json.loads(json.dumps(certify_artifact))
    document = artifact["payload"]["certificate"]
    document["format"] = "birot4/membership-certificate@1"
    del document["denominator"]
    document["cofactors"] = [format_polynomial(k) for k in flagship_certificate.cofactors]
    return artifact


@pytest.fixture(scope="session")
def certify_artifact_v1_path(certify_artifact_v1, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "certify-v1.json"
    path.write_text(json.dumps(certify_artifact_v1))
    return path


@pytest.fixture(scope="session")
def flagship_basis(certify_artifact):
    return basis_from_document(certify_artifact["payload"]["basis"])


@pytest.fixture(scope="session")
def case_reports(flagship_certificate):
    return check_all_cases(flagship_certificate)


@pytest.fixture(scope="session")
def profile_vii():
    return solve_profile_ivp(ProfileIVP())


@pytest.fixture(scope="session")
def system_vii(profile_vii):
    return extract_system(profile_vii, "VII")


# -- the transcribed reference tables -----------------------------------


def profile_series_table() -> dict[str, dict[int, Polynomial]]:
    """The transcribed profile coefficients, keyed by component then order."""
    return {name: {n: parse_polynomial(text, INITIAL_DATA_VARS) for n, text in table.items()}
            for name, table in (("r", PROFILE_R_SERIES), ("x", PROFILE_X_SERIES),
                                ("y", PROFILE_Y_SERIES))}


def case7_reference_system() -> dict[str, Polynomial]:
    """The transcribed system {E0, E2, ..., E6}; E0 is expanded from
    B*(B + p*u + t + t^2)^2 + A*p^2*(B + t^2) - A*B."""
    A, B, u, p, t = (Polynomial.variable(NORMALIZED_VARS, n) for n in NORMALIZED_VARS.names)
    system = {"E0": B * (B + p * u + t + t ** 2) ** 2 + A * p ** 2 * (B + t ** 2) - A * B}
    for label, text in CASE7_SYSTEM_TEXT.items():
        system[label] = parse_polynomial(text, NORMALIZED_VARS)
    return system


# -- randomized small ideals and the brute-force membership oracle ------


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the monomial a divides b, exponent by exponent."""
    return all(x <= y for x, y in zip(a, b))


def monomials_up_to(vars: VariableSet, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree at most ``degree``."""
    out: list[tuple[int, ...]] = []

    def fill(prefix: list[int], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            prefix.append(e)
            fill(prefix, remaining - 1, budget - e)
            prefix.pop()

    fill([], len(vars), degree)
    return out


def random_polynomial(rng, vars: VariableSet, degree: int,
                      coeff_range: int = 3) -> Polynomial:
    """Nonzero polynomial with small integer coefficients."""
    while True:
        terms = {}
        for mono in monomials_up_to(vars, degree):
            if rng.random() < 0.4:
                coeff = rng.randint(-coeff_range, coeff_range)
                if coeff:
                    terms[mono] = Fraction(coeff)
        if terms:
            return Polynomial(vars, terms)


def random_small_ideal(rng) -> tuple[VariableSet, tuple[Polynomial, ...]]:
    """Two or three degree-at-most-two generators in three variables."""
    vars = variables("x", "y", "z")
    count = rng.choice((2, 3))
    gens = tuple(random_polynomial(rng, vars, rng.choice((1, 2))) for _ in range(count))
    return vars, gens


def _system_is_consistent(rows: list[list[Fraction]]) -> bool:
    """Gaussian elimination over Q on an augmented matrix; True iff solvable."""
    if not rows:
        return True
    n_cols = len(rows[0]) - 1
    pivot_row = 0
    for col in range(n_cols):
        found = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return all(any(row[:-1]) or not row[-1] for row in rows)


def oracle_is_member(target: Polynomial, generators) -> bool:
    """Bounded-degree membership test by exact linear algebra.

    Searches for cofactors h_i with deg(h_i) <= deg(target) - deg(g_i)
    such that sum(h_i * g_i) = target.  Against a degree-graded Groebner
    basis this bound is complete: a zero normal form yields cofactors
    obeying it, so the search succeeds exactly when reduction does.
    """
    vars = target.vars
    bound = max(target.total_degree(), 0)
    columns: list[tuple[int, tuple[int, ...]]] = []
    for gi, g in enumerate(generators):
        room = bound - g.total_degree()
        if room < 0:
            continue
        for mono in monomials_up_to(vars, room):
            columns.append((gi, mono))
    row_monos = monomials_up_to(vars, bound)
    row_pos = {mono: i for i, mono in enumerate(row_monos)}
    matrix = [[Fraction(0)] * (len(columns) + 1) for _ in row_monos]
    for ci, (gi, mono) in enumerate(columns):
        shifted = Polynomial(vars, {mono: Fraction(1)}) * generators[gi]
        for exps, coeff in shifted.terms.items():
            matrix[row_pos[exps]][ci] = coeff
    for exps, coeff in target.terms.items():
        if exps not in row_pos:
            return False
        matrix[row_pos[exps]][-1] = coeff
    return _system_is_consistent(matrix)
