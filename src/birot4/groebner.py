"""Buchberger's algorithm with provenance-tracked membership certificates.

With provenance on, the basis computation appends one node per new element
to a linear ``ProvenanceTrace``: the element's primitive-normalisation scalar
and its parents, each a (multiplier, earlier node) pair.  An S-pair reduction
has the parents ``u``, ``-v`` and ``-q_m``; an inter-reduction step has ``1``
and ``-q``.  The generators are the trace's leaves.  A membership certificate
for a target reduces it against the basis, seeds each final node with its
quotient, and contracts the trace backward once to reach the cofactors at the
leaves; verification re-expands the combination and checks the identity
exactly.  The forward rows (each element over the generators) are built from
the trace only when read.

The hot loops (division, S-polynomials, the pair criteria, the backward
contraction and the re-expansion in ``MembershipCertificate.verify``) run on
a kernel form instead of ``Fraction`` coefficients and exponent tuples:

* Monomials are packed into one int (``_Packing``), one guarded bit field
  per variable, so a product is an addition and divisibility one masked
  subtraction.  The field width comes from the input's largest exponent;
  an exponent that outgrows it raises ``_Overflow`` and the computation
  starts over with fields twice as wide, so no exponent ever wraps.
* Coefficients are integer numerators over one common denominator.  The
  division (``_reduce_terms``) scales the remainder by lc/gcd(a, lc) where
  a step needs it and then divides out the remainder's content.

Polynomials are packed on the way in and unpacked on the way out, so every
public function takes and returns ``Polynomial`` values as before, with the
same results.
"""

from __future__ import annotations

import heapq
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    VariableSet,
    eliminate_linear,
    exact_divide,
    format_polynomial,
    monomial_div,
    monomial_lcm,
    monomial_mul,
    parse_polynomial,
    primitive_normalize,
)

BASIS_FORMAT = "birot4/groebner-basis@1"
CERTIFICATE_FORMAT = "birot4/membership-certificate@1"

_ENV_MAX_PAIRS = "BIROT4_MAX_PAIRS"


class ResourceCapExceeded(RuntimeError):
    """The configured S-pair processing cap was hit before completion."""


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of an ideal with the ring data needed to compute with it."""

    vars: VariableSet
    order: MonomialOrder
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.vars != self.vars:
                raise ValueError("generator variable set differs from presentation")
            if g.is_zero():
                raise ValueError("zero generator")


# -- the integer, packed-monomial kernel -------------------------------

class _Overflow(Exception):
    """A packed exponent outgrew its field; the caller widens and retries."""


_MIN_WIDTH = 8  # bits per field at least, so small inputs rarely restart


class _Packing:
    """Exponent tuples packed into one int, laid out for a monomial order.

    Each variable owns a field of ``width`` bits.  Packed inputs and every
    factor of a product have exponents below ``2**(width - 2)`` (``fits``),
    so a product's fields stay below the field's top bit, its guard:
    multiplying monomials is adding ints, and ``a`` divides ``b`` iff
    ``(b - a) & guard == 0``, because a field of ``b`` smaller than ``a``'s
    borrows into its own guard bit.  An exponent that would break the bound
    raises ``_Overflow``; the caller then doubles the width and starts over,
    so nothing ever wraps.

    Under lex the first variable takes the top field and packed ints compare
    as the monomials do.  Under grevlex the fields run from the last variable
    (highest) down to the first, below an unbounded field holding the total
    degree; the sort key is the degree part minus the variable part.

    The kernel keys terms by their *handle*, the negated sort key: heapq pops
    the smallest handle first, which is the leading term, and the key is
    additive, so the handle of a product is the sum of the two handles.
    """

    def __init__(self, order: MonomialOrder, n: int, width: int):
        self.order, self.n, self.width = order, n, width
        graded = order.kind == "grevlex"
        self.offsets = [(i if graded else n - 1 - i) * width for i in range(n)]
        self.split = n * width if graded else 0  # the degree field starts here
        self.degree_unit = 1 << self.split if graded else 0
        self.variables = (1 << n * width) - 1
        self.guard = sum(1 << off + width - 1 for off in self.offsets)
        self.field = (1 << width - 1) - 1

    @classmethod
    def fitting(cls, order: MonomialOrder, n: int, polys) -> "_Packing":
        top = max((max(e, default=0) for p in polys for e in p.terms), default=0)
        return cls(order, n, max(_MIN_WIDTH, top.bit_length() + 2))

    def wider(self) -> "_Packing":
        return _Packing(self.order, self.n, 2 * self.width)

    def pack(self, exps) -> int:
        if max(exps, default=0) >> self.width - 2:
            raise _Overflow
        return sum(e << off for e, off in zip(exps, self.offsets)) + sum(exps) * self.degree_unit

    def exponents(self, m: int) -> tuple[int, ...]:
        return tuple(m >> off & self.field for off in self.offsets)

    def fits(self, m: int) -> bool:
        """True when m may be a factor of a product: no field at half range."""
        return not m & self.guard >> 1

    def handle(self, m: int) -> int:
        low = m & (1 << self.split) - 1
        return 2 * low - m

    def monomial(self, h: int) -> int:
        return h - (h >> self.split << self.split + 1)

    def degree(self, m: int) -> int:
        return m >> self.split if self.degree_unit else sum(self.exponents(m))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum; a field of (a | guard) - b keeps its guard iff a >= b."""
        a, b = a & self.variables, b & self.variables
        a_wins = ((a | self.guard) - b & self.guard) >> self.width - 1
        mask = a_wins * self.field
        v = a & mask | b & ~mask
        return v + sum(self.exponents(v)) * self.degree_unit


def _scaled(pk: _Packing, polys) -> tuple[list[dict[int, int]], int]:
    """Integer numerators keyed by handle over one common denominator."""
    den = 1
    for p in polys:
        for c in p.terms.values():
            den = lcm(den, c.denominator)
    return [{pk.handle(pk.pack(e)): c.numerator * (den // c.denominator)
             for e, c in p.terms.items()} for p in polys], den


def _with_room(pk: _Packing, attempt):
    """attempt(pk), widened until no packed exponent overflows."""
    while True:
        try:
            return attempt(pk)
        except _Overflow:
            pk = pk.wider()


class _Reducer:
    """A divisor in kernel form: (lc * x^lead + tail) / scale.

    ``terms`` maps handles to integer numerators; ``lc > 0``, and ``tail``
    lists the other (handle, numerator) pairs.  ``lead`` is the packed
    leading monomial, ``handle`` its handle.
    """

    __slots__ = ("terms", "handle", "lead", "lc", "tail", "scale")

    def __init__(self, pk: _Packing, terms: dict[int, int], scale: int = 1):
        self.handle = min(terms)
        if terms[self.handle] < 0:
            terms, scale = {h: -c for h, c in terms.items()}, -scale
        if not all(pk.fits(pk.monomial(h)) for h in terms):
            raise _Overflow
        self.terms, self.scale = terms, scale
        self.lead, self.lc = pk.monomial(self.handle), terms[self.handle]
        self.tail = [(h, c) for h, c in terms.items() if h != self.handle]

    @classmethod
    def of(cls, pk: _Packing, p: Polynomial) -> "_Reducer":
        (terms,), den = _scaled(pk, [p])
        return cls(pk, terms, den)


def _reduce_terms(pk: _Packing, work: dict[int, int], den: int, reducers: list[_Reducer],
                  want_quotients: bool):
    """Divide work/den by the reducers; see ``reduce`` for the contract.

    The remainder stays integer numerators over the one denominator ``den``.
    A step takes the leading term a/den and the first reducer whose lead
    divides it, with g = gcd(a, lc): it scales the remainder and den by
    lc/g, which makes the cancelling multiple integral, and subtracts (a/g)
    times the shifted tail.  A step that scaled then divides the remainder
    and den by their common content, which keeps the numbers near the size
    of the reduced fractions.  A lazy min-heap of handles drives the scan; a
    handle popped after its term cancelled is skipped.

    Returns (normal form numerators, their common denominator, quotients
    keyed by handle, or None).
    """
    guard, split, split1 = pk.guard, pk.split, pk.split + 1
    leads = [r.lead for r in reducers]
    heap = list(work)
    heapq.heapify(heap)
    normal: list[tuple[int, int, int]] = []
    quotients: list[dict[int, Fraction]] | None = (
        [{} for _ in reducers] if want_quotients else None)
    while heap:
        h = heapq.heappop(heap)
        a = work.pop(h, None)
        if a is None:
            continue  # stale entry
        m = h - (h >> split << split1)
        for idx, lead in enumerate(leads):
            q = m - lead
            if q & guard:
                continue
            if not pk.fits(q):
                raise _Overflow
            r = reducers[idx]
            hq = h - r.handle
            if quotients is not None:
                quotients[idx][hq] = Fraction(a * r.scale, den * r.lc)
            g = gcd(a, r.lc)
            scale = r.lc // g
            if scale != 1:
                work = {k: v * scale for k, v in work.items()}
                den *= scale
            a //= g
            for e, c in r.tail:
                k = hq + e
                v = work.get(k)
                if v is None:
                    work[k] = -a * c
                    heapq.heappush(heap, k)
                else:
                    v -= a * c
                    if v:
                        work[k] = v
                    else:
                        del work[k]
            if scale != 1 and work:
                content = gcd(den, *work.values())
                if content != 1:
                    work = {k: v // content for k, v in work.items()}
                    den //= content
            break
        else:
            normal.append((h, a, den))
    den = lcm(1, *(d for _, _, d in normal))
    return {h: a * (den // d) for h, a, d in normal}, den, quotients


def _primitive(terms: dict[int, int], den: int) -> tuple[dict[int, int], Fraction]:
    """(primitive numerators with a positive lead, s) where the first is s * terms/den."""
    g = gcd(*terms.values())
    if terms[min(terms)] < 0:
        g = -g
    return {h: a // g for h, a in terms.items()}, Fraction(den, g)


def _unpacked(pk: _Packing, vars: VariableSet, terms: dict) -> Polynomial:
    """The Polynomial of coefficients keyed by handle."""
    return Polynomial(vars, {pk.exponents(pk.monomial(h)): c for h, c in terms.items()})


# -- provenance, bases and certificates ---------------------------------


class ProvenanceTrace:
    """Linear record of how polynomials arose from a fixed list of generators.

    Nodes ``0 .. n_generators - 1`` are the generators.  Each later node
    stands for ``scalar * sum(m * value(p) for m, p in parents)``, and every
    parent precedes its child, so the list is in topological order.
    """

    def __init__(self, vars: VariableSet, n_generators: int):
        self.vars = vars
        self.n_generators = n_generators
        self.nodes: list[tuple[Fraction, list[tuple[Polynomial, int]]]] = (
            [(Fraction(1), [])] * n_generators)

    @classmethod
    def from_rows(cls, vars: VariableSet, n_generators: int,
                  rows: list[list[Polynomial]]) -> tuple["ProvenanceTrace", list[int]]:
        """A one-level trace whose node k is sum(rows[k][i] * generator_i)."""
        trace = cls(vars, n_generators)
        nodes = [trace.add(Fraction(1), [(c, i) for i, c in enumerate(row) if not c.is_zero()])
                 for row in rows]
        return trace, nodes

    def add(self, scalar: Fraction, parents: list[tuple[Polynomial, int]]) -> int:
        self.nodes.append((scalar, parents))
        return len(self.nodes) - 1

    def contract(self, seeds: list[tuple[int, Polynomial]]) -> list[Polynomial]:
        """Cofactors K with sum(K_i * generator_i) == sum(q * value(node)) over seeds.

        One reverse sweep: each node's adjoint, times its scalar and each
        parent multiplier, is added into that parent's adjoint.  Adjoints
        are integer numerators over one denominator each, on packed
        monomials as in the division kernel; only the cofactors become
        Polynomials.  ``rows`` computes the same map forward on plain terms.
        """
        multipliers = [m for _, parents in self.nodes for m, _ in parents]

        def attempt(pk: _Packing) -> list[Polynomial]:
            adjoint: dict[int, tuple[dict[int, int], int]] = {}
            for node, q in seeds:
                (terms,), den = _scaled(pk, [q])
                _accumulate(adjoint, node, terms, {0: 1}, den)  # {0: 1} is the constant 1
            for k in range(len(self.nodes) - 1, self.n_generators - 1, -1):
                terms, den = adjoint.pop(k, ({}, 1))
                if not terms:
                    continue
                if not all(pk.fits(pk.monomial(h)) for h in terms):
                    raise _Overflow
                content = gcd(den, *terms.values())
                if content != 1:
                    terms, den = {h: c // content for h, c in terms.items()}, den // content
                scalar, parents = self.nodes[k]
                for m, p in parents:
                    (factor,), m_den = _scaled(pk, [m])
                    _accumulate(adjoint, p, terms,
                                {h: c * scalar.numerator for h, c in factor.items()},
                                den * m_den * scalar.denominator)
            cofactors = []
            for i in range(self.n_generators):
                terms, den = adjoint.get(i, ({}, 1))
                cofactors.append(_unpacked(pk, self.vars,
                                           {h: Fraction(c, den) for h, c in terms.items()}))
            return cofactors

        return _with_room(_Packing.fitting(LEX, len(self.vars), [q for _, q in seeds] + multipliers),
                          attempt)

    def rows(self, nodes: list[int]) -> list[list[Polynomial]]:
        """Each node's value as a row of cofactors over the generators."""
        needed = set(nodes)
        for k in range(max(nodes, default=-1), self.n_generators - 1, -1):
            if k in needed:
                needed.update(p for _, p in self.nodes[k][1])
        one = {(0,) * len(self.vars): Fraction(1)}
        built: dict[int, list[dict]] = {}
        for k in sorted(needed):
            if k < self.n_generators:
                built[k] = [one if i == k else {} for i in range(self.n_generators)]
                continue
            scalar, parents = self.nodes[k]
            row: list[dict] = [{} for _ in range(self.n_generators)]
            for m, p in parents:
                scaled = {e: c * scalar for e, c in m.terms.items()}
                for acc, src in zip(row, built[p]):
                    _add_product(acc, scaled, src)
            built[k] = row
        return [[Polynomial(self.vars, terms) for terms in built[k]] for k in nodes]


def _add_product(acc: dict, f: dict, g: dict) -> None:
    """acc += f * g on raw term dicts, dropping terms that cancel."""
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            k = monomial_mul(e1, e2)
            if k in acc:
                total = acc[k] + c1 * c2
                if total:
                    acc[k] = total
                else:
                    del acc[k]
            else:
                acc[k] = c1 * c2


def _accumulate(adjoint: dict, node: int, f: dict[int, int], g: dict[int, int], den: int) -> None:
    """adjoint[node] += f * g / den, on (numerators by handle, denominator) pairs.

    The product is formed before it is brought to the common denominator,
    so the rescaling costs one multiplication per product term, not one per
    pair of factor terms.
    """
    product: dict[int, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    acc, acc_den = adjoint.get(node, ({}, den))
    common = lcm(acc_den, den)
    if common != acc_den:
        acc = {h: c * (common // acc_den) for h, c in acc.items()}
    scale = common // den
    for k, v in product.items():
        v = acc.get(k, 0) + v * scale
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    adjoint[node] = (acc, common)


@dataclass
class GroebnerBasis:
    """A reduced basis, with its provenance when it was tracked.

    ``trace`` is None without provenance; otherwise element k equals the
    value of trace node ``nodes[k]``, and ``provenance`` builds each
    element's row of cofactors over the presentation's generators from the
    trace when read.
    """

    presentation: IdealPresentation
    elements: list[Polynomial]
    trace: ProvenanceTrace | None
    nodes: list[int] | None
    stats: dict = field(default_factory=dict)

    @property
    def provenance(self) -> list[list[Polynomial]] | None:
        if self.trace is None:
            return None
        return self.trace.rows(self.nodes)

    @property
    def order(self) -> MonomialOrder:
        return self.presentation.order

    def leading_monomials(self) -> list[tuple[int, ...]]:
        return [g.leading_monomial(self.order) for g in self.elements]


@dataclass
class MembershipCertificate:
    """target = sum(cofactors[i] * generators[i]) + remainder, exactly."""

    target: Polynomial
    generators: tuple[Polynomial, ...]
    cofactors: list[Polynomial]
    remainder: Polynomial

    @property
    def is_member(self) -> bool:
        return self.remainder.is_zero()

    def verify(self) -> bool:
        """True iff sum(cofactors[i] * generators[i]) + remainder == target.

        This re-expansion is the trusted check: nothing that found the
        certificate is trusted.  It runs in plain integers.  Each group is
        written over its common denominator: the cofactors as K_i/k, the
        generators as G_i/g, the remainder and the target as R/t and T/t.
        The identity holds iff t * sum(K_i * G_i) == k * g * (T - R), term
        by term.  Monomials are packed with fields wide enough for every
        product (``_Packing.fitting``), so the packing is one-to-one and
        multiplying two monomials is adding two ints.
        """
        vars = self.target.vars
        polys = [*self.cofactors, *self.generators, self.remainder]
        if any(p.vars != vars for p in polys):
            raise ValueError("certificate polynomials use different variable sets")
        pk = _Packing.fitting(LEX, len(vars), polys + [self.target])
        cofactors, k = _scaled(pk, self.cofactors)
        generators, g = _scaled(pk, self.generators)
        (remainder, target), t = _scaled(pk, [self.remainder, self.target])
        acc: dict[int, int] = {}
        for cof, gen in zip(cofactors, generators):
            for e1, c1 in cof.items():
                for e2, c2 in gen.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        lhs = {e: c * t for e, c in acc.items() if c}
        rhs = {e: (target.get(e, 0) - remainder.get(e, 0)) * k * g
               for e in target.keys() | remainder.keys()}
        return lhs == {e: c for e, c in rhs.items() if c}


def reduce(f: Polynomial, basis: list[Polynomial], order: MonomialOrder) -> tuple[Polynomial, list[Polynomial]]:
    """Full multivariate division: returns (normal form, quotients).

    Deterministic: the highest remaining term is reduced against the first
    basis element whose leading term divides it; irreducible terms drop into
    the normal form.  f == sum(q_i*basis_i) + normal form holds exactly, and
    no term of the normal form is divisible by any basis leading term.

    The division runs in integers over one common denominator on packed
    monomials (``_reduce_terms``, ``_Packing``); the results are unpacked
    back to exponent tuples and rationals.
    """
    for b in basis:
        if b.is_zero():
            raise ValueError("zero divisor polynomial in basis")

    def attempt(pk: _Packing):
        (work,), den = _scaled(pk, [f])
        normal, den, quotients = _reduce_terms(pk, work, den, [_Reducer.of(pk, b) for b in basis],
                                               True)
        return (_unpacked(pk, f.vars, {h: Fraction(a, den) for h, a in normal.items()}),
                [_unpacked(pk, f.vars, q) for q in quotients])

    return _with_room(_Packing.fitting(order, len(f.vars), [f, *basis]), attempt)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """Cross-scaled difference cancelling both leading terms."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s-polynomial of a zero polynomial")
    lm_f, lm_g = f.leading_monomial(order), g.leading_monomial(order)
    lc_f, lc_g = f.terms[lm_f], g.terms[lm_g]
    lcm = monomial_lcm(lm_f, lm_g)
    u = Polynomial(f.vars, {monomial_div(lcm, lm_f): lc_g})
    v = Polynomial(f.vars, {monomial_div(lcm, lm_g): lc_f})
    return u * f - v * g


def _s_terms(pk: _Packing, ri: _Reducer, ui: int, rj: _Reducer, uj: int) -> dict[int, int]:
    """lc_j * x^ui * f_i - lc_i * x^uj * f_j, leads cancelled, for reducers of scale 1."""
    if not (pk.fits(ui) and pk.fits(uj)):
        raise _Overflow
    hi, hj = pk.handle(ui), pk.handle(uj)
    out = {hi + h: rj.lc * c for h, c in ri.tail}
    for h, c in rj.tail:
        k = hj + h
        v = out.get(k, 0) - ri.lc * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def buchberger(presentation: IdealPresentation, track_provenance: bool = True,
               max_pairs: int | None = None, *, trace: ProvenanceTrace | None = None,
               leaves: list[int] | None = None) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with the normal pair strategy.

    Pairs are processed by smallest lcm under the graded refinement of the
    order; coprime leading terms and chain-criterion pairs are skipped.
    Every intermediate result is primitive-normalized.  The returned basis
    is reduced (monic-primitive, mutually irreducible) and sorted descending
    by leading monomial, so it is unique for the ideal and order.

    Elements live in kernel form (``_Reducer``) while the search runs: the
    S-polynomials, the pair lcms and both criteria work on packed monomials
    and integer coefficients.  If an exponent outgrows the packing, the
    search starts over with wider fields.

    With provenance, every new element appends a node to ``trace``.  By
    default a fresh trace is started whose leaves are the generators; a
    caller continuing an earlier trace passes it with ``leaves``, the node
    of each generator in it.
    """
    if max_pairs is None:
        env = os.environ.get(_ENV_MAX_PAIRS)
        max_pairs = int(env) if env else None
    n_gens = len(presentation.generators)
    if not track_provenance:
        trace = None
    elif trace is None:
        trace, leaves = ProvenanceTrace(presentation.vars, n_gens), list(range(n_gens))
    elif leaves is None or len(leaves) != n_gens:
        raise ValueError("a continued trace needs one leaf node per generator")
    size = len(trace.nodes) if trace is not None else 0

    def attempt(pk: _Packing) -> GroebnerBasis:
        if trace is not None:
            del trace.nodes[size:]  # what an overflowed attempt appended
        return _buchberger(presentation, pk, max_pairs, trace, leaves)

    pk = _Packing.fitting(presentation.order, len(presentation.vars), presentation.generators)
    return _with_room(pk, attempt)


def _buchberger(presentation: IdealPresentation, pk: _Packing, max_pairs: int | None,
                trace: ProvenanceTrace | None, leaves: list[int] | None) -> GroebnerBasis:
    vars = presentation.vars
    one = Polynomial.constant(vars, 1)
    reducers: list[_Reducer] = []
    nodes: list[int] = []
    for i, g in enumerate(presentation.generators):
        norm, scalar = primitive_normalize(g, presentation.order)
        reducers.append(_Reducer.of(pk, norm))
        if trace is not None:
            nodes.append(trace.add(scalar, [(one, leaves[i])]))

    pending: dict[tuple[int, int], int] = {}
    pair_heap: list[tuple] = []

    def push_pairs(new_index: int) -> None:
        lead = reducers[new_index].lead
        for i in range(new_index):
            lcm = pk.lcm(reducers[i].lead, lead)
            pending[(i, new_index)] = lcm
            heapq.heappush(pair_heap, (pk.degree(lcm), -pk.handle(lcm), i, new_index))

    for idx in range(1, len(reducers)):
        push_pairs(idx)

    stats = {"pairs_considered": 0, "pairs_reduced": 0,
             "skipped_coprime": 0, "skipped_chain": 0, "basis_additions": 0}
    guard = pk.guard

    while pair_heap:
        _, _, i, j = heapq.heappop(pair_heap)
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue
        stats["pairs_considered"] += 1
        if max_pairs is not None and stats["pairs_considered"] > max_pairs:
            raise ResourceCapExceeded(f"more than {max_pairs} S-pairs")
        ri, rj = reducers[i], reducers[j]
        if lcm == ri.lead + rj.lead:
            stats["skipped_coprime"] += 1
            continue
        chain = False
        for k, rk in enumerate(reducers):
            if k == i or k == j or (lcm - rk.lead) & guard:
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                chain = True
                break
        if chain:
            stats["skipped_chain"] += 1
            continue
        ui, uj = lcm - ri.lead, lcm - rj.lead
        normal, den, quotients = _reduce_terms(pk, _s_terms(pk, ri, ui, rj, uj), 1, reducers,
                                               trace is not None)
        if not normal:
            continue
        normalized, scalar = _primitive(normal, den)
        if trace is not None:
            parents = [(Polynomial(vars, {pk.exponents(ui): Fraction(rj.lc)}), nodes[i]),
                       (Polynomial(vars, {pk.exponents(uj): Fraction(-ri.lc)}), nodes[j])]
            parents += _negated_quotients(pk, vars, quotients, nodes)
            nodes.append(trace.add(scalar, parents))
        reducers.append(_Reducer(pk, normalized))
        stats["pairs_reduced"] += 1
        stats["basis_additions"] += 1
        push_pairs(len(reducers) - 1)

    elements, final_nodes = _reduce_basis(pk, reducers, nodes if trace is not None else None,
                                          trace, vars)
    return GroebnerBasis(presentation, elements, trace, final_nodes, stats)


def _negated_quotients(pk: _Packing, vars: VariableSet, quotients: list[dict],
                       nodes: list[int]) -> list[tuple[Polynomial, int]]:
    """Trace parents (-q, node) for the nonzero division quotients."""
    return [(_unpacked(pk, vars, {h: -c for h, c in q.items()}), node)
            for q, node in zip(quotients, nodes) if q]


def _reduce_basis(pk: _Packing, reducers: list[_Reducer], nodes: list[int] | None,
                  trace: ProvenanceTrace | None, vars: VariableSet):
    """Minimalize then interreduce; appends a trace node per rewritten element."""
    indices = sorted(range(len(reducers)), key=lambda i: -reducers[i].handle)
    kept: list[int] = []
    for i in indices:
        if any(not (reducers[i].lead - reducers[k].lead) & pk.guard for k in kept):
            continue
        kept.append(i)
    elements = [reducers[i] for i in kept]
    if nodes is not None:
        nodes = [nodes[i] for i in kept]
    one = Polynomial.constant(vars, 1)

    changed = True
    while changed:
        changed = False
        for pos in range(len(elements)):
            normal, den, quotients = _reduce_terms(pk, dict(elements[pos].terms), 1,
                                                   elements[:pos] + elements[pos + 1:],
                                                   nodes is not None)
            if not normal:
                raise AssertionError("minimalized basis element reduced to zero")
            normalized, scalar = _primitive(normal, den)
            if normalized != elements[pos].terms:
                changed = True
                if nodes is not None:
                    parents = [(one, nodes[pos])] + _negated_quotients(
                        pk, vars, quotients, nodes[:pos] + nodes[pos + 1:])
                    nodes[pos] = trace.add(scalar, parents)
                elements[pos] = _Reducer(pk, normalized)
    ordering = sorted(range(len(elements)), key=lambda i: elements[i].handle)
    if nodes is not None:
        nodes = [nodes[i] for i in ordering]
    return [_unpacked(pk, vars, elements[i].terms) for i in ordering], nodes


def staged_buchberger(presentation: IdealPresentation, track_provenance: bool = True,
                      max_pairs: int | None = None,
                      helper_order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced basis for the requested order, routed through a helper order.

    A basis under the helper order (degree-graded by default) is computed
    first and then used as the generating set for the requested order.  The
    graded pass keeps intermediate coefficients small, and re-running from
    an already-closed generating set makes the second pass cheap.  Because
    the reduced basis is unique for the ideal and order, the result is
    identical to a direct computation; only the cost differs.  Both stages
    share one provenance trace: stage 2 starts from stage 1's final nodes as
    its leaves, so the returned basis's trace reaches the original generators
    and no rows are composed.
    """
    if presentation.order.kind == helper_order.kind:
        return buchberger(presentation, track_provenance, max_pairs)
    stage1 = buchberger(
        IdealPresentation(presentation.vars, helper_order, presentation.generators),
        track_provenance, max_pairs)
    stage2 = buchberger(
        IdealPresentation(presentation.vars, presentation.order, tuple(stage1.elements)),
        track_provenance, max_pairs, trace=stage1.trace, leaves=stage1.nodes)
    stats = {"stage1": stage1.stats, "stage2": stage2.stats}
    for key in ("pairs_considered", "pairs_reduced", "skipped_coprime",
                "skipped_chain", "basis_additions"):
        stats[key] = stage1.stats[key] + stage2.stats[key]
    return GroebnerBasis(presentation, stage2.elements, stage2.trace, stage2.nodes, stats)


def _certify_with_basis(target: Polynomial, gb: GroebnerBasis) -> MembershipCertificate:
    """Certificate from a provenance-tracked basis.

    Reduce the target, seed each element's trace node with its quotient and
    contract the trace backward to the generators.
    """
    if gb.trace is None:
        raise ValueError("basis was computed without provenance tracking")
    normal_form, quotients = reduce(target, gb.elements, gb.order)
    cofactors = gb.trace.contract([(node, q) for node, q in zip(gb.nodes, quotients)
                                   if not q.is_zero()])
    certificate = MembershipCertificate(
        target=target,
        generators=gb.presentation.generators,
        cofactors=cofactors,
        remainder=normal_form,
    )
    if not certificate.verify():
        raise AssertionError("certificate failed re-expansion; provenance bug")
    return certificate


def _find_unit_pivot(presentation: IdealPresentation) -> tuple[int, str] | None:
    """Locate a generator of the form c*v + d, c a nonzero constant.

    v must be the highest-precedence variable occurring anywhere in the
    generators (so that under lex the pivot's leading monomial is v itself),
    and d must be free of v.  Returns (generator index, variable name).
    """
    occurring = set()
    for g in presentation.generators:
        for mono in g.terms:
            for pos, e in enumerate(mono):
                if e:
                    occurring.add(pos)
    if not occurring:
        return None
    lead_pos = min(occurring)
    v = presentation.vars.names[lead_pos]
    for idx, g in enumerate(presentation.generators):
        if g.degree_in(v) != 1:
            continue
        coeff_terms = {m[:lead_pos] + m[lead_pos + 1:]: c
                       for m, c in g.terms.items() if m[lead_pos] == 1}
        if len(coeff_terms) == 1 and not any(next(iter(coeff_terms))):
            return idx, v
    return None


def _pivot_image(f: Polynomial, v: str, c: Fraction, d: Polynomial,
                 pivot: Polynomial) -> tuple[Polynomial, Polynomial, int]:
    """Clear v from f via the pivot relation c*v + d = 0.

    Returns (image, w, k) with the exact identity c^k * f = w * pivot + image,
    where k is the degree of f in v and the image is v-free.
    """
    k = f.degree_in(v)
    c_poly = Polynomial.constant(f.vars, c)
    image = eliminate_linear(f, v, c_poly, d)
    if k == 0:
        return image, Polynomial.zero(f.vars), 0
    scaled = Polynomial.constant(f.vars, c ** k) * f
    w = exact_divide(scaled - image, pivot)
    return image, w, k


def certify_membership(presentation: IdealPresentation, target: Polynomial,
                       basis: GroebnerBasis | None = None,
                       max_pairs: int | None = None) -> MembershipCertificate:
    """Certificate expressing the target over the presentation's generators.

    The identity target = sum(K_i * g_i) + remainder holds exactly and the
    remainder vanishes iff the target lies in the ideal.  When a generator is
    linear in the leading variable with a constant coefficient, that variable
    is eliminated first by exact combinations and the certificate for the
    smaller system is lifted back; this keeps cofactor growth manageable.
    The remainder is a membership witness, not necessarily the canonical
    normal form under the presentation's order.
    """
    if basis is not None:
        return _certify_with_basis(target, basis)
    if presentation.order.kind == "lex":
        found = _find_unit_pivot(presentation)
    else:
        found = None
    if found is None:
        gb = staged_buchberger(presentation, track_provenance=True, max_pairs=max_pairs)
        return _certify_with_basis(target, gb)

    pivot_idx, v = found
    pivot = presentation.generators[pivot_idx]
    lead_pos = presentation.vars.names.index(v)
    c = next(co for m, co in pivot.terms.items() if m[lead_pos] == 1)
    d = Polynomial(presentation.vars,
                   {m: co for m, co in pivot.terms.items() if m[lead_pos] == 0})

    rest = [g for i, g in enumerate(presentation.generators) if i != pivot_idx]
    images, ws, ks = [], [], []
    for h in rest:
        image, w, k = _pivot_image(h, v, c, d, pivot)
        images.append(image)
        ws.append(w)
        ks.append(k)
    t_image, t_w, t_k = _pivot_image(target, v, c, d, pivot)

    inner = certify_membership(
        IdealPresentation(presentation.vars, presentation.order, tuple(images)),
        t_image, max_pairs=max_pairs)

    scale = Fraction(1) / c ** t_k
    pivot_cof = t_w * scale
    rest_cofs = []
    for q, w, k in zip(inner.cofactors, ws, ks):
        rest_cofs.append(q * (c ** k * scale))
        if not q.is_zero():
            pivot_cof = pivot_cof - q * w * scale
    cofactors: list[Polynomial] = []
    it = iter(rest_cofs)
    for i in range(len(presentation.generators)):
        cofactors.append(pivot_cof if i == pivot_idx else next(it))
    certificate = MembershipCertificate(
        target=target,
        generators=presentation.generators,
        cofactors=cofactors,
        remainder=inner.remainder * scale,
    )
    if not certificate.verify():
        raise AssertionError("certificate failed re-expansion; pivot composition bug")
    return certificate


# -- serialization -----------------------------------------------------

_WIDE_DIGITS = 2_000_000


def _unlock_wide_integers() -> None:
    """Lift the interpreter's int/str conversion limit for exact coefficients.

    Lex eliminants of the flagship system carry integer coefficients tens of
    thousands of digits wide, beyond CPython's default conversion guard; the
    document layer needs the full width in both directions.  No-op where the
    interpreter has no such limit.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is not None and sys.get_int_max_str_digits() < _WIDE_DIGITS:
        setter(_WIDE_DIGITS)


def basis_to_document(gb: GroebnerBasis) -> dict:
    _unlock_wide_integers()
    doc = {
        "format": BASIS_FORMAT,
        "variables": list(gb.presentation.vars.names),
        "order": gb.order.kind,
        "generators": [format_polynomial(g, gb.order) for g in gb.presentation.generators],
        "basis": [format_polynomial(g, gb.order) for g in gb.elements],
        "stats": dict(gb.stats),
    }
    rows = gb.provenance
    if rows is not None:
        doc["provenance"] = [[format_polynomial(p, gb.order) for p in row] for row in rows]
    return doc


def basis_from_document(doc: dict) -> GroebnerBasis:
    _unlock_wide_integers()
    if doc.get("format") != BASIS_FORMAT:
        raise ValueError(f"unsupported document format: {doc.get('format')!r}")
    vars = VariableSet(tuple(doc["variables"]))
    order = MonomialOrder(doc["order"])
    generators = tuple(parse_polynomial(t, vars) for t in doc["generators"])
    elements = [parse_polynomial(t, vars) for t in doc["basis"]]
    trace = nodes = None
    if "provenance" in doc:
        rows = [[parse_polynomial(t, vars) for t in row] for row in doc["provenance"]]
        trace, nodes = ProvenanceTrace.from_rows(vars, len(generators), rows)
    return GroebnerBasis(IdealPresentation(vars, order, generators), elements, trace, nodes,
                         dict(doc.get("stats", {})))


def certificate_to_document(cert: MembershipCertificate, order: MonomialOrder = LEX) -> dict:
    _unlock_wide_integers()
    vars = cert.target.vars
    return {
        "format": CERTIFICATE_FORMAT,
        "variables": list(vars.names),
        "target": format_polynomial(cert.target, order),
        "generators": [format_polynomial(g, order) for g in cert.generators],
        "cofactors": [format_polynomial(c, order) for c in cert.cofactors],
        "remainder": format_polynomial(cert.remainder, order),
        "is_member": cert.remainder.is_zero(),
    }


def certificate_from_document(doc: dict) -> MembershipCertificate:
    _unlock_wide_integers()
    if doc.get("format") != CERTIFICATE_FORMAT:
        raise ValueError(f"unsupported document format: {doc.get('format')!r}")
    vars = VariableSet(tuple(doc["variables"]))
    return MembershipCertificate(
        target=parse_polynomial(doc["target"], vars),
        generators=tuple(parse_polynomial(t, vars) for t in doc["generators"]),
        cofactors=[parse_polynomial(t, vars) for t in doc["cofactors"]],
        remainder=parse_polynomial(doc["remainder"], vars),
    )
