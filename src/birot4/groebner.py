"""Reduced Groebner bases and the search for low-degree membership certificates.

This module only finds proof objects; ``birot4.certificate`` holds the
certificate type, its format and the exact check, and does not import this
module.  ``staged_buchberger`` is the one basis search behind
``certify_membership`` and ``birot4 certify``.  Under lex it first
eliminates a unit pivot ``c*v + d`` (v the top variable): the other
generators' remainders modulo the pivot are searched (grevlex, then lex),
and the pivot's normal form against that basis completes the reduced lex
basis.  The basis ``stats`` are the counters of the search that ran.

A membership certificate target = sum(K_i * g_i) + remainder takes the
remainder from the basis (the target's normal form) and the cofactors from
linear algebra, not from the search history: the rows mu * g_i up to a
degree D, D rising from deg(target - remainder), are eliminated modulo a
fixed prime until target - remainder lies in their span (Lazard; Faugère's
F4), and the solution on the rows it uses is lifted to exact rationals by
Dixon's p-adic iteration and rational reconstruction.  Nothing in that
search is trusted: ``MembershipCertificate.verify`` decides.  With
provenance on, the basis search also appends one node per new element to a
linear ``ProvenanceTrace``; its ``rows`` give each basis element over the
generators.

The hot loops (division, S-polynomials, the pair criteria and the Macaulay
rows) run on a kernel form instead of ``Fraction`` coefficients and
exponent tuples:

* Monomials are packed into one int (``birot4.certificate._Packing``), one
  guarded bit field per variable, so a product is an addition and
  divisibility one masked subtraction.  An exponent that outgrows its field
  raises ``_Overflow`` and the computation starts over with fields twice as
  wide, so no exponent ever wraps.
* Coefficients are integer numerators over one common denominator.  The
  division (``_reduce_terms``) scales the remainder by lc/gcd(a, lc) where
  a step needs it and then divides out the remainder's content.

Polynomials are packed on the way in and unpacked on the way out, so every
public function takes and returns ``Polynomial`` values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm

from .certificate import MembershipCertificate, _Overflow, _Packing, _scaled, _unlock_wide_integers
# Unused here, kept for the benchmark: perfbench/workloads.py calls the certificate
# codec as groebner.certificate_*_document and perfbench/perftrace.py traces it there.
from .certificate import certificate_from_document, certificate_to_document  # noqa: F401
from .poly import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    VariableSet,
    format_polynomial,
    monomial_div,
    monomial_lcm,
    monomial_mul,
    parse_polynomial,
    primitive_normalize,
)

BASIS_FORMAT = "birot4/groebner-basis@1"


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
    return _divide(f, basis, order, True)


def _divide(f: Polynomial, basis: list[Polynomial], order: MonomialOrder,
            want_quotients: bool) -> tuple[Polynomial, list[Polynomial] | None]:
    """``reduce``; the quotients are None unless wanted."""
    for b in basis:
        if b.is_zero():
            raise ValueError("zero divisor polynomial in basis")

    def attempt(pk: _Packing):
        (work,), den = _scaled(pk, [f])
        normal, den, quotients = _reduce_terms(pk, work, den, [_Reducer.of(pk, b) for b in basis],
                                               want_quotients)
        return (_unpacked(pk, f.vars, {h: Fraction(a, den) for h, a in normal.items()}),
                quotients and [_unpacked(pk, f.vars, q) for q in quotients])

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


def buchberger(presentation: IdealPresentation, track_provenance: bool = True, *,
               trace: ProvenanceTrace | None = None,
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
        return _buchberger(presentation, pk, trace, leaves)

    pk = _Packing.fitting(presentation.order, len(presentation.vars), presentation.generators)
    return _with_room(pk, attempt)


def _buchberger(presentation: IdealPresentation, pk: _Packing,
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


def staged_buchberger(presentation: IdealPresentation,
                      track_provenance: bool = True) -> GroebnerBasis:
    """Reduced basis for the presentation's order, by the cheapest route known.

    Under lex, a generator ``c*v + d`` with a constant c and v the highest
    variable that occurs (``_find_unit_pivot``) is eliminated first: the
    nonzero remainders of the other generators modulo the pivot are v-free
    and generate the elimination ideal.  Their basis is found the same way,
    so nested pivots chain, and the pivot's primitive normal form against
    it, left out when zero (the unit ideal), completes the reduced lex
    basis.  Without a pivot, a grevlex basis is computed first and used as
    the generating set for lex: the graded pass keeps intermediate
    coefficients small, and the second pass starts from a closed set.

    The reduced basis is unique for the ideal and order, so the result
    equals a direct ``buchberger``; only the cost differs.  ``stats`` are
    the counters of the search that ran (after a pivot, the remainders'
    search): ``stage1`` (grevlex), ``stage2`` (lex) and their sums.  All
    steps extend one provenance trace whose leaves are the generators.
    """
    n_gens = len(presentation.generators)
    trace = ProvenanceTrace(presentation.vars, n_gens) if track_provenance else None
    return _staged(presentation, trace, list(range(n_gens)))


def _staged(presentation: IdealPresentation, trace: ProvenanceTrace | None,
            leaves: list[int]) -> GroebnerBasis:
    """``staged_buchberger`` continuing ``trace``, whose node leaves[i] is generator i."""
    if presentation.order.kind == GREVLEX.kind:
        return buchberger(presentation, trace is not None, trace=trace, leaves=leaves)
    pivot_idx = _find_unit_pivot(presentation)
    if pivot_idx is not None:
        return _eliminate_pivot(presentation, pivot_idx, trace, leaves)
    stage1 = buchberger(
        IdealPresentation(presentation.vars, GREVLEX, presentation.generators),
        trace is not None, trace=trace, leaves=leaves)
    stage2 = buchberger(
        IdealPresentation(presentation.vars, presentation.order, tuple(stage1.elements)),
        trace is not None, trace=trace, leaves=stage1.nodes)
    stats = {"stage1": stage1.stats, "stage2": stage2.stats}
    for key in ("pairs_considered", "pairs_reduced", "skipped_coprime",
                "skipped_chain", "basis_additions"):
        stats[key] = stage1.stats[key] + stage2.stats[key]
    return GroebnerBasis(presentation, stage2.elements, trace, stage2.nodes, stats)


def _eliminate_pivot(presentation: IdealPresentation, pivot_idx: int,
                     trace: ProvenanceTrace | None, leaves: list[int]) -> GroebnerBasis:
    """Lex basis via the unit pivot generators[pivot_idx]; see ``staged_buchberger``."""
    vars, order = presentation.vars, presentation.order
    one = Polynomial.constant(vars, 1)
    pivot = presentation.generators[pivot_idx]
    remainders, nodes = [], []
    for i, g in enumerate(presentation.generators):
        if i == pivot_idx:
            continue
        remainder, (q,) = reduce(g, [pivot], order)
        if remainder.is_zero():
            continue
        remainders.append(remainder)
        if trace is not None:  # a generator free of v is its own remainder
            nodes.append(leaves[i] if q.is_zero() else
                         trace.add(Fraction(1), [(one, leaves[i]), (-q, leaves[pivot_idx])]))
    inner = _staged(IdealPresentation(vars, order, tuple(remainders)), trace, nodes)
    normal, quotients = reduce(pivot, inner.elements, order)
    if normal.is_zero():
        return GroebnerBasis(presentation, inner.elements, trace, inner.nodes, inner.stats)
    normalized, scalar = primitive_normalize(normal, order)
    final_nodes = None
    if trace is not None:
        parents = [(one, leaves[pivot_idx])] + [(-q, node) for q, node in
                                                zip(quotients, inner.nodes) if not q.is_zero()]
        final_nodes = [trace.add(scalar, parents)] + inner.nodes
    return GroebnerBasis(presentation, [normalized] + inner.elements, trace, final_nodes,
                         inner.stats)


def _find_unit_pivot(presentation: IdealPresentation) -> int | None:
    """Locate a generator of the form c*v + d, c a nonzero constant.

    v must be the highest-precedence variable occurring anywhere in the
    generators (so that under lex the pivot's leading monomial is v itself),
    and d must be free of v.  Returns the generator's index.
    """
    occurring = {name for g in presentation.generators for name in g.occurring_variables()}
    if not occurring:
        return None
    lead_pos = min(map(presentation.vars.index, occurring))
    v = presentation.vars.names[lead_pos]
    for idx, g in enumerate(presentation.generators):
        if g.degree_in(v) != 1:
            continue
        coeff_terms = {m[:lead_pos] + m[lead_pos + 1:]: c
                       for m, c in g.terms.items() if m[lead_pos] == 1}
        if len(coeff_terms) == 1 and not any(next(iter(coeff_terms))):
            return idx
    return None


def certify_membership(presentation: IdealPresentation, target: Polynomial,
                       basis: GroebnerBasis | None = None) -> MembershipCertificate:
    """Certificate expressing the target over the presentation's generators.

    The identity target = sum(K_i * g_i) + remainder holds exactly, and the
    remainder, the target's normal form against the reduced basis, vanishes
    iff the target lies in the ideal.  ``basis`` is a reduced basis of the
    presentation (provenance is not needed); without one,
    ``staged_buchberger`` computes it.

    The cofactors of target - remainder come from Macaulay rows, not from
    the basis search (``_macaulay_certificate``), so their degree is about
    the least any certificate needs.
    """
    if basis is None:
        basis = staged_buchberger(presentation, False)
    normal_form, _ = _divide(target, basis.elements, basis.order, False)
    return _macaulay_certificate(target, basis.presentation.generators, normal_form)


# -- low-degree certificates from Macaulay rows --------------------------

# Primes below 2**30, so residues stay single-digit CPython ints.  The list is
# fixed: the certificate found depends on nothing but the input.
_PRIMES = (1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717)


class _Echelon:
    """Rows modulo a prime in semi-echelon form, each pivot with its history.

    Rows are dicts handle -> int whose leading term is the smallest handle,
    as in the division kernel, numbered in the order they are added.
    ``add`` top-reduces a row by the pivots; a row left with a new lead
    becomes a monic pivot, a row that vanishes is dependent and dropped.  Each pivot records the multiples of earlier
    pivots subtracted from its input row, so ``solve`` maps a vector of the
    span back to input rows with one backward sweep.  Values being reduced
    are taken modulo the prime only when they lead.
    """

    def __init__(self, prime: int):
        self.prime = prime
        self.added = 0
        self.pivot_at: dict[int, int] = {}  # lead handle -> pivot
        self.tails: list[list[tuple[int, int]]] = []
        self.rows: list[int] = []  # pivot -> its input row
        self.scales: list[int] = []  # pivot -> inverse of its reduced lead
        self.steps: list[list[tuple[int, int]]] = []  # pivot -> (earlier pivot, multiple)

    def _reduce(self, work: dict[int, int]):
        """Cancel leads of work by pivots; returns (steps, first lead without a pivot, its value)."""
        prime, pivot_at, tails = self.prime, self.pivot_at, self.tails
        heap = list(work)
        heapq.heapify(heap)
        steps = []
        while heap:
            h = heapq.heappop(heap)
            a = work.pop(h, 0) % prime
            if not a:
                continue
            k = pivot_at.get(h)
            if k is None:
                return steps, h, a
            steps.append((k, a))
            for e, c in tails[k]:
                v = work.get(e)
                if v is None:
                    work[e] = -a * c
                    heapq.heappush(heap, e)
                else:
                    work[e] = v - a * c
        return steps, None, 0

    def add(self, work: dict[int, int]) -> bool:
        """Add the next input row; False when it lies in the span of the pivots."""
        self.added += 1
        steps, lead, a = self._reduce(work)
        if lead is None:
            return False
        prime = self.prime
        scale = pow(a, -1, prime)
        self.pivot_at[lead] = len(self.rows)
        self.tails.append([(e, c) for e, v in work.items() if (c := v * scale % prime)])
        self.rows.append(self.added - 1)
        self.scales.append(scale)
        self.steps.append(steps)
        return True

    def solve(self, work: dict[int, int]) -> dict[int, int] | None:
        """Input-row coefficients whose combination is work mod the prime, or None.

        Only pivot rows get coefficients, so the solution is the unique one
        with every dependent row's unknown zero.
        """
        steps, lead, _ = self._reduce(work)
        if lead is not None:
            return None
        prime = self.prime
        weight = [0] * len(self.rows)
        for k, a in steps:
            weight[k] += a
        combination = {}
        for k in range(len(self.rows) - 1, -1, -1):
            c = weight[k] % prime
            if c:
                c = c * self.scales[k] % prime
                combination[self.rows[k]] = c
                for earlier, a in self.steps[k]:
                    weight[earlier] -= c * a
        return combination


def _monomials_of_degree(pk: _Packing, degree: int) -> list[int]:
    """Handles of all monomials of exactly ``degree`` (handles add like exponents)."""
    if degree >> pk.width - 2:
        raise _Overflow
    units = [pk.handle((1 << off) + pk.degree_unit) for off in pk.offsets]
    return [sum(combo) for combo in combinations_with_replacement(units, degree)]


def _reconstruct(values: list[int], modulus: int) -> list[Fraction] | None:
    """Rationals n/d with |n|, d <= sqrt(modulus/2) congruent to values, or None.

    Each value is first multiplied by the product of the denominators found
    so far, which usually leaves an integer and skips the Euclid steps.
    """
    bound = isqrt(modulus // 2)
    den = 1
    out = []
    for v in values:
        r0, r1, s0, s1 = modulus, v * den % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if s1 < 0:
            r1, s1 = -r1, -s1
        den *= s1
        if den > bound or gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, den))
    return out


def _dixon(rows: list[dict[int, int]], target: dict[int, int], prime: int):
    """Candidate rational y with sum(y_j * rows[j]) == target, by p-adic lifting.

    Each step solves for the current residual modulo the prime and divides
    what is left by the prime, so the running solution is exact modulo
    prime**steps.  A candidate is yielded whenever every entry reconstructs
    as a rational; the caller checks it.  The steps stop at a Hadamard bound past which
    the true solution would have reconstructed, or when a residual leaves
    the span modulo the prime (the prime or the row set was unlucky).
    """
    echelon = _Echelon(prime)
    for row in rows:
        echelon.add({h: c % prime for h, c in row.items()})
    # |numerators|, denominators <= |target| * prod |row_j| (Cramer, Hadamard)
    bits = (sum(sum(c * c for c in row.values()).bit_length() for row in rows)
            + sum(c * c for c in target.values()).bit_length() + 2)
    residual = dict(target)
    solution = [0] * len(rows)
    modulus = 1
    while modulus.bit_length() <= bits + prime.bit_length():
        step = echelon.solve({h: v % prime for h, v in residual.items()})
        if step is None:
            return
        for j, c in step.items():
            solution[j] += c * modulus
            for h, v in rows[j].items():
                residual[h] = residual.get(h, 0) - c * v
        carried = {}
        for h, v in residual.items():
            if v:
                q, r = divmod(v, prime)
                if r:
                    return
                carried[h] = q
        residual = carried
        modulus *= prime
        if not residual:
            yield [Fraction(s) for s in solution]
            return
        candidate = _reconstruct(solution, modulus)
        if candidate is not None:
            yield candidate


def _macaulay_certificate(target: Polynomial, generators: tuple[Polynomial, ...],
                          remainder: Polynomial) -> MembershipCertificate:
    """A verified certificate target = sum(K_i * g_i) + remainder, K_i of low degree.

    target - remainder must lie in the ideal.  For D = its degree, D + 1,
    ... the rows mu * g_i with deg(mu * g_i) <= D are eliminated modulo a
    prime (``_Echelon``), until the difference lies in their span.  Each
    degree adds only its block of new rows, in ascending grevlex order of
    their leading monomials, ties by generator; smaller rows first gives
    smaller certificates than the reverse order.  The solution modulo the
    prime, with the unknowns of dependent rows zero, picks its support rows,
    and Dixon lifting on them gives the exact cofactors.  A candidate is
    returned only once ``verify()`` accepts it; an unlucky prime makes the
    search start over with the next one.
    """
    vars = target.vars

    def certificate(cofactors):
        return MembershipCertificate(target, generators, cofactors, remainder)

    difference = target - remainder
    if difference.is_zero():
        return certificate([Polynomial.zero(vars)] * len(generators))
    start = difference.total_degree()

    def attempt(pk: _Packing) -> MembershipCertificate:
        (goal,), goal_den = _scaled(pk, [difference])
        scaled = [_scaled(pk, [g]) for g in generators]  # g_i = gens[i] / dens[i]
        gens = [terms for (terms,), _ in scaled]
        dens = [den for _, den in scaled]
        leads = [min(g) for g in gens]
        degrees = [g.total_degree() for g in generators]
        multipliers = {}
        for prime in _PRIMES:
            residues = [[(h, c % prime) for h, c in g.items()] for g in gens]
            # Koszul: lc_i * lead_i * g_j = g_j * g_i - tail_i * g_j is a
            # combination of rows m * g_i (m in g_j) and m * g_j (m in tail_i),
            # all sorted before it, so a row mu * g_j with lead_i | mu (i < j)
            # is never a pivot and is not built.
            koszul = [[pk.monomial(leads[i]) for i in range(j) if gens[i][leads[i]] % prime]
                      for j in range(len(gens))]
            echelon = _Echelon(prime)
            rows: list[tuple[int, int]] = []  # (generator, multiplier handle)
            built, degree = -1, max(start, min(degrees))
            while True:
                block = []
                for i, d in enumerate(degrees):
                    for m in range(max(built + 1 - d, 0), degree - d + 1):
                        if m not in multipliers:
                            multipliers[m] = _monomials_of_degree(pk, m)
                        block += [(-(mu + leads[i]), i, mu) for mu in multipliers[m]
                                  if all((pk.monomial(mu) - k) & pk.guard for k in koszul[i])]
                block.sort()
                for _, i, mu in block:
                    echelon.add({mu + h: c for h, c in residues[i]})
                    rows.append((i, mu))
                combination = echelon.solve({h: c % prime for h, c in goal.items()})
                if combination is not None:
                    break
                built, degree = degree, degree + 1
            support = [rows[j] for j in sorted(combination)]
            exact = [{mu + h: c for h, c in gens[i].items()} for i, mu in support]
            for values in _dixon(exact, goal, prime):
                cofactors = [{} for _ in generators]
                for (i, mu), y in zip(support, values):
                    if y:
                        cofactors[i][mu] = y * dens[i] / goal_den
                found = certificate([_unpacked(pk, vars, k) for k in cofactors])
                if found.verify():
                    return found
        raise AssertionError("no prime gave a certificate that verifies")

    return _with_room(_Packing.fitting(GREVLEX, len(vars), [difference, *generators]), attempt)


# -- serialization -----------------------------------------------------

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
