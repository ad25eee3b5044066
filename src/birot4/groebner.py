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
"""

from __future__ import annotations

import heapq
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    VariableSet,
    eliminate_linear,
    exact_divide,
    format_polynomial,
    monomial_degree,
    monomial_div,
    monomial_divides,
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
        accumulate as raw term dicts; only the cofactors become Polynomials.
        """
        one = {(0,) * len(self.vars): Fraction(1)}
        adjoint: dict[int, dict] = {}
        for node, q in seeds:
            _add_product(adjoint.setdefault(node, {}), q.terms, one)
        for k in range(len(self.nodes) - 1, self.n_generators - 1, -1):
            a = adjoint.pop(k, None)
            if not a:
                continue
            scalar, parents = self.nodes[k]
            for m, p in parents:
                _add_product(adjoint.setdefault(p, {}), a,
                             {e: c * scalar for e, c in m.terms.items()})
        return [Polynomial(self.vars, adjoint.get(i, {})) for i in range(self.n_generators)]

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
        acc = Polynomial.zero(self.target.vars)
        for cof, gen in zip(self.cofactors, self.generators):
            acc = acc + cof * gen
        return acc + self.remainder == self.target


def _reduce_terms(terms: dict, basis: list[Polynomial], heads: list, order: MonomialOrder,
                  want_quotients: bool):
    """Division core on raw term dicts; see ``reduce`` for the contract.

    A lazy max-heap drives the scan: monomial sort keys are computed once per
    insertion, and stale heap entries are skipped when popped.
    """
    key = order.key
    work = dict(terms)
    heap = [tuple(-x for x in key(m)) + (m,) for m in work]
    heapq.heapify(heap)
    normal: dict[tuple[int, ...], Fraction] = {}
    quotients: list[dict[tuple[int, ...], Fraction]] | None = (
        [{} for _ in basis] if want_quotients else None)
    while heap:
        mono = heapq.heappop(heap)[-1]
        if mono not in work:
            continue  # stale entry
        coeff = work.pop(mono)
        for idx, (lm, lc) in enumerate(heads):
            if monomial_divides(lm, mono):
                q_mono = monomial_div(mono, lm)
                q_coeff = coeff / lc
                if quotients is not None:
                    quotients[idx][q_mono] = quotients[idx].get(q_mono, Fraction(0)) + q_coeff
                for e, c in basis[idx].terms.items():
                    if e == lm:
                        continue
                    k = monomial_mul(q_mono, e)
                    if k in work:
                        acc = work[k] - q_coeff * c
                        if acc:
                            work[k] = acc
                        else:
                            del work[k]
                    else:
                        work[k] = -q_coeff * c
                        heapq.heappush(heap, tuple(-x for x in key(k)) + (k,))
                break
        else:
            normal[mono] = coeff
    return normal, quotients


def reduce(f: Polynomial, basis: list[Polynomial], order: MonomialOrder) -> tuple[Polynomial, list[Polynomial]]:
    """Full multivariate division: returns (normal form, quotients).

    Deterministic: the highest remaining term is reduced against the first
    basis element whose leading term divides it; irreducible terms drop into
    the normal form.  f == sum(q_i*basis_i) + normal form holds exactly, and
    no term of the normal form is divisible by any basis leading term.
    """
    heads = []
    for b in basis:
        if b.is_zero():
            raise ValueError("zero divisor polynomial in basis")
        heads.append((b.leading_monomial(order), b.leading_coefficient(order)))
    normal, quotients = _reduce_terms(f.terms, basis, heads, order, True)
    return Polynomial(f.vars, normal), [Polynomial(f.vars, q) for q in quotients]


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


def _pair_sort_key(order: MonomialOrder, lcm, i: int, j: int):
    return (monomial_degree(lcm), order.key(lcm), i, j)


def buchberger(presentation: IdealPresentation, track_provenance: bool = True,
               max_pairs: int | None = None, *, trace: ProvenanceTrace | None = None,
               leaves: list[int] | None = None) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with the normal pair strategy.

    Pairs are processed by smallest lcm under the graded refinement of the
    order; coprime leading terms and chain-criterion pairs are skipped.
    Every intermediate result is primitive-normalized.  The returned basis
    is reduced (monic-primitive, mutually irreducible) and sorted descending
    by leading monomial, so it is unique for the ideal and order.

    With provenance, every new element appends a node to ``trace``.  By
    default a fresh trace is started whose leaves are the generators; a
    caller continuing an earlier trace passes it with ``leaves``, the node
    of each generator in it.
    """
    if max_pairs is None:
        env = os.environ.get(_ENV_MAX_PAIRS)
        max_pairs = int(env) if env else None
    vars = presentation.vars
    order = presentation.order
    n_gens = len(presentation.generators)
    if not track_provenance:
        trace = None
    elif trace is None:
        trace, leaves = ProvenanceTrace(vars, n_gens), list(range(n_gens))
    elif leaves is None or len(leaves) != n_gens:
        raise ValueError("a continued trace needs one leaf node per generator")
    one = Polynomial.constant(vars, 1)

    basis: list[Polynomial] = []
    heads: list[tuple[tuple[int, ...], Fraction]] = []
    nodes: list[int] = []

    def append_element(p: Polynomial) -> None:
        basis.append(p)
        heads.append((p.leading_monomial(order), p.leading_coefficient(order)))

    for i, g in enumerate(presentation.generators):
        norm, scalar = primitive_normalize(g, order)
        append_element(norm)
        if trace is not None:
            nodes.append(trace.add(scalar, [(one, leaves[i])]))

    pending: dict[tuple[int, int], tuple[int, ...]] = {}
    pair_heap: list[tuple] = []

    def push_pairs(new_index: int) -> None:
        lm_new = heads[new_index][0]
        for i in range(new_index):
            lcm = monomial_lcm(heads[i][0], lm_new)
            pending[(i, new_index)] = lcm
            heapq.heappush(pair_heap, _pair_sort_key(order, lcm, i, new_index))

    for idx in range(1, len(basis)):
        push_pairs(idx)

    stats = {"pairs_considered": 0, "pairs_reduced": 0,
             "skipped_coprime": 0, "skipped_chain": 0, "basis_additions": 0}

    while pair_heap:
        _, _, i, j = heapq.heappop(pair_heap)
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue
        stats["pairs_considered"] += 1
        if max_pairs is not None and stats["pairs_considered"] > max_pairs:
            raise ResourceCapExceeded(f"more than {max_pairs} S-pairs")
        lm_i, lc_i = heads[i]
        lm_j, lc_j = heads[j]
        if lcm == monomial_mul(lm_i, lm_j):
            stats["skipped_coprime"] += 1
            continue
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not monomial_divides(heads[k][0], lcm):
                continue
            pair_ik = (min(i, k), max(i, k))
            pair_jk = (min(j, k), max(j, k))
            if pair_ik not in pending and pair_jk not in pending:
                chain = True
                break
        if chain:
            stats["skipped_chain"] += 1
            continue
        spoly = s_polynomial(basis[i], basis[j], order)
        nf_terms, quotient_terms = _reduce_terms(spoly.terms, basis, heads, order,
                                                 trace is not None)
        if not nf_terms:
            continue
        normal_form = Polynomial(vars, nf_terms)
        normalized, scalar = primitive_normalize(normal_form, order)
        if trace is not None:
            parents = [(Polynomial(vars, {monomial_div(lcm, lm_i): lc_j}), nodes[i]),
                       (Polynomial(vars, {monomial_div(lcm, lm_j): -lc_i}), nodes[j])]
            parents += _negated_quotients(vars, quotient_terms, nodes)
            nodes.append(trace.add(scalar, parents))
        append_element(normalized)
        stats["pairs_reduced"] += 1
        stats["basis_additions"] += 1
        push_pairs(len(basis) - 1)

    elements, final_nodes = _reduce_basis(basis, nodes if trace is not None else None,
                                          trace, order, vars)
    return GroebnerBasis(presentation, elements, trace, final_nodes, stats)


def _negated_quotients(vars: VariableSet, quotient_terms: list[dict],
                       nodes: list[int]) -> list[tuple[Polynomial, int]]:
    """Trace parents (-q, node) for the nonzero division quotients."""
    return [(Polynomial(vars, {e: -c for e, c in q.items()}), node)
            for q, node in zip(quotient_terms, nodes) if q]


def _reduce_basis(basis: list[Polynomial], nodes: list[int] | None,
                  trace: ProvenanceTrace | None, order: MonomialOrder, vars: VariableSet):
    """Minimalize then interreduce; appends a trace node per rewritten element."""
    lms = [g.leading_monomial(order) for g in basis]
    indices = sorted(range(len(basis)), key=lambda i: order.key(lms[i]))
    kept: list[int] = []
    for i in indices:
        if any(monomial_divides(lms[k], lms[i]) for k in kept):
            continue
        kept.append(i)
    elements = [basis[i] for i in kept]
    if nodes is not None:
        nodes = [nodes[i] for i in kept]
    one = Polynomial.constant(vars, 1)

    changed = True
    while changed:
        changed = False
        for pos in range(len(elements)):
            others = elements[:pos] + elements[pos + 1:]
            heads = [(b.leading_monomial(order), b.leading_coefficient(order)) for b in others]
            nf_terms, quotient_terms = _reduce_terms(elements[pos].terms, others, heads, order,
                                                     nodes is not None)
            if not nf_terms:
                raise AssertionError("minimalized basis element reduced to zero")
            normalized, scalar = primitive_normalize(Polynomial(vars, nf_terms), order)
            if normalized != elements[pos]:
                changed = True
                if nodes is not None:
                    parents = [(one, nodes[pos])] + _negated_quotients(
                        vars, quotient_terms, nodes[:pos] + nodes[pos + 1:])
                    nodes[pos] = trace.add(scalar, parents)
                elements[pos] = normalized
    ordering = sorted(range(len(elements)),
                      key=lambda i: order.key(elements[i].leading_monomial(order)), reverse=True)
    elements = [elements[i] for i in ordering]
    if nodes is not None:
        nodes = [nodes[i] for i in ordering]
    return elements, nodes


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
