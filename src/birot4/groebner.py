"""Reduced Groebner bases and the search for low-degree membership certificates.

This module only finds proof objects; ``birot4.certificate`` holds the
certificate type, its format and the exact check, and does not import this
module.  ``staged_buchberger`` is the one basis search behind
``basis_and_certificate`` and ``birot4 certify``.  Under lex it first
eliminates a unit pivot ``c*v + d`` (v the top variable): the other
generators' remainders modulo the pivot are searched (grevlex, then lex),
and the pivot's normal form against that basis completes the reduced lex
basis.  The basis ``stats`` are the counters of the search that ran; the
basis document leaves them out, since they describe the route, not the
basis.  ``certify_membership`` certifies a target against a basis already
found; ``basis_and_certificate`` searches for both, and ``birot4.cli`` is
its one caller in the package.

A membership certificate target = sum(K_i * g_i) + remainder takes the
remainder from the basis (the target's normal form) and the cofactors from
linear algebra, not from the search history: the rows mu * g_i, by rising
degree from deg(target - remainder), go one at a time into an elimination
modulo a fixed prime (Lazard; Faugère's F4), which stops at the first row
that puts target - remainder in their span.  The solution on the rows it
uses is lifted to exact rationals by Dixon's p-adic iteration, solving on
that same elimination, and rational reconstruction: one echelon per prime
drives both the stop and the lift.  Nothing in that search is trusted:
``MembershipCertificate.verify`` decides.

``basis_and_certificate`` runs the two searches at once when more than one
CPU is available: a worker forked with ``os.fork`` (never
``multiprocessing``) runs the Macaulay search as if the target were a
member and sends its certificate back as one certificate document, while
the parent computes the basis and the target's normal form.  The parent
keeps its own target, generators and remainder, and uses the document's
cofactors only when the normal form is zero and the certificate they make
verifies; on a document it cannot read, or otherwise, it runs the search
itself.  The worker is killed and reaped on every way out, and it ends
itself when its parent dies.

The hot loops (division, S-polynomials, the pair criteria and the Macaulay
rows) run on a kernel form instead of ``Fraction`` coefficients and
exponent tuples: monomials packed into one int (``_Packing``) and integer
numerators over one common denominator (``poly.over_one_denominator``).
The division (``_reduce_terms``) scales the remainder by lc/gcd(a, lc)
where a step needs it and then divides out the remainder's content.

Polynomials are packed on the way in and unpacked on the way out, so every
public function takes and returns ``Polynomial`` values.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm
from operator import lshift

from .certificate import (
    MembershipCertificate,
    _unlock_wide_integers,
    certificate_from_document,
    certificate_to_document,
)
from .poly import (
    GREVLEX,
    Exponents,
    MonomialOrder,
    Polynomial,
    VariableSet,
    format_polynomial,
    over_one_denominator,
    parse_polynomial,
    primitive_normalize,
)

BASIS_FORMAT = "birot4/groebner-basis@2"


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
        return sum(map(lshift, exps, self.offsets)) + sum(exps) * self.degree_unit

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


def _scaled(pk: _Packing, p: Polynomial) -> tuple[dict[int, int], int]:
    """p's integer numerators keyed by handle, and their one denominator."""
    (terms,), den = over_one_denominator([p], lambda e: pk.handle(pk.pack(e)))
    return terms, den


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
        return cls(pk, *_scaled(pk, p))


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


def _primitive(terms: dict[int, int]) -> dict[int, int]:
    """The terms divided by their content, with a positive lead."""
    g = gcd(*terms.values())
    if terms[min(terms)] < 0:
        g = -g
    return {h: a // g for h, a in terms.items()}


def _unpacked(pk: _Packing, vars: VariableSet, terms: dict) -> Polynomial:
    """The Polynomial of coefficients keyed by handle."""
    return Polynomial(vars, {pk.exponents(pk.monomial(h)): c for h, c in terms.items()})


# -- bases and certificates --------------------------------------------


@dataclass
class GroebnerBasis:
    """A reduced basis of the presentation's ideal and the counters of its search
    (empty for a basis read back from its document)."""

    presentation: IdealPresentation
    elements: list[Polynomial]
    stats: dict

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
        work, den = _scaled(pk, f)
        normal, den, quotients = _reduce_terms(pk, work, den, [_Reducer.of(pk, b) for b in basis],
                                               want_quotients)
        return (_unpacked(pk, f.vars, {h: Fraction(a, den) for h, a in normal.items()}),
                quotients and [_unpacked(pk, f.vars, q) for q in quotients])

    return _with_room(_Packing.fitting(order, len(f.vars), [f, *basis]), attempt)


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b; caller guarantees divisibility."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"monomial {b} does not divide {a}")
    return out


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


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


def buchberger(presentation: IdealPresentation) -> GroebnerBasis:
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
    """
    pk = _Packing.fitting(presentation.order, len(presentation.vars), presentation.generators)
    return _with_room(pk, lambda pk: _buchberger(presentation, pk))


def _buchberger(presentation: IdealPresentation, pk: _Packing) -> GroebnerBasis:
    reducers = [_Reducer.of(pk, primitive_normalize(g, presentation.order)[0])
                for g in presentation.generators]

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
             "skipped_coprime": 0, "skipped_chain": 0}
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
        s_terms = _s_terms(pk, ri, lcm - ri.lead, rj, lcm - rj.lead)
        normal, _, _ = _reduce_terms(pk, s_terms, 1, reducers, False)
        if not normal:
            continue
        reducers.append(_Reducer(pk, _primitive(normal)))
        stats["pairs_reduced"] += 1
        push_pairs(len(reducers) - 1)

    return GroebnerBasis(presentation, _reduce_basis(pk, reducers, presentation.vars), stats)


def _reduce_basis(pk: _Packing, reducers: list[_Reducer], vars: VariableSet) -> list[Polynomial]:
    """Minimalize, then interreduce in one pass."""
    indices = sorted(range(len(reducers)), key=lambda i: -reducers[i].handle)
    kept: list[int] = []
    for i in indices:
        if any(not (reducers[i].lead - reducers[k].lead) & pk.guard for k in kept):
            continue
        kept.append(i)
    elements = [reducers[i] for i in kept]
    # reducing tails keeps every lead, so no term reduced here becomes
    # reducible again later in the pass: one pass interreduces
    for pos in range(len(elements)):
        normal, _, _ = _reduce_terms(pk, dict(elements[pos].terms), 1,
                                     elements[:pos] + elements[pos + 1:], False)
        if not normal:
            raise AssertionError("minimalized basis element reduced to zero")
        elements[pos] = _Reducer(pk, _primitive(normal))
    ordering = sorted(range(len(elements)), key=lambda i: elements[i].handle)
    return [_unpacked(pk, vars, elements[i].terms) for i in ordering]


def staged_buchberger(presentation: IdealPresentation,
                      track_provenance: bool = False) -> GroebnerBasis:
    """Reduced basis for the presentation's order, by the cheapest route known.

    Under lex, a generator ``c*v + d`` with a constant c and v the highest
    variable that occurs (``_find_unit_pivot``) is eliminated first: the
    nonzero remainders of the other generators modulo the pivot are v-free
    and generate the elimination ideal.  Pivots are eliminated the same way
    while the remainders have one.  The remainders' basis is then computed
    grevlex first and used as the generating set for lex: the graded pass
    keeps intermediate coefficients small, and the second pass starts from
    a closed set.  Each pivot's primitive normal form against the basis
    found so far, left out when zero (the unit ideal), is put in front of
    it, innermost pivot first, which completes the reduced lex basis.

    The reduced basis is unique for the ideal and order, so the result
    equals a direct ``buchberger``; only the cost differs.  ``stats`` are
    the counters of the search that ran (after pivots, the remainders'
    search): ``stage1`` (grevlex), ``stage2`` (lex) and their sums.

    ``track_provenance`` is ignored.  It is accepted only because the
    benchmark's ``small_ideals`` workload passes it
    (``perfbench/workloads.py``, ``certify_ideal``); it goes when that call
    drops it.
    """
    order = presentation.order
    if order.kind == GREVLEX.kind:
        return buchberger(presentation)
    remaining, pivots = presentation, []
    while (pivot_idx := _find_unit_pivot(remaining)) is not None:
        pivots.append(remaining.generators[pivot_idx])
        remaining = _eliminate_pivot(remaining, pivot_idx)
    stage1 = buchberger(IdealPresentation(remaining.vars, GREVLEX, remaining.generators))
    stage2 = buchberger(IdealPresentation(remaining.vars, order, tuple(stage1.elements)))
    stats = {"stage1": stage1.stats, "stage2": stage2.stats}
    for key in ("pairs_considered", "pairs_reduced", "skipped_coprime", "skipped_chain"):
        stats[key] = stage1.stats[key] + stage2.stats[key]
    elements = stage2.elements
    for pivot in reversed(pivots):
        normal, _ = _divide(pivot, elements, order, False)
        if not normal.is_zero():
            elements = [primitive_normalize(normal, order)[0]] + elements
    return GroebnerBasis(presentation, elements, stats)


def _eliminate_pivot(presentation: IdealPresentation, pivot_idx: int) -> IdealPresentation:
    """The other generators' nonzero remainders modulo the unit pivot generators[pivot_idx]."""
    pivot, order = presentation.generators[pivot_idx], presentation.order
    remainders = (_divide(g, [pivot], order, False)[0]
                  for i, g in enumerate(presentation.generators) if i != pivot_idx)
    return IdealPresentation(presentation.vars, order,
                             tuple(r for r in remainders if not r.is_zero()))


def _find_unit_pivot(presentation: IdealPresentation) -> int | None:
    """Locate a generator of the form c*v + d, c a nonzero constant.

    v must be the highest-precedence variable occurring anywhere in the
    generators (so that under lex the pivot's leading monomial is v itself),
    and d must be free of v.  Returns the generator's index.
    """
    occurring = {name for g in presentation.generators for name in g.occurring_variables()}
    if not occurring:
        return None
    v = presentation.vars.names[min(map(presentation.vars.index, occurring))]
    for idx, g in enumerate(presentation.generators):
        buckets = g.as_univariate_in(v)  # [d, c] for c*v + d
        if len(buckets) == 2 and buckets[1].total_degree() == 0:
            return idx
    return None


def certify_membership(presentation: IdealPresentation, target: Polynomial,
                       basis: GroebnerBasis) -> MembershipCertificate:
    """Certificate expressing the target over the presentation's generators.

    The identity target = sum(K_i * g_i) + remainder holds exactly, and the
    remainder, the target's normal form against ``basis``, a reduced basis
    of the presentation, vanishes iff the target lies in the ideal.  To
    search for the basis too, call ``basis_and_certificate``.

    The cofactors of target - remainder come from Macaulay rows, not from
    the basis search (``_macaulay_certificate``), so their degree is about
    the least any certificate needs.
    """
    normal_form, _ = _divide(target, basis.elements, basis.order, False)
    return _macaulay_certificate(target, presentation.generators, normal_form)


def basis_and_certificate(presentation: IdealPresentation, target: Polynomial
                          ) -> tuple[GroebnerBasis, MembershipCertificate]:
    """``staged_buchberger(presentation)`` and the target's certificate, searched at once.

    When more than one CPU is available to this process (by its CPU
    affinity, where the platform reports one), a forked worker (``_Worker``)
    runs the Macaulay search for target = sum(K_i * g_i), betting that the
    target is a member, while this process runs the basis search and the
    target's normal form.  If the normal form is zero, the worker's
    cofactors make the certificate, which is returned only once ``verify()``
    accepts it here: nothing that came through the pipe is trusted.
    Otherwise, or if the worker exited without a result, the worker is
    killed and the same search runs in this process with the true
    remainder.  The worker gets exactly the inputs of that call, so the
    certificate is the same either way.  The worker is killed and reaped on
    every way out of this function, and it dies with this process if this
    process is killed first.
    """
    generators = presentation.generators
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    worker = _Worker(target, generators) if cpus > 1 else None
    try:
        basis = staged_buchberger(presentation)
        remainder, _ = _divide(target, basis.elements, basis.order, False)
        if worker is not None and remainder.is_zero():
            found = worker.certificate(remainder)
            if found is not None and found.verify():
                return basis, found
        return basis, _macaulay_certificate(target, generators, remainder)
    finally:
        if worker is not None:
            worker.stop()


class _Worker:
    """The Macaulay search for target = sum(K_i * g_i) in a forked child process.

    The child writes its certificate to a pipe as one JSON certificate
    document (``certificate_to_document``) and leaves by ``os._exit``, so it
    never returns into the caller's stack.  A daemon thread in the child
    reads a second pipe, the lifeline, whose write end only the parent holds:
    its EOF ends the child, so the child dies with the parent even when the
    parent is killed before ``stop``.
    """

    def __init__(self, target: Polynomial, generators: tuple[Polynomial, ...]):
        self.target, self.generators = target, generators
        results, results_out = os.pipe()
        lifeline_in, self.lifeline = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(results)
                os.close(self.lifeline)
                threading.Thread(target=_exit_at_eof, args=(lifeline_in,), daemon=True).start()
                _send_certificate(results_out, target, generators)
                status = 0
            finally:
                os._exit(status)
        os.close(results_out)
        os.close(lifeline_in)
        self.results = os.fdopen(results, "rb")

    def certificate(self, remainder: Polynomial) -> MembershipCertificate | None:
        """The child's cofactors, in their integer form, with this side's target,
        generators and remainder, unverified; None unless it sent a certificate
        document over the target's ring."""
        try:
            sent = certificate_from_document(json.loads(self.results.read()))
        except ValueError:  # nothing sent, or not a certificate document
            return None
        if sent.target.vars != self.target.vars:
            return None
        return MembershipCertificate.from_numerators(
            self.target, self.generators, sent.numerators, sent.denominator, remainder)

    def stop(self) -> None:
        """Kill and reap the child and close both pipes."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.results.close()
        os.close(self.lifeline)


def _exit_at_eof(lifeline: int) -> None:
    os.read(lifeline, 1)  # the parent never writes: this returns when its end closes
    os._exit(1)


def _send_certificate(out: int, target: Polynomial, generators: tuple[Polynomial, ...]) -> None:
    found = _macaulay_certificate(target, generators, Polynomial.zero(target.vars))
    with os.fdopen(out, "w") as pipe:
        pipe.write(json.dumps(certificate_to_document(found)))


# -- low-degree certificates from Macaulay rows --------------------------

# Primes below 2**30, so residues stay single-digit CPython ints.  The list is
# fixed: the certificate found depends on nothing but the input.
_PRIMES = (1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717)


class _Echelon:
    """Rows modulo a prime in semi-echelon form, each pivot with its history.

    Rows are dicts handle -> int whose leading term is the smallest handle,
    as in the division kernel, numbered in the order they are added.
    ``add`` top-reduces a row by the pivots; a row left with a new lead
    becomes a monic pivot, a row that vanishes is dependent and dropped.
    Each pivot records the multiples of earlier pivots subtracted from its
    input row, so ``solve`` maps a vector of the span back to input rows with
    one backward sweep.  Values being reduced are taken modulo the prime only
    when they lead.

    The goal row is reduced as the rows go in, one at a time: it stops at
    ``goal_lead``, its first term without a pivot, and resumes only when
    ``add`` makes a pivot with that lead.  So ``goal_lead`` turns None at
    the first row that puts the goal in the span (at once for the empty
    goal {}), and ``solve`` then gives its input rows, as it gives each
    step of the Dixon lift on the same echelon.
    """

    def __init__(self, prime: int, goal: dict[int, int]):
        self.prime = prime
        self.added = 0
        self.pivot_at: dict[int, int] = {}  # lead handle -> pivot
        self.tails: list[list[tuple[int, int]]] = []
        self.rows: list[int] = []  # pivot -> its input row
        self.scales: list[int] = []  # pivot -> inverse of its reduced lead
        self.steps: list[list[tuple[int, int]]] = []  # pivot -> (earlier pivot, multiple)
        self.goal = goal  # the goal row, reduced up to goal_lead
        self._resume_goal()

    def _resume_goal(self) -> None:
        _, self.goal_lead, a = self._reduce(self.goal)
        if self.goal_lead is not None:
            self.goal[self.goal_lead] = a  # _reduce popped it

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
        if lead == self.goal_lead:
            self._resume_goal()
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
    """Rationals y_i congruent to values, or None; the result depends on the order.

    Let b = sqrt(modulus/2) and D_i the lcm of the denominators of y_0, ...,
    y_(i-1) (D_0 = 1).  Value i is multiplied by D_i, which usually leaves an
    integer and skips the Euclid steps, and read back as n/s in lowest terms
    with |n| <= b; then y_i = n/(D_i*s).  The list reconstructs only when every
    D_i*y_i has such a numerator and the lcm of all denominators is at most b.
    So with modulus 1073741789 (b = 23170), [1/6, 23170] gives None (6*23170 >
    b) while [23170, 1/6] reconstructs.
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


def _dixon(echelon: _Echelon, rows: dict[int, dict[int, int]], target: dict[int, int]):
    """Candidate rational y with sum(y_j * rows[j]) == target, by p-adic lifting.

    ``rows`` maps the support, input rows of the echelon, to their exact rows.
    Each step solves the residual on the echelon modulo its prime and divides
    what is left by the prime, so the running solution is exact modulo
    prime**steps.  A candidate, keyed like ``rows``, is yielded whenever every
    entry reconstructs as a rational; the caller checks it.  The steps stop at
    a Hadamard bound past which the true solution would have reconstructed, or
    when a residual needs a row outside the support (the prime was unlucky).
    """
    prime = echelon.prime
    # |numerators|, denominators <= |target| * prod |row_j| (Cramer, Hadamard)
    bits = (sum(sum(c * c for c in row.values()).bit_length() for row in rows.values())
            + sum(c * c for c in target.values()).bit_length() + 2)
    residual = dict(target)
    solution = dict.fromkeys(rows, 0)
    modulus = 1
    while modulus.bit_length() <= bits + prime.bit_length():
        step = echelon.solve({h: v % prime for h, v in residual.items()})
        if step is None or not step.keys() <= rows.keys():
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
            yield {j: Fraction(s) for j, s in solution.items()}
            return
        candidate = _reconstruct(list(solution.values()), modulus)
        if candidate is not None:
            yield dict(zip(solution, candidate))


def _macaulay_certificate(target: Polynomial, generators: tuple[Polynomial, ...],
                          remainder: Polynomial) -> MembershipCertificate:
    """A verified certificate target = sum(K_i * g_i) + remainder, K_i of low degree.

    target - remainder must lie in the ideal.  For D = its degree, D + 1,
    ... the rows mu * g_i with deg(mu * g_i) <= D that are not in yet go
    into an elimination modulo a prime (``_Echelon``) one row at a time, in
    ascending grevlex order of their leading monomials, ties by generator;
    smaller rows first gives smaller certificates than the reverse order.
    The elimination tracks the difference and stops at the first row that
    puts it in the span.  The solution modulo the prime, with the unknowns
    of dependent rows zero, picks its support rows, and Dixon lifting over
    them gives the exact cofactors, solving on the same elimination: one
    echelon per prime drives both the stop and the lift.  Whether a row
    becomes a pivot depends only on the rows before it, so the pivots at
    the stop are a prefix of those of any longer run; pivot rows are
    independent, so the solution over them is unique, and no row after the
    stop, nor any row outside the support, could change it.  A candidate is
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
        goal, goal_den = _scaled(pk, difference)
        gens, dens = zip(*(_scaled(pk, g) for g in generators))  # g_i = gens[i] / dens[i]
        leads = [min(g) for g in gens]
        degrees = [g.total_degree() for g in generators]
        multipliers = {}
        for prime in _PRIMES:
            residues = [[(h, c % prime) for h, c in g.items()] for g in gens]
            # A row mu * g_j is a combination of rows sorted before it, never a
            # pivot, and is skipped when some monomial of koszul[j] divides mu:
            # * Koszul: lc_i * lead_i * g_j = g_j * g_i - tail_i * g_j is a
            #   combination of rows m * g_i (m in g_j) and m * g_j (m in
            #   tail_i), all sorted before it, so koszul[j] starts with lead_i
            #   (i < j).
            # * Dependent rows (F5's rewritten rows): when mu * g_j reduces to
            #   zero, nu * mu * g_j is nu times the earlier rows it depends on,
            #   and each of those, multiplied, still sorts before it (leads and
            #   degree blocks are kept under multiplication), so mu joins.
            koszul = [[pk.monomial(leads[i]) for i in range(j) if gens[i][leads[i]] % prime]
                      for j in range(len(gens))]
            echelon = _Echelon(prime, {h: c % prime for h, c in goal.items()})
            rows: list[tuple[int, int]] = []  # (generator, multiplier handle)
            built, degree = -1, max(start, min(degrees))
            while echelon.goal_lead is not None:
                block = []
                for i, d in enumerate(degrees):
                    for m in range(max(built + 1 - d, 0), degree - d + 1):
                        if m not in multipliers:
                            multipliers[m] = _monomials_of_degree(pk, m)
                        block += [(-(mu + leads[i]), i, mu) for mu in multipliers[m]]
                block.sort()
                for _, i, mu in block:
                    monomial = pk.monomial(mu)
                    if not all((monomial - k) & pk.guard for k in koszul[i]):
                        continue
                    if not echelon.add({mu + h: c for h, c in residues[i]}):
                        koszul[i].append(monomial)
                    rows.append((i, mu))
                    if echelon.goal_lead is None:
                        break
                built, degree = degree, degree + 1
            support = sorted(echelon.solve({h: c % prime for h, c in goal.items()}))
            exact = {j: {rows[j][1] + h: c for h, c in gens[rows[j][0]].items()} for j in support}
            for values in _dixon(echelon, exact, goal):
                cofactors = [{} for _ in generators]
                for j, y in values.items():
                    if y:
                        i, mu = rows[j]
                        cofactors[i][mu] = y * dens[i] / goal_den
                found = certificate([_unpacked(pk, vars, k) for k in cofactors])
                if found.verify():
                    return found
        raise AssertionError("no prime gave a certificate that verifies")

    return _with_room(_Packing.fitting(GREVLEX, len(vars), [difference, *generators]), attempt)


# -- serialization -----------------------------------------------------

def basis_to_document(gb: GroebnerBasis) -> dict:
    _unlock_wide_integers()
    return {
        "format": BASIS_FORMAT,
        "variables": list(gb.presentation.vars.names),
        "order": gb.order.kind,
        "generators": [format_polynomial(g, gb.order) for g in gb.presentation.generators],
        "basis": [format_polynomial(g, gb.order) for g in gb.elements],
    }


def basis_from_document(doc: dict) -> GroebnerBasis:
    _unlock_wide_integers()
    if doc.get("format") != BASIS_FORMAT:
        raise ValueError(f"unsupported document format: {doc.get('format')!r}")
    vars = VariableSet(tuple(doc["variables"]))
    order = MonomialOrder(doc["order"])
    generators = tuple(parse_polynomial(t, vars) for t in doc["generators"])
    elements = [parse_polynomial(t, vars) for t in doc["basis"]]
    return GroebnerBasis(IdealPresentation(vars, order, generators), elements, {})
