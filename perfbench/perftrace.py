"""In-memory span tracer that times birot4's public functions from outside.

``install`` replaces module attributes with timing wrappers in every loaded
``birot4`` module that holds the function, so calls made inside the package
(``certify_membership`` -> ``staged_buchberger`` -> ``buchberger``, the case
checks -> ``count_real_roots``) are caught as well as the benchmark's own.
Spans carry name, start, end and parent; they stay in memory and are turned
into per-layer metrics once a traced run ends.  Nothing under ``src/`` is
edited: callers in the benchmark must reach traced functions through their
module (``groebner.staged_buchberger``), not through a name bound earlier.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# (module, attribute); "Class.method" patches the class attribute.
TRACED = (
    ("birot4.cli", "main"),
    ("birot4.series", "solve_profile_ivp"),
    ("birot4.constraints", "extract_system"),
    ("birot4.constraints", "system_to_document"),
    ("birot4.groebner", "staged_buchberger"),
    ("birot4.groebner", "buchberger"),
    ("birot4.groebner", "certify_membership"),
    ("birot4.groebner", "MembershipCertificate.verify"),
    ("birot4.groebner", "certificate_from_document"),
    ("birot4.groebner", "certificate_to_document"),
    ("birot4.groebner", "basis_to_document"),
    ("birot4.cases", "check_case_I"),
    ("birot4.cases", "check_case_II"),
    ("birot4.cases", "check_case_III"),
    ("birot4.cases", "check_case_IV"),
    ("birot4.cases", "check_case_V"),
    ("birot4.cases", "check_case_VI"),
    ("birot4.cases", "check_case_VII"),
    ("birot4.cases", "report_to_document"),
    ("birot4.univariate", "count_real_roots"),
    ("birot4.univariate", "resultant_univariate"),
    ("birot4.numeric", "integrate_profile"),
    ("birot4.numeric", "sweep_nonminimal"),
)

PAIR_STATS = ("pairs_considered", "pairs_reduced", "skipped_chain", "skipped_coprime")

_LOG10_2 = 0.30102999566398120


def decimal_digits(n: int) -> int:
    """Exact decimal digit count of |n| without str(), which is quadratic."""
    n = abs(n)
    digits = int(max(n.bit_length() - 1, 0) * _LOG10_2) + 1
    while n >= 10 ** digits:
        digits += 1
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return digits


def max_coeff_digits(polys) -> int:
    """Widest numerator or denominator over the polynomials' coefficients."""
    widest = 0
    for p in polys:
        for c in p.terms.values():
            for part in (c.numerator, c.denominator):
                if part.bit_length() > widest.bit_length():
                    widest = abs(part)
    return decimal_digits(widest) if widest else 0


class Tracer:
    """Collects spans and exact counters while ``enabled`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.overhead = 0.0  # seconds spent in the wrappers themselves
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans, self.counts, self.peaks, self.overhead = [], {}, {}, 0.0

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def _nested_in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            nested = self._nested_in(name)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, result, nested)
            self.overhead += time.perf_counter() - entered - (span[2] - span[1])
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a birot4 module binds it."""
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            name = module_name.split(".")[-1] + "." + attr.split(".")[-1]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "birot4" and not mod_name.startswith("birot4."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "peaks": self.peaks,
                "overhead": self.overhead}


# -- observers: exact counters read from each traced call's result ------


def _observe_buchberger(tracer, args, result, nested):
    kind = args[0].order.kind
    for key in PAIR_STATS:
        tracer.count(key, result.stats[key])
    tracer.count(f"pairs_considered_{kind}", result.stats["pairs_considered"])
    tracer.count(f"pairs_reduced_{kind}", result.stats["pairs_reduced"])


def _observe_staged(tracer, args, result, nested):
    tracer.count("basis_size", len(result.elements))
    tracer.peak("basis_digits", max_coeff_digits(result.elements))


def _observe_certify(tracer, args, result, nested):
    if nested:  # the pivot route recurses; count only the certificate returned
        return
    tracer.count("cofactor_terms", sum(len(c.terms) for c in result.cofactors))
    tracer.peak("cofactor_digits", max_coeff_digits(result.cofactors))


def _observe_verify(tracer, args, result, nested):
    cert = args[0]
    tracer.count("verify_term_products",
                 sum(len(k.terms) * len(g.terms) for k, g in zip(cert.cofactors, cert.generators)))


def _observe_extract(tracer, args, result, nested):
    tracer.count("equation_terms", sum(len(p.terms) for p in result.polynomials()))


def _observe_integrate(tracer, args, result, nested):
    tracer.count("rk4_steps", len(result.states) - 1)


def _observe_case(tracer, args, result, nested):
    tracer.count("case_steps", len(result.steps))
    tracer.count("case_failed_steps", len(result.failed_steps()))


_OBSERVERS = {
    "groebner.buchberger": _observe_buchberger,
    "groebner.staged_buchberger": _observe_staged,
    "groebner.certify_membership": _observe_certify,
    "groebner.verify": _observe_verify,
    "constraints.extract_system": _observe_extract,
    "numeric.integrate_profile": _observe_integrate,
    **{f"cases.check_case_{c}": _observe_case
       for c in ("I", "II", "III", "IV", "V", "VI", "VII")},
}


# -- per-layer metrics ------------------------------------------------------


def span_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover; spans nest on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
    return out


# Spans whose self time is Groebner search and certificate work.
GROEBNER_SEARCH = ("groebner.staged_buchberger", "groebner.buchberger",
                   "groebner.certify_membership", "groebner.verify")

# name -> (unit, better); the order here is the order printed.
LAYER_METRICS = {
    "groebner.staged_buchberger_s": ("s", "lower"),
    "groebner.staged_buchberger_p90_s": ("s", "lower"),
    "groebner.buchberger_s": ("s", "lower"),
    "groebner.certify_membership_s": ("s", "lower"),
    "groebner.verify_s": ("s", "lower"),
    "groebner.buchberger_calls": ("count", "lower"),
    "groebner.pairs_considered": ("count", "lower"),
    "groebner.pairs_reduced": ("count", "lower"),
    "groebner.skipped_chain": ("count", "higher"),
    "groebner.skipped_coprime": ("count", "higher"),
    "groebner.useful_pair_ratio": ("ratio", "higher"),
    "groebner.grevlex_pairs_considered": ("count", "lower"),
    "groebner.grevlex_pairs_reduced": ("count", "lower"),
    "groebner.lex_pairs_considered": ("count", "lower"),
    "groebner.lex_pairs_reduced": ("count", "lower"),
    "groebner.basis_size": ("count", "lower"),
    "groebner.basis_max_coeff_digits": ("digits", "lower"),
    "groebner.cofactor_terms": ("count", "lower"),
    "groebner.cofactor_max_coeff_digits": ("digits", "lower"),
    "groebner.wall_share": ("ratio", "lower"),
    "poly.verify_term_products": ("count", "lower"),
    "poly.parse_s": ("s", "lower"),
    "poly.format_s": ("s", "lower"),
    "cases.case_I_s": ("s", "lower"),
    "cases.case_II_s": ("s", "lower"),
    "cases.case_III_s": ("s", "lower"),
    "cases.case_IV_s": ("s", "lower"),
    "cases.case_V_s": ("s", "lower"),
    "cases.case_VI_s": ("s", "lower"),
    "cases.case_VII_s": ("s", "lower"),
    "cases.steps": ("count", "higher"),
    "cases.failed_steps": ("count", "lower"),
    "univariate.count_real_roots_s": ("s", "lower"),
    "univariate.resultant_s": ("s", "lower"),
    "univariate.calls": ("count", "lower"),
    "series.solve_profile_ivp_s": ("s", "lower"),
    "constraints.extract_system_s": ("s", "lower"),
    "constraints.equation_terms": ("count", "lower"),
    "numeric.sweep_s": ("s", "lower"),
    "numeric.integrate_s": ("s", "lower"),
    "numeric.rk4_steps": ("count", "lower"),
    "cli.main_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Counters that must repeat exactly between two traced executions of one input.
EXACT_COUNTERS = (
    "groebner.buchberger_calls", "groebner.pairs_considered", "groebner.pairs_reduced",
    "groebner.skipped_chain", "groebner.skipped_coprime",
    "groebner.grevlex_pairs_considered", "groebner.grevlex_pairs_reduced",
    "groebner.lex_pairs_considered", "groebner.lex_pairs_reduced",
    "groebner.basis_size", "groebner.basis_max_coeff_digits", "groebner.cofactor_terms",
    "groebner.cofactor_max_coeff_digits", "poly.verify_term_products", "cases.steps",
    "cases.failed_steps", "univariate.calls", "constraints.equation_terms",
    "numeric.rk4_steps",
)


def layer_metrics(dump: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced execution, from its dump.

    ``trace.overhead_frac`` is the time the wrappers spent outside the spans
    they time (bookkeeping and counters) over the traced wall time without
    it.  The host's speed swings too much within a run for the difference of
    a traced and an untraced wall time to resolve it.
    """
    times = span_times(dump["spans"])
    counts, peaks = dump["counts"], dump["peaks"]

    def total(name):
        return times.get(name, {}).get("total", 0.0)

    def own(name):
        return times.get(name, {}).get("self", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    considered = counts.get("pairs_considered", 0)
    staged = sorted(end - start for name, start, end, _ in dump["spans"]
                    if name == "groebner.staged_buchberger")
    metrics = {
        "groebner.staged_buchberger_s": total("groebner.staged_buchberger"),
        # nearest-rank 90th percentile of one call's time
        "groebner.staged_buchberger_p90_s":
            staged[max(math.ceil(0.9 * len(staged)) - 1, 0)] if staged else 0.0,
        "groebner.buchberger_s": own("groebner.buchberger"),
        "groebner.certify_membership_s": own("groebner.certify_membership"),
        "groebner.verify_s": total("groebner.verify"),
        "groebner.buchberger_calls": calls("groebner.buchberger"),
        **{f"groebner.{key}": counts.get(key, 0) for key in PAIR_STATS},
        "groebner.useful_pair_ratio": counts.get("pairs_reduced", 0) / considered
        if considered else 0.0,
        **{f"groebner.{kind}_{key}": counts.get(f"{key}_{kind}", 0)
           for kind in ("grevlex", "lex") for key in ("pairs_considered", "pairs_reduced")},
        "groebner.basis_size": counts.get("basis_size", 0),
        "groebner.basis_max_coeff_digits": peaks.get("basis_digits", 0),
        "groebner.cofactor_terms": counts.get("cofactor_terms", 0),
        "groebner.cofactor_max_coeff_digits": peaks.get("cofactor_digits", 0),
        "groebner.wall_share": sum(own(n) for n in GROEBNER_SEARCH) / traced_wall,
        "poly.verify_term_products": counts.get("verify_term_products", 0),
        "poly.parse_s": total("groebner.certificate_from_document"),
        "poly.format_s": sum(total(n) for n in times if n.endswith("_to_document")),
        **{f"cases.case_{c}_s": total(f"cases.check_case_{c}")
           for c in ("I", "II", "III", "IV", "V", "VI", "VII")},
        "cases.steps": counts.get("case_steps", 0),
        "cases.failed_steps": counts.get("case_failed_steps", 0),
        "univariate.count_real_roots_s": total("univariate.count_real_roots"),
        "univariate.resultant_s": total("univariate.resultant_univariate"),
        "univariate.calls": calls("univariate.count_real_roots")
        + calls("univariate.resultant_univariate"),
        "series.solve_profile_ivp_s": total("series.solve_profile_ivp"),
        "constraints.extract_system_s": total("constraints.extract_system"),
        "constraints.equation_terms": counts.get("equation_terms", 0),
        "numeric.sweep_s": total("numeric.sweep_nonminimal"),
        "numeric.integrate_s": total("numeric.integrate_profile"),
        "numeric.rk4_steps": counts.get("rk4_steps", 0),
        "cli.main_s": total("cli.main"),
        "trace.overhead_frac": dump["overhead"] / (traced_wall - dump["overhead"]),
    }
    assert list(metrics) == list(LAYER_METRICS)
    return metrics
