"""The benchmark's three workloads: seeded inputs, timed passes and gates.

``certify``       One pass is one cold ``python -m birot4.cli certify`` process,
                  run in an empty directory that is also its HOME and
                  XDG_CACHE_HOME, so no cache can turn it into a lookup.  The
                  input is the paper's system; the seed is unused.
``small_ideals``  One pass is one ideal of a seeded batch of small random
                  ideals over x, y, z: lex basis with provenance, certificate
                  for a seeded member, its verification and its documents.
``recheck``       One pass re-checks the stored flagship proof without any
                  Groebner search: parse, verify, the seven cases, derive,
                  both simulate presets and a seeded sweep.

Every pass's output goes through a gate; each miss is a failed operation.
Passes run closed-loop in one client: the next starts when the last ends.
A run makes passes while the next one is expected to end within its
measuring time, and at least one; a certify or re-check run reports the
median pass.  Re-check runs start with one untimed warm-up pass.  Small
ideals are each timed at least BEST_OF times and keep their best time.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from birot4 import cases, cli, groebner, numeric
from birot4.constraints import NORMALIZED_VARS, extract_system
from birot4.fixtures import CERTIFICATE_TARGET_TEXT
from birot4.poly import LEX, Polynomial, parse_polynomial, variables
from birot4.series import ProfileIVP, solve_profile_ivp

from perftrace import EXACT_COUNTERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
STORED_CERTIFY = HERE / "data" / "flagship_certify.json.gz"

# sha256("\n".join(reduced lex basis))[:16] of the flagship ideal.  The reduced
# basis is unique for the ideal and the order, so every correct program keeps it.
FLAGSHIP_BASIS_DIGEST = "390b07d859747985"

SMALL_VARS = variables("x", "y", "z")
# Generator degrees of one block of 16 ideals: two or three generators, each of
# degree 1 or 2, in exactly the proportions of independent fair choices.  Fixing
# the mix per block keeps seeds from drawing very different shares of the rare,
# expensive three-quadric ideals.
SHAPE_BLOCK = ((1, 1),) * 2 + ((1, 2),) * 4 + ((2, 2),) * 2 + ((1, 1, 1),) \
    + ((1, 1, 2),) * 3 + ((1, 2, 2),) * 3 + ((2, 2, 2),)
SMALL_BLOCKS = 48
SWEEP_POINTS = 32
RECHECK_CHECKS = 14  # verify, seven cases, three derives, two presets, sweep
# The host's speed swings by up to 2x within seconds.  Each small ideal is
# timed at least this many times, several seconds apart, and its best time
# is kept.
BEST_OF = 4


@dataclass
class Outcome:
    """What one benchmark run measured and what its gate found."""

    pass_seconds: list[float] = field(default_factory=list)
    artifact_bytes: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    def gate(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def child_env(home: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), HOME=str(home), XDG_CACHE_HOME=str(home))
    return env


def cold_import(tmp: Path) -> None:
    """Start-up every CLI run pays: a fresh interpreter importing the package."""
    subprocess.run([sys.executable, "-c", "import birot4.cli"], cwd=tmp,
                   env=child_env(tmp), check=True)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(seconds: float, run_pass) -> None:
    """Call ``run_pass()`` closed-loop while the next call is expected to end
    within ``seconds`` of the start, and at least once.

    The expected end assumes the next call takes the mean time so far, so a
    run measures for about ``seconds`` and never for much longer.
    """
    start = time.perf_counter()
    calls = 0
    while True:
        run_pass()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# -- certify ----------------------------------------------------------------


@dataclass(frozen=True)
class Flagship:
    target: Polynomial
    generators: tuple[Polynomial, ...]


def flagship() -> Flagship:
    system = extract_system(solve_profile_ivp(ProfileIVP()), "VII")
    return Flagship(parse_polynomial(CERTIFICATE_TARGET_TEXT, NORMALIZED_VARS),
                    tuple(system.polynomials()))


def basis_digest(basis_texts: list[str]) -> str:
    return hashlib.sha256("\n".join(basis_texts).encode()).hexdigest()[:16]


def check_certify_artifact(doc: dict, reference: Flagship) -> list[str]:
    """Gate one certify artifact; returns its failures.

    Besides the flags the program wrote, the stored certificate is parsed
    and re-expanded here, so a wrong certificate cannot pass on its flags.
    """
    payload = doc["payload"]
    failures = [f"{flag} is not true" for flag in ("identity_holds", "remainder_zero")
                if payload.get(flag) is not True]
    basis = payload["basis"]["basis"]
    digest = basis_digest(basis)
    if digest != FLAGSHIP_BASIS_DIGEST:
        failures.append(f"reduced lex basis digest {digest} != {FLAGSHIP_BASIS_DIGEST}")
    cert = groebner.certificate_from_document(payload["certificate"])
    if cert.target != reference.target:
        failures.append("certificate target is not p*t^4")
    if cert.generators != reference.generators:
        failures.append("certificate generators are not the extracted system")
    if not cert.verify():
        failures.append("certificate identity does not re-expand")
    if not cert.remainder.is_zero():
        failures.append("certificate remainder is not zero")
    return failures


def run_certify_process(tmp: Path, index: int, spans: Path | None = None):
    """One cold certify process; returns (seconds, peak RSS MB, exit code, workdir)."""
    workdir = tmp / f"certify-{index}"
    workdir.mkdir()
    if spans is None:
        cmd = [sys.executable, "-m", "birot4.cli"]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
    cmd += ["certify", "--output", "certify.json"]
    with open(tmp / f"certify-{index}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(workdir),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, workdir


class Certify:
    name = "certify"
    wall = staticmethod(statistics.median)

    def prepare(self, seed: int, tmp: Path) -> Flagship:
        return flagship()

    def _pass(self, reference: Flagship, tmp: Path, outcome: Outcome,
              spans: Path | None = None) -> None:
        index = len(outcome.pass_seconds)
        seconds, rss, code, workdir = run_certify_process(tmp, index, spans)
        outcome.pass_seconds.append(seconds)
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss)
        artifact = workdir / "certify.json"
        if code != 0 or not artifact.is_file():
            outcome.gate(1, [f"certify exited with code {code}"])
            return
        outcome.artifact_bytes.append(artifact.stat().st_size)
        outcome.gate(1, check_certify_artifact(json.loads(artifact.read_text()), reference))

    def measure(self, reference: Flagship, seconds: float, tmp: Path) -> Outcome:
        outcome = Outcome()
        timed_passes(seconds, lambda: self._pass(reference, tmp, outcome))
        return outcome

    def traced(self, reference: Flagship, seconds: float, tmp: Path) -> Outcome:
        """One traced pass in its own cold process.

        Exact counters of two traced runs are compared by selftest.py; one
        pass already takes about a minute.
        """
        outcome = Outcome()
        spans = tmp / "spans.json"
        self._pass(reference, tmp, outcome, spans)
        if spans.is_file():
            outcome.layers = layer_metrics(json.loads(spans.read_text()),
                                           outcome.pass_seconds[0])
        else:
            outcome.gate(1, ["traced certify wrote no spans"])
        return outcome


# -- small ideals -----------------------------------------------------------


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return [(a, b, c) for a in range(degree + 1) for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)]


def random_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """Nonzero polynomial of degree <= ``degree``, coefficients in [-3, 3]."""
    monomials = _monomials(degree)
    while True:
        terms = {}
        for mono in monomials:
            if rng.random() < 0.4:
                coeff = rng.randint(-3, 3)
                if coeff:
                    terms[mono] = Fraction(coeff)
        if terms:
            return Polynomial(SMALL_VARS, terms)


def small_ideal_batch(seed: int, blocks: int = SMALL_BLOCKS):
    """Seeded (generators, member) pairs; the member is sum(h_i * g_i), deg h_i <= 1."""
    rng = random.Random(seed)
    batch = []
    for _ in range(blocks):
        for shape in SHAPE_BLOCK:
            degrees = list(shape)
            rng.shuffle(degrees)
            gens = tuple(random_polynomial(rng, d) for d in degrees)
            target = Polynomial.zero(SMALL_VARS)
            while target.is_zero():
                for g in gens:
                    target = target + random_polynomial(rng, 1) * g
            batch.append((gens, target))
    return batch


def certify_ideal(gens, target):
    """The timed work for one ideal; returns (basis, certificate, verified, bytes)."""
    presentation = groebner.IdealPresentation(SMALL_VARS, LEX, gens)
    gb = groebner.staged_buchberger(presentation, track_provenance=True)
    cert = groebner.certify_membership(presentation, target, basis=gb)
    verified = cert.verify()
    text = json.dumps({"basis": groebner.basis_to_document(gb),
                       "certificate": groebner.certificate_to_document(cert)})
    return gb, cert, verified, len(text)


def check_small_ideal(gens, elements, cert, verified) -> list[str]:
    """Gate: the certificate verifies and the basis is a Groebner basis of the ideal.

    Generators reducing to zero puts the ideal inside the basis's ideal; the
    S-pair criterion makes the elements a Groebner basis.  Together they
    catch a reduced basis with any element missing.
    """
    failures = []
    if not (verified and cert.is_member):
        failures.append("membership certificate does not verify")
    if not all(groebner.reduce(g, elements, LEX)[0].is_zero() for g in gens):
        failures.append("a generator does not reduce to zero against the basis")
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            s = groebner.s_polynomial(elements[i], elements[j], LEX)
            if not groebner.reduce(s, elements, LEX)[0].is_zero():
                failures.append(f"S-pair ({i}, {j}) of the basis does not reduce to zero")
                return failures
    return failures


class SmallIdeals:
    name = "small_ideals"
    # The batch mixes shapes whose costs differ 20-fold, and a median over
    # the ideals sits on the edge between two shapes.
    wall = staticmethod(statistics.geometric_mean)

    def prepare(self, seed: int, tmp: Path):
        return small_ideal_batch(seed)

    def _sweep(self, batch, outcome: Outcome, repeats: int = 1, seconds: float = 0.0,
               tracer: Tracer | None = None) -> float:
        """Certify every ideal ``repeats`` times, cycling on while under ``seconds``.

        Records each ideal's best time; returns the summed time of all passes.
        """
        best = [math.inf] * len(batch)
        start = time.perf_counter()
        timed = 0.0
        index = 0
        while index < repeats * len(batch) or time.perf_counter() - start < seconds:
            slot = index % len(batch)
            gens, target = batch[slot]
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            gb, cert, verified, size = certify_ideal(gens, target)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            timed += elapsed
            best[slot] = min(best[slot], elapsed)
            if index < len(batch):
                outcome.artifact_bytes.append(size)
            failures = check_small_ideal(gens, gb.elements, cert, verified)
            outcome.gate(1, [f"ideal {slot}: {f}" for f in failures])
            index += 1
        outcome.pass_seconds.extend(best)
        return timed

    def measure(self, batch, seconds: float, tmp: Path) -> Outcome:
        outcome = Outcome()
        self._sweep(batch, outcome, BEST_OF, seconds)
        outcome.peak_rss_mb = self_peak_rss_mb()
        return outcome

    def traced(self, batch, seconds: float, tmp: Path) -> Outcome:
        outcome = Outcome()
        return traced_in_process(outcome, lambda tracer: self._sweep(batch, outcome,
                                                                     tracer=tracer))


# -- recheck ----------------------------------------------------------------


def load_stored_certify() -> dict:
    with gzip.open(STORED_CERTIFY, "rt") as fh:
        return json.load(fh)


def sweep_grid(seed: int) -> list[dict[str, float]]:
    """Seeded non-minimal data inside the ranges of the CLI's default sweep grid.

    beta stays at or above 0.35 so every point admits consistent initial data
    and integrates over the whole window.
    """
    rng = random.Random(seed)
    return [{"r0": 1.0, "r1": rng.uniform(0.0, 0.2), "c0": rng.uniform(0.0, 0.4),
             "c1": rng.uniform(0.0, 0.1), "alpha": rng.uniform(0.0, 0.5),
             "beta": rng.uniform(0.35, 0.7)} for _ in range(SWEEP_POINTS)]


@dataclass(frozen=True)
class RecheckInputs:
    stored: dict
    grid: list


def recheck_pass(inputs: RecheckInputs, tmp: Path) -> dict:
    """The timed work: re-check the stored proof and re-run the cheap commands.

    The result's "seconds" maps each step's name to its wall time.
    """
    step_seconds: dict[str, float] = {}

    def step(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        step_seconds[name] = time.perf_counter() - start
        return result

    cert = step("parse", groebner.certificate_from_document,
                inputs.stored["payload"]["certificate"])
    verified = step("verify", cert.verify)
    reports = step("cases", cases.check_all_cases, cert)
    codes = {}
    for case in ("V", "VI", "VII"):
        name = f"derive-{case}"
        codes[name] = step(name, _quiet, cli.main,
                           ["derive", "--case", case, "--output", str(tmp / f"{name}.json")])
    for preset in ("catenoid", "cylinder"):
        name = f"simulate-{preset}"
        codes[name] = step(name, _quiet, cli.main,
                           ["simulate", "--preset", preset, "--output", str(tmp / f"{name}.json")])
    sweep = step("sweep", numeric.sweep_nonminimal, inputs.grid)
    text = step("format", lambda: json.dumps(groebner.certificate_to_document(cert)))
    return {"cert": cert, "verified": verified, "reports": reports, "codes": codes,
            "sweep": sweep, "bytes": len(text), "seconds": step_seconds}


def check_recheck(result: dict, tmp: Path, points: int) -> list[str]:
    """Gate: 14 checks, verify + 7 cases + 3 derives + 2 presets + sweep."""
    failures = []
    if not (result["verified"] and result["cert"].is_member):
        failures.append("stored certificate does not re-verify")
    for report in result["reports"]:
        if report.verdict != "contradiction-verified":
            failures.append(f"case {report.case_id}: {report.verdict}")
    for name, code in result["codes"].items():
        payload = json.loads((tmp / f"{name}.json").read_text())["payload"]
        if name.startswith("derive"):
            ok = payload["all_match"] is True
        elif name == "simulate-catenoid":
            ok = payload["within_thresholds"] is True
        else:
            # The frozen cylinder curvature misses c'' = c by exactly one, so
            # only its biharmonic residual is expected to exceed the threshold.
            residuals = payload["residuals"]
            ok = (abs(residuals["biharmonic"] - 1.0) < 1e-6
                  and max(residuals["arc_defect"], residuals["compatibility"])
                  <= payload["threshold"])
        if code != 0 or not ok:
            failures.append(f"{name}: exit code {code}, result not as expected")
    rows = result["sweep"].rows
    if len(rows) != points or any(row.status != "ok" for row in rows):
        failures.append("sweep: " + ", ".join(sorted({row.status for row in rows})))
    return failures


class Recheck:
    name = "recheck"
    wall = staticmethod(statistics.median)

    def prepare(self, seed: int, tmp: Path) -> RecheckInputs:
        return RecheckInputs(load_stored_certify(), sweep_grid(seed))

    def _pass(self, inputs: RecheckInputs, tmp: Path, outcome: Outcome,
              tracer: Tracer | None = None) -> dict[str, float]:
        """One pass; returns each step's wall time."""
        if tracer is not None:
            tracer.enabled = True
        result = recheck_pass(inputs, tmp)
        if tracer is not None:
            tracer.enabled = False
        outcome.artifact_bytes.append(result["bytes"])
        outcome.gate(RECHECK_CHECKS, check_recheck(result, tmp, len(inputs.grid)))
        return result["seconds"]

    def measure(self, inputs: RecheckInputs, seconds: float, tmp: Path) -> Outcome:
        """One untimed warm-up pass, then timed passes filling ``seconds``.

        The first pass in a process is the slowest (the heap grows to its
        working size), so it is gated but not timed.
        """
        outcome = Outcome()
        self._pass(inputs, tmp, outcome)
        timed_passes(seconds, lambda: outcome.pass_seconds.append(
            sum(self._pass(inputs, tmp, outcome).values())))
        outcome.peak_rss_mb = self_peak_rss_mb()
        return outcome

    def traced(self, inputs: RecheckInputs, seconds: float, tmp: Path) -> Outcome:
        outcome = Outcome()
        return traced_in_process(
            outcome, lambda tracer: sum(self._pass(inputs, tmp, outcome, tracer).values()))


def traced_in_process(outcome: Outcome, sweep) -> Outcome:
    """Two traced sweeps over the same inputs; their exact counters must repeat.

    ``sweep(tracer)`` runs the workload's inputs once and returns its timed
    seconds.  Per-layer times are the mean of the two sweeps.
    """
    tracer = Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            tracer.reset()
            wall = sweep(tracer)
            runs.append(layer_metrics(tracer.dump(), wall))
    finally:
        tracer.uninstall()
    first, second = runs
    differ = [k for k in EXACT_COUNTERS if first[k] != second[k]]
    outcome.gate(1, [f"exact counters differ between two traced sweeps: {differ}"]
                 if differ else [])
    outcome.layers = {k: first[k] if k in EXACT_COUNTERS else statistics.fmean((first[k], second[k]))
                      for k in first}
    return outcome


WORKLOADS = {w.name: w for w in (Certify(), SmallIdeals(), Recheck())}
