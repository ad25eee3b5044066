"""Self-test of the benchmark: its gates catch wrong answers, its counters repeat.

Usage (from the repository root):

    python3 perfbench/selftest.py                 # gates and refusals, about 30 s
    python3 perfbench/selftest.py --repeat-runs   # also two traced runs per workload
    python3 perfbench/selftest.py --repeat-runs --certify   # include certify (~4 min)

Checks:
1. Tampered outputs fail their gate, untampered ones pass:
   - the stored flagship certificate with one cofactor coefficient changed,
     through the certify gate and through a full recheck pass;
   - the flagship artifact with one reduced-basis element dropped;
   - small-ideal bases with each element dropped in turn.
2. The benchmark refuses to run with BIROT4_MAX_PAIRS set, and fails without
   printing a result where the program's sources are missing.
3. With --repeat-runs: two traced runs with the same seed report identical
   exact counters (pair counts, basis sizes, coefficient digits, cofactor
   terms, verify term products, case steps, RK4 steps).
Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from birot4.poly import LEX, format_polynomial, parse_polynomial  # noqa: E402
from perftrace import EXACT_COUNTERS  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def check(name: str, ok: bool) -> None:
    RESULTS.append((name, ok))
    print(f"[{'ok' if ok else 'FAIL'}] {name}", flush=True)


def bump_one_coefficient(text: str, variables) -> str:
    poly = parse_polynomial(text, variables)
    mono = next(iter(poly.terms))
    terms = dict(poly.terms)
    terms[mono] *= 2
    return format_polynomial(type(poly)(variables, terms), LEX)


def gate_checks(tmp: Path) -> None:
    reference = workloads.flagship()
    stored = workloads.load_stored_certify()
    failures = workloads.check_certify_artifact(stored, reference)
    check("stored flagship artifact passes the certify gate", failures == [])

    tampered = copy.deepcopy(stored)
    cert_doc = tampered["payload"]["certificate"]
    variables = workloads.NORMALIZED_VARS
    cert_doc["cofactors"][2] = bump_one_coefficient(cert_doc["cofactors"][2], variables)
    failures = workloads.check_certify_artifact(tampered, reference)
    check("certificate with one cofactor coefficient changed fails the certify gate",
          any("re-expand" in f for f in failures))

    dropped = copy.deepcopy(stored)
    dropped["payload"]["basis"]["basis"].pop(3)
    failures = workloads.check_certify_artifact(dropped, reference)
    check("flagship basis with one element dropped fails the certify gate",
          any("digest" in f for f in failures))

    grid = workloads.sweep_grid(0)
    result = workloads.recheck_pass(workloads.RecheckInputs(tampered, grid), tmp)
    failures = workloads.check_recheck(result, tmp, len(grid))
    check("tampered certificate fails the recheck gate (verify and case VII)",
          any("re-verify" in f for f in failures) and any("case VII" in f for f in failures))

    batch = workloads.small_ideal_batch(0, blocks=3)
    clean, caught, total = True, 0, 0
    for gens, target in batch:
        gb, cert, verified, _ = workloads.certify_ideal(gens, target)
        clean &= workloads.check_small_ideal(gens, gb.elements, cert, verified) == []
        for k in range(len(gb.elements)):
            elements = gb.elements[:k] + gb.elements[k + 1:]
            total += 1
            caught += bool(workloads.check_small_ideal(gens, elements, cert, verified))
    check(f"{len(batch)} untampered small ideals pass the small_ideals gate", clean)
    check(f"every basis with one element dropped fails the small_ideals gate "
          f"({caught}/{total})", caught == total)


def run_bench(args: list[str], cwd: Path, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def refusal_checks(tmp: Path) -> None:
    env = dict(os.environ, BIROT4_MAX_PAIRS="100")
    proc = run_bench(["--workload", "recheck", "--seed", "1", "--seconds", "1"], ROOT, env)
    check("refuses to run with BIROT4_MAX_PAIRS set",
          proc.returncode != 0 and "correct" not in proc.stdout)

    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(["--workload", "certify", "--seed", "1", "--seconds", "1"], bare)
    check("fails without a result where src/birot4 is missing",
          proc.returncode != 0 and "correct" not in proc.stdout)


def repeat_checks(names: list[str]) -> None:
    for name in names:
        counters = []
        for _ in range(2):
            proc = run_bench(["--workload", name, "--seed", "7", "--seconds", "1",
                              "--trace", "1"], ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counters.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTERS})
        differ = [k for k in EXACT_COUNTERS if counters[0][k] != counters[1][k]]
        check(f"{name}: exact counters repeat between two traced runs"
              + (f", except {differ}" if differ else ""), not differ)


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--repeat-runs", action="store_true")
    parser.add_argument("--certify", action="store_true")
    args = parser.parse_args()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        gate_checks(tmp)
        refusal_checks(tmp)
        if args.repeat_runs:
            repeat_checks(["small_ideals", "recheck"] + (["certify"] if args.certify else []))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
