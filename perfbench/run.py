"""birot4 benchmark: one closed-loop client, one process, no worker pools.

Usage (from the repository root):

    python3 perfbench/run.py --workload {certify,small_ideals,recheck} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
variant and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every gated operation produced a correct result.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from perftrace import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("certify", "small_ideals", "recheck")

# name -> unit; printed with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if "BIROT4_MAX_PAIRS" in os.environ:
        return fail("BIROT4_MAX_PAIRS is set; it caps the S-pair search and so changes "
                    "the program under test. Unset it to benchmark.")
    if not (SRC / "birot4" / "__init__.py").is_file():
        return fail(f"no birot4 sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workloads.cold_import(tmp)
            inputs = workload.prepare(args.seed, tmp)
            setup_times.append(time.perf_counter() - start)
        run = workload.traced if args.trace else workload.measure
        outcome = run(inputs, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(outcome.failures)
    for message in outcome.failures[:20]:
        print(f"GATE FAIL: {message}", file=sys.stderr)
    times = outcome.pass_seconds
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{outcome.attempted} gated operations, {failed} failed "
          f"(fail ratio {failed}/{outcome.attempted})"
          + ("" if args.trace else f"; {len(times)} pass times"))
    if args.trace:
        layers = outcome.layers or dict.fromkeys(LAYER_METRICS, 0.0)  # only on failure
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values = {
            "wall_s": workload.wall(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": outcome.peak_rss_mb,
            "artifact_mb": statistics.median(outcome.artifact_bytes) / 1e6
            if outcome.artifact_bytes else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": max(outcome.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
