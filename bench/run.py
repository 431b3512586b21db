"""Benchmark for moutard: one workload per run, checked outputs, one JSON line.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is driven from outside, in one
process with one caller: CLI operations through ``moutard.cli.main(argv)``
with stdout captured, library operations through the public modules.

Every run executes the workload's fixed number of rounds of operations (see
workloads.Workload.rounds), sized to take about 20 s at a reference speed;
--seconds is accepted for a uniform command line but does not choose the
list of operations.  An untraced run (--trace 0) prints the end-to-end
metrics, with every time scaled to the reference speed (see calibrate.py).  A
traced run (--trace 1) wraps moutard's layers (see tracing.py), prints the
per-layer metrics and writes its spans under bench/results/.  Every output is
checked in both modes.  The last line of
stdout is the result object; the exit status is 0 when the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import checks
import workloads
from tracing import Tracer

SETUP_REPEATS = 9
BENCH = workloads.ROOT / "bench"
RESULTS = BENCH / "results"

# What every invocation of the moutard command pays before it does any work,
# scaled to the reference speed like every other time (see calibrate.py).
# calibrate is imported after the timed import, so that the modules it
# imports (fractions) are not loaded before moutard asks for them.
SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import moutard, moutard.cli
moutard.cli.build_parser()
elapsed = time.perf_counter() - start
assert moutard.__file__.startswith(sys.argv[2]), moutard.__file__
import calibrate
print(repr(elapsed * calibrate.scale()))
"""


def measure_setup() -> float:
    """Median over fresh interpreters of importing moutard and building the parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(BENCH), str(workloads.SRC)],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run(workload: workloads.Workload, seed: int, tracer: Tracer | None) -> dict:
    rng = random.Random(f"{workload.name}/{seed}")
    durations: list[float] = []  # at the reference speed
    raw: list[float] = []  # as measured
    failed = 0
    problems: list[str] = []
    loop_start = time.perf_counter()
    for round_index in range(workload.rounds):
        for op in workload.make_round(rng, round_index):
            if tracer is not None:
                tracer.op = len(durations)
            scale = calibrate.scale()
            start = time.perf_counter()
            try:
                out = workloads.execute(op)
            except Exception:  # an operation that raises is a failed, wrong operation
                out = None
                problems.append(traceback.format_exc(limit=3))
            raw.append(time.perf_counter() - start)
            durations.append(raw[-1] * scale)
            if tracer is not None:
                tracer.close_op(scale)
            if out is None:
                failed += 1
                continue
            if tracer is not None and op.argv:
                tracer.counts["cli.report_bytes"] += len(out[1].encode())
            try:
                failed += workload.check(op.spec, out)
            except checks.CheckFailed as e:
                failed += 1
                problems.append(f"{workload.name} round {round_index}: {e}")
    return {"durations": durations, "raw": raw, "failed": failed, "problems": problems, "rounds": workload.rounds,
            "wall_s": time.perf_counter() - loop_start}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted for a uniform command line; the rounds are fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else measure_setup()
    tracer = Tracer().install() if args.trace else None
    try:
        res = run(workload, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    durations = res["durations"]
    attempted = len(durations)
    if tracer is not None:
        metrics = tracer.per_layer(attempted)
    else:
        metrics = {
            "ops_per_s": {"value": attempted / sum(durations), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(durations) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(durations, n=10)[8] * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    for problem in res["problems"][:5]:
        print(f"bench: {problem}", file=sys.stderr)
    result = {"correct": not res["problems"], "attempted": attempted, "failed": res["failed"], "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "rounds": res["rounds"], "loop_wall_s": res["wall_s"],
              "timed_s": sum(res["raw"]), "ref_ops_per_s": attempted / sum(durations),
              "raw_ops_per_s": attempted / sum(res["raw"]),
              "raw_op_p50_ms": statistics.median(res["raw"]) * 1e3, "problems": res["problems"],
              "python": platform.python_version(), "nproc": os.cpu_count()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
