"""Same-process A/B timing and output comparison of two moutard source trees on a bench workload.

    python3 tools/ab.py A B --workload verify [--seed 1] [--rounds R] [--repeats K]

A and B are directories that each hold ``src/moutard``, for example one made
by ``git archive <rev> src | tar -x -C <dir>``, or ``.`` for this checkout.
Both trees are loaded into this one interpreter, under the aliases
``moutard_a`` and ``moutard_b``.  The operations are those of the benchmark
(``bench/workloads.py``, imported, never written to): the first R rounds of
the workload at the seed (all of its rounds by default).  ``verify``,
``scatter`` and ``evolve`` operations run through each side's ``cli.main``,
with stdout and stderr captured; ``certify`` operations through each side's
``flow.evolve``, ``FaddeevParams`` and ``verify_eigenfunction_identity``, on
the side's ``cpoly.from_roots`` polynomial built before the clock starts, as
the benchmark builds it; their coefficients, roots and certificates are
written out by ``float.hex`` after the clock stops.

Each repeat runs the operations round by round: a round on one side, then on
the other, with ``gc.collect()`` between sides, alternating which side goes
first from round to round and from repeat to repeat, so that a drift in the
host's speed falls on both sides alike.  One warm-up repeat comes first and
its time is discarded.  The report states whether
every operation gave byte-identical outputs on both sides (exit status, stdout
and stderr), printing the first operation that differs with both of its
outputs; then the B/A time ratio of each timed repeat, their median, min and
max, the repeats B won, and the Python version and CPU count.  The exit
status is 1 on any byte difference, 0 otherwise; a ratio never fails.  An
operation's exception is compared like any output, apart from a MemoryError:
it ends the run with its traceback and no verdict, so a tree that allocates
without end under a memory cap fails at once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # neither bench/ nor the two trees gain a __pycache__

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(alias: str, tree: str) -> dict:
    """The moutard package under ``tree/src`` imported as ``alias``: its modules by name."""
    package = Path(tree).resolve() / "src" / "moutard"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab: no moutard sources under {package}")
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return {name: importlib.import_module(f"{alias}.{name}") for name in ("cli", "cpoly", "flow", "transform")}


def _hex(z: complex) -> str:
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def _run_cli(side: dict, argv: tuple[str, ...]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = side["cli"].main(list(argv))
        except SystemExit as e:
            status = f"SystemExit {e.code!r}"
        except MemoryError:
            raise
        except Exception as e:  # compared like any output
            status = f"raised {type(e).__name__}: {e}"
    return status, out.getvalue(), err.getvalue()


def _from_roots(side: dict, spec: dict) -> object:
    try:
        return side["cpoly"].from_roots(spec["roots"])
    except MemoryError:
        raise
    except Exception as e:  # compared like any output
        return e


def _run_certify(side: dict, p: object, spec: dict) -> object:
    """(P(t), [(lambda, roots, certificate)]) of one certify op from its polynomial p, or what it raised."""
    if isinstance(p, Exception):
        return p
    try:
        if spec["t"] is not None:
            p = side["flow"].evolve(p, spec["t"])
        results = []
        for lam in spec["lams"]:
            fp = side["transform"].FaddeevParams(p, lam)
            results.append((lam, fp.roots, side["transform"].verify_eigenfunction_identity(fp)))
    except MemoryError:
        raise
    except Exception as e:  # compared like any output
        return e
    return p, results


def _certify_output(raw: object) -> tuple[object, str, str]:
    if isinstance(raw, Exception):
        return f"raised {type(raw).__name__}: {raw}", "", ""
    p, results = raw
    lines = ["coeffs " + " ".join(map(_hex, p.coeffs))]
    for lam, roots, certificate in results:
        lines.append(f"lambda {_hex(lam)} roots {' '.join(map(_hex, roots))} certificate {certificate.hex()}")
    return 0, "\n".join(lines) + "\n", ""


def run_side(side: dict, ops: list) -> tuple[float, list[tuple[object, str, str]]]:
    """(seconds, outputs) of the ops on one side, back to back; only the ops' own work is timed."""
    if ops[0].argv:  # a workload's ops are all CLI ops or all certify ops
        gc.collect()
        start = time.perf_counter()
        outputs = [_run_cli(side, op.argv) for op in ops]
        return time.perf_counter() - start, outputs
    polys = [_from_roots(side, op.spec) for op in ops]
    gc.collect()
    start = time.perf_counter()
    raw = [_run_certify(side, p, op.spec) for p, op in zip(polys, ops)]
    elapsed = time.perf_counter() - start
    return elapsed, [_certify_output(r) for r in raw]


def make_rounds(workload: str, seed: int, rounds: int | None) -> list[list]:
    """The benchmark's ops for the workload and seed, drawn as ``bench/run.py`` draws them, in rounds."""
    sys.path.insert(0, str(BENCH))
    import workloads  # puts this checkout's src/ first on sys.path and imports moutard from it

    spec = workloads.WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [spec.make_round(rng, index) for index in range(spec.rounds if rounds is None else rounds)]


def _show(label: str, output: tuple[object, str, str]) -> None:
    status, out, err = output
    print(f"ab: {label} exit status {status!r}")
    print(f"--- {label} stdout\n{out}--- {label} stderr\n{err}--- end {label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory holding src/moutard, timed as A")
    parser.add_argument("b", help="directory holding src/moutard, timed as B")
    parser.add_argument("--workload", required=True, choices=("certify", "evolve", "scatter", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=None, help="rounds of the workload (default: all of them)")
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats after the warm-up")
    args = parser.parse_args(argv)
    for name in ("rounds", "repeats"):
        if getattr(args, name) is not None and getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")

    sides = {"A": load("moutard_a", args.a), "B": load("moutard_b", args.b)}
    rounds = make_rounds(args.workload, args.seed, args.rounds)
    ops = [op for block in rounds for op in block]
    print(f"ab: {args.workload} seed {args.seed}, {len(ops)} ops, {args.repeats} timed repeats after one warm-up")
    print(f"ab: A = {Path(args.a).resolve()}, B = {Path(args.b).resolve()}")

    ratios, wins, first_diff = [], 0, None
    for repeat in range(args.repeats + 1):
        seconds, outputs = {"A": 0.0, "B": 0.0}, {"A": [], "B": []}
        for index, block in enumerate(rounds):
            for name in ("A", "B") if (index + repeat) % 2 == 0 else ("B", "A"):
                elapsed, out = run_side(sides[name], block)
                seconds[name] += elapsed
                outputs[name] += out
        pairs = list(zip(outputs["A"], outputs["B"]))
        diffs = [i for i, (a, b) in enumerate(pairs) if a != b]
        if diffs and first_diff is None:
            first_diff = (repeat, diffs, *pairs[diffs[0]])
        if repeat:  # the warm-up's time is discarded
            ratios.append(seconds["B"] / seconds["A"])
            wins += seconds["B"] < seconds["A"]

    if first_diff is None:
        print(f"ab: bytes: all {len(ops)} ops identical in every repeat")
    else:
        repeat, diffs, out_a, out_b = first_diff
        op = ops[diffs[0]]
        print(f"ab: bytes: {len(diffs)} of {len(ops)} ops differ in repeat {repeat}; the first is op {diffs[0]}: "
              f"{' '.join(op.argv) if op.argv else op.spec}")
        _show("A", out_a)
        _show("B", out_b)
    print("ab: B/A per repeat: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"ab: B/A median {statistics.median(ratios):.3f}, min {min(ratios):.3f}, max {max(ratios):.3f}, "
          f"B faster in {wins}/{len(ratios)}")
    print(f"ab: Python {platform.python_version()}, os.cpu_count() {os.cpu_count()}")
    return 1 if first_diff is not None else 0


if __name__ == "__main__":
    sys.exit(main())
