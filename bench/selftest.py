"""Self-test of the output checks: each must accept a real output and reject
every corruption of it listed below.

    python3 bench/selftest.py

Exit status 0 when every check behaved, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import checks
import workloads


def _edit(edit):
    """A corruption of a CLI output (rc, JSON text) that edits the parsed report."""

    def corrupt(out):
        rep = json.loads(out[1])
        edit(rep)
        return out[0], json.dumps(rep)

    return corrupt


def _set(rep: dict, path: str, value) -> None:
    *keys, last = (int(k) if k.isdigit() else k for k in path.split("."))
    for key in keys:
        rep = rep[key]
    rep[last] = value(rep[last]) if callable(value) else value


def _swap_labels(rep: dict) -> None:
    # A quarter of the way in: away from the cubic's collision at the middle,
    # where labels may legitimately permute.
    k = len(rep["times"]) // 4
    p0, p1 = rep["paths"][0], rep["paths"][1]
    p0[k:], p1[k:] = p1[k:], p0[k:]


def _exit_status(out):
    return 1, out[1]


VERIFY = [
    ("nonzero exit status", _exit_status),
    ("all_passed flipped", _edit(lambda r: _set(r, "all_passed", False))),
    ("false FAIL", _edit(lambda r: (_set(r, "checks.moutard_residual", False), _set(r, "all_passed", False)))),
    ("root moved by 1e-6", _edit(lambda r: _set(r, "roots.0.re", lambda v: v + 1e-6))),
    ("identity residual not exactly 0", _edit(lambda r: _set(r, "results.identity_residual", 5e-324))),
    ("recovered count off by one", _edit(lambda r: _set(r, "scattering.recovered_count", lambda v: v + 1))),
    ("a off by 1e-6", _edit(lambda r: _set(r, "scattering.a.re", lambda v: v * (1 + 1e-6)))),
    ("b of 2e-8", _edit(lambda r: _set(r, "scattering.b.re", 2e-8))),
    ("lambda not echoed", _edit(lambda r: _set(r, "lambda.re", lambda v: v + 1e-12))),
]
VERIFY_KNOWN_FAULT = [
    ("scattering fails as well", _edit(lambda r: _set(r, "checks.scattering_abs_b", False))),
    ("identity residual not exactly 0", _edit(lambda r: _set(r, "results.identity_residual", 1e-300))),
]
SCATTER = [
    ("nonzero exit status", _exit_status),
    ("a off by 1e-6", _edit(lambda r: _set(r, "a.im", lambda v: v + 1e-6 * abs(v) + 1e-9))),
    ("b of 2e-8", _edit(lambda r: (_set(r, "b.re", 2e-8), _set(r, "abs_b", 2e-8)))),
    ("abs_b disagrees with b", _edit(lambda r: _set(r, "abs_b", lambda v: v * 2 + 1e-20))),
    ("recovered count off by one", _edit(lambda r: _set(r, "recovered_count", lambda v: v - 1))),
    ("wrong sample count", _edit(lambda r: _set(r, "samples", 32))),
    ("expected_a wrong", _edit(lambda r: _set(r, "expected_a.re", lambda v: v + 1e-9))),
]
EVOLVE_RING = [
    ("nonzero exit status", _exit_status),
    ("labels swapped along a path", _edit(_swap_labels)),
    ("root moved by 1e-6 at one sample", _edit(lambda r: _set(r, "paths.1.7.im", lambda v: v + 1e-6))),
    ("sample dropped", _edit(lambda r: (r["times"].pop(), [p.pop() for p in r["paths"]]))),
    ("time off the grid", _edit(lambda r: _set(r, "times.3", lambda v: v + 1e-9))),
    ("event at a time never sampled", _edit(lambda r: r["events"].append(
        {"t_approx": 0.123456789, "roots_involved": [0, 1], "min_separation": 1e-4}))),
]
EVOLVE_CUBIC = [
    ("collision event dropped", _edit(lambda r: r["events"].clear())),
    ("collision reported twice", _edit(lambda r: r["events"].append(copy.deepcopy(r["events"][0])))),
    ("collision at the wrong time", _edit(lambda r: _set(r, "events.0.t_approx", lambda v: r["times"][0]))),
    ("root off its cube-root branch by 1e-8", _edit(lambda r: _set(r, "paths.2.20.re", lambda v: v + 1e-8))),
]


def _certify_edit(edit):
    def corrupt(out):
        coeffs, results = out
        coeffs, results = list(coeffs), list(results)
        edit(coeffs, results)
        return tuple(coeffs), results

    return corrupt


CERTIFY = [
    ("residual not exactly 0", _certify_edit(lambda c, r: r.__setitem__(2, (r[2][0], 5e-324)))),
    ("root count wrong", _certify_edit(lambda c, r: r.__setitem__(0, (r[0][0] - 1, r[0][1])))),
    ("certificate missing", _certify_edit(lambda c, r: r.pop())),
]
CERTIFY_EVOLVED = [
    ("evolved coefficient off", _certify_edit(lambda c, r: c.__setitem__(1, c[1] * (1 + 1e-6) + 1e-6))),
]


def main() -> int:
    rng = random.Random("selftest")
    rounds = {name: wl.make_round(rng, 0) for name, wl in workloads.WORKLOADS.items()}
    cases = [
        ("verify", rounds["verify"][3], False, VERIFY),  # degree 4
        ("verify", rounds["verify"][-1], True, VERIFY_KNOWN_FAULT),  # degree 10
        ("scatter", rounds["scatter"][0], False, SCATTER),
        ("evolve", rounds["evolve"][0], False, EVOLVE_RING),
        ("evolve", rounds["evolve"][-1], False, EVOLVE_RING[1:] + EVOLVE_CUBIC),
        ("certify", rounds["certify"][0], False, CERTIFY),
        ("certify", rounds["certify"][1], False, CERTIFY + CERTIFY_EVOLVED),
    ]
    misses = 0
    for name, op, known_fault, corruptions in cases:
        check = workloads.WORKLOADS[name].check
        out = workloads.execute(op)
        try:
            verdict = check(op.spec, out)
        except checks.CheckFailed as e:
            print(f"MISS {name}: the real output was rejected: {e}")
            misses += 1
            continue
        if verdict != known_fault:
            print(f"MISS {name}: known-fault verdict {verdict}, expected {known_fault}")
            misses += 1
        for label, corrupt in corruptions:
            try:
                check(op.spec, corrupt(out))
            except checks.CheckFailed as e:
                print(f"ok   {name}: {label}: {e}")
            else:
                print(f"MISS {name}: {label} was accepted")
                misses += 1
    print(f"selftest: {misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
