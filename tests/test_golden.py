"""Golden-output oracle: sha256 digests of outputs that must not drift.

The ops are every ``moutard`` command of the console-script step in
``.github/workflows/tests.yml``, and the first rounds of the benchmark's
``verify``, ``scatter``, ``evolve`` and ``certify`` workloads at seeds 1 and 7,
drawn by ``bench/workloads.py`` as ``bench/run.py`` draws them.  A CLI op runs
in-process through ``cli.main`` and is digested as (exit status, stdout,
stderr); a certify op as the repr of its coefficients and certificate values.
``golden.json`` maps each op's name to its digest, in order.  An intended
output change rewrites it, and the change names each op it moved; the writer
prints how many digests changed, were added or were removed, and their names:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORKFLOW = HERE.parent / ".github" / "workflows" / "tests.yml"
sys.path.append(str(HERE.parent / "bench"))
import workloads  # noqa: E402  (puts the checkout's src/ first on sys.path)

from helpers import run_cli  # noqa: E402

WORKLOADS = ("verify", "scatter", "evolve", "certify")
ROUNDS = 2
SEEDS = (1, 7)
# A moutard command at the start of a line, after "; " or inside "$(", up to a
# line continuation, "||", a redirection or the closing parenthesis.
_COMMAND = re.compile(r"(?:^|; |\$\()(?:timeout \d+ )?moutard((?: [^|)\\]*?)?)(?= \\$| \|\|| 2>&1|\)|$)")


def ci_commands() -> list[list[str]]:
    """The argv of every ``moutard`` command of the CI console-script step, in order."""
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: console script\n")[1].split("- name:")[0]
    return [shlex.split(m.group(1)) for line in step.splitlines() for m in _COMMAND.finditer(line.strip())]


def _outputs():
    """(name, output) of every golden op, in order."""
    for argv in ci_commands():
        yield "ci: moutard " + shlex.join(argv), run_cli(argv)
    for name in WORKLOADS:
        for seed in SEEDS:
            rng = random.Random(f"{name}/{seed}")  # bench/run.py's generator for this workload and seed
            for r in range(ROUNDS):
                for i, op in enumerate(workloads.WORKLOADS[name].make_round(rng, r)):
                    yield f"{name} seed {seed} round {r} op {i}", run_cli(op.argv) if op.argv else workloads.execute(op)


def digests() -> dict[str, str]:
    """Op name -> sha256 of the repr of its output.  Help text is laid out for COLUMNS=80."""
    return {name: hashlib.sha256(repr(output).encode()).hexdigest() for name, output in _outputs()}


def test_outputs_match_the_golden_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden, got = json.loads(GOLDEN.read_text(encoding="utf-8")), digests()
    differ = [name for name in {**golden, **got} if golden.get(name) != got.get(name)]
    assert not differ, f"{len(differ)} ops differ from {GOLDEN.name}, the first is {differ[0]!r}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    os.environ["COLUMNS"] = "80"
    old, new = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}, digests()
    for kind, names in (("changed", [n for n in new if n in old and old[n] != new[n]]),
                        ("added", [n for n in new if n not in old]), ("removed", [n for n in old if n not in new])):
        print(f"{len(names)} {kind}", *names, sep="\n  ")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
