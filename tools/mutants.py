"""Single-operator mutants of named moutard functions, each run against tier-1.

    python3 tools/mutants.py cpoly:_aberth transform:_defect transform:FaddeevParams._t

Each argument names a function as ``module:qualname``, the module being
``src/moutard/<module>.py`` of the checkout that holds this file.  A mutant
changes one operator of that function:

- a binary or augmented ``+`` into ``-`` and back, ``*`` into ``/`` and back;
- an int constant into itself + 1, a float constant into itself * (1 + 1e-6);
- ``<`` into ``<=``, ``>`` into ``>=``, ``==`` into ``!=``, and back;
- a unary minus dropped.

The mutants of a function come in the order of ``ast.walk`` over its body,
the operators of a chained comparison left to right, and are numbered from 1.
Each is the ``ast.unparse`` of the mutated module.  The files tier-1 reads are
copied to a temporary directory, so the checkout is never written; no
``__pycache__`` is written either.  There tier-1 runs as
``pytest -x -q -p no:cacheprovider tests`` with ``PYTHONPATH=src``,
``PYTHONHASHSEED=0`` and no plugin autoloaded: first with every named module replaced by its unmutated
unparse, which must pass within ``TIMEOUT`` seconds (else the exit status is
1), then once per mutant.  A mutant's run is stopped after ``SLOWDOWN`` times
the unmutated run's time, or ``TIMEOUT`` seconds if that is less, and each of
its processes may map at most ``HEADROOM`` times the unmutated run's peak
resident size, so a mutant that allocates without end fails with a
MemoryError instead of filling the machine.  A mutant is killed when tier-1
fails, survived when it passes, and timeout when it is stopped.

One line per mutant gives its name, outcome and first failing test (``-`` if
none), then a table gives each function's counts.  Nothing in the report
depends on the clock, so two runs on one tree print the same text unless a
mutant runs close to its time limit or its memory cap.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
# What tier-1 reads: the package and its tests, and the README, bench/, tools/ab.py and the CI
# workflow that some tests check against the code.
TREE = ("src", "tests", "bench", "tools", ".github", "README.md", "pyproject.toml")
TIMEOUT = 300  # seconds per tier-1 run; tier-1 takes about 15 s on 2 cores
# A mutant's limits, as multiples of the unmutated run's: its wall time (at most TIMEOUT), and the address space
# of each of its processes against the run's peak resident size.  The unmutated tier-1 peaks near 48 MB resident
# and 54 MB mapped (Python 3.11, Linux), so 4 times that peak leaves every process of a sound run room to spare.
SLOWDOWN, HEADROOM = 4, 4
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests")

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _function(tree: ast.Module, qualname: str) -> ast.AST | None:
    node = tree
    for name in qualname.split("."):
        node = next((n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return None
    return node


def _sites(function: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """(node, operator index or None, description) of every mutant of the function, in enumeration order."""
    sites = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SYMBOLS:
            sites.append((node, None, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            sites.append((node, None, f"{node.value!r} -> {_constant(node.value)!r}"))
        elif isinstance(node, ast.Compare):
            sites += [(node, k, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}")
                      for k, op in enumerate(node.ops) if type(op) in SYMBOLS]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sites.append((node, None, "unary - dropped"))
    return sites


def _constant(value: int | float) -> int | float:
    return value + 1 if type(value) is int else value * (1 + 1e-6)


def _mutate(function: ast.AST, node: ast.AST, index: int | None) -> None:
    """Apply one site's mutation in place; a dropped unary minus leaves its operand in its parent."""
    if isinstance(node, ast.Constant):
        node.value = _constant(node.value)
    elif isinstance(node, ast.Compare):
        node.ops[index] = SWAPS[type(node.ops[index])]()
    elif isinstance(node, ast.UnaryOp):
        for parent in ast.walk(function):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list):
                    value[:] = [node.operand if item is node else item for item in value]
    else:
        node.op = SWAPS[type(node.op)]()


def _mutants(spec: str) -> list[tuple[str, str, str]]:
    """(name, module, mutated source) of every mutant that the spec names."""
    module, _, qualname = spec.partition(":")
    path = ROOT / "src" / "moutard" / f"{module}.py"
    source = path.read_text(encoding="utf-8") if path.is_file() else ""
    if not qualname or _function(ast.parse(source), qualname) is None:
        raise SystemExit(f"mutants: {spec!r} is not module:qualname of a function under {path.parent}")
    out = []
    for number in range(len(_sites(_function(ast.parse(source), qualname)))):
        tree = ast.parse(source)
        function = _function(tree, qualname)
        node, index, description = _sites(function)[number]
        name = f"{spec}#{number + 1} L{node.lineno}:{node.col_offset} {description}"
        _mutate(function, node, index)
        out.append((name, module, ast.unparse(tree)))
    return out


def _tier1(tree: Path, timeout: float = TIMEOUT, memory: int | None = None) -> tuple[str, str]:
    """(outcome, first failing test or '-') of one tier-1 run in the tree; memory caps each process's address space."""
    # Tier-1 needs pytest alone, so no installed plugin is loaded.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    cap = None if memory is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    process = subprocess.Popen(PYTEST, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, start_new_session=True, preexec_fn=cap)
    try:
        out, _ = process.communicate(timeout=timeout)
    except (subprocess.TimeoutExpired, KeyboardInterrupt) as stop:
        os.killpg(process.pid, signal.SIGKILL)  # pytest and whatever its tests started
        process.communicate()
        if isinstance(stop, KeyboardInterrupt):
            raise
        return "timeout", "-"
    if process.returncode == 0:
        return "survived", "-"
    failed = [line.partition(" ")[2].split(" - ")[0]
              for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"pytest exit {process.returncode}"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    mutants = {spec: _mutants(spec) for spec in dict.fromkeys(argv)}
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        for entry in TREE:
            source = ROOT / entry
            if source.is_dir():
                shutil.copytree(source, tree / entry, ignore=shutil.ignore_patterns("__pycache__"))
            elif source.is_file():
                shutil.copy2(source, tree / entry)
        package = tree / "src" / "moutard"
        unparsed = {m: ast.unparse(ast.parse((package / f"{m}.py").read_text(encoding="utf-8")))
                    for m in sorted({spec.partition(":")[0] for spec in mutants})}
        for module, text in unparsed.items():
            (package / f"{module}.py").write_text(text, encoding="utf-8")
        start = time.monotonic()
        outcome, test = _tier1(tree)
        timeout = min(TIMEOUT, SLOWDOWN * (time.monotonic() - start))
        # ru_maxrss (KiB on Linux) of the largest process waited for so far: the unmutated run is the only one.
        memory = HEADROOM * 1024 * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if outcome != "survived":
            print(f"mutants: tier-1 does not pass on the unmutated unparse of {', '.join(unparsed)}: "
                  + (test if outcome == "killed" else f"timeout after {TIMEOUT} s"))
            return 1
        counts = {}
        for spec, specimens in mutants.items():
            row = counts[spec] = {"mutants": len(specimens), "killed": 0, "survived": 0, "timeout": 0}
            for name, module, text in specimens:
                (package / f"{module}.py").write_text(text, encoding="utf-8")
                outcome, test = _tier1(tree, timeout, memory)
                (package / f"{module}.py").write_text(unparsed[module], encoding="utf-8")
                print(f"{name}  {outcome}  {test}", flush=True)
                row[outcome] += 1
    width = max(len("function"), *map(len, counts))
    print(f"{'function':<{width}}  mutants  killed  survived  timeout")
    for spec, row in counts.items():
        print(f"{spec:<{width}}  {row['mutants']:>7}  {row['killed']:>6}  {row['survived']:>8}  {row['timeout']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
