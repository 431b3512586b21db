"""tools/mutants.py, the mutant census against tier-1, on a toy tree of one function and one test."""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _census(root: pathlib.Path, test: str) -> tuple[subprocess.CompletedProcess, ...]:
    """Two runs of the tool on a toy tree whose one test is ``test``; neither writes a file into the tree."""
    files = {"src/moutard/__init__.py": "", "src/moutard/toy.py": "def unit(x):\n    return x * 1\n",
             "tests/test_toy.py": f"from moutard.toy import unit\n\n\ndef test_unit():\n    {test}\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    (root / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "mutants.py", root / "tools")
    argv = [sys.executable, "-I", str(root / "tools" / "mutants.py"), "toy:unit"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120) for _ in range(2)]
    assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()) == [*files, "tools/mutants.py"]
    return runs


def test_each_mutant_is_named_with_its_outcome_and_two_runs_print_the_same(tmp_path):
    first, second = _census(tmp_path, "assert unit(4) == 4")  # x / 1 == 4 passes, x * 2 fails
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout.splitlines() == [
        "toy:unit#1 L2:11 * -> /  survived  -",
        "toy:unit#2 L2:15 1 -> 2  killed  tests/test_toy.py::test_unit",
        "function  mutants  killed  survived  timeout",
        "toy:unit        2       1         1        0",
    ]
    assert second.stdout == first.stdout


def test_a_tree_whose_tests_fail_unmutated_is_refused(tmp_path):
    first, second = _census(tmp_path, "assert unit(4) == 5")
    assert (first.returncode, first.stdout) == (1, "mutants: tier-1 does not pass on the unmutated unparse "
                                                   "of toy: tests/test_toy.py::test_unit\n")
    assert second.stdout == first.stdout
