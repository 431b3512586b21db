"""tools/ab.py, the same-process A/B of two source trees: its byte verdict, never a time.

The A/A half runs one round of each workload on two copies of src/, so it is also the
suite's check that the tool reads the same bytes from the same code.
"""

from __future__ import annotations

import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _ab(a: pathlib.Path, b: pathlib.Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-I", str(ROOT / "tools" / "ab.py"), str(a), str(b),
         "--workload", workload, "--rounds", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    root = tmp_path_factory.mktemp("ab")
    for tree in ("a", "b"):
        shutil.copytree(ROOT / "src", root / tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root / "a", root / "b"


# One round of each workload: its op count.
@pytest.mark.parametrize("workload, ops", [("verify", 38), ("scatter", 13), ("evolve", 5), ("certify", 7)])
def test_two_copies_of_the_sources_give_identical_bytes(trees, workload, ops):
    done = _ab(*trees, workload)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"ab: bytes: all {ops} ops identical in every repeat" in done.stdout, done.stdout
    assert not list(trees[0].parent.rglob("__pycache__"))


def test_an_edit_that_changes_every_report_shows_on_every_op(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    # One more space of JSON indent in B's reports: each verify report differs, and the tool says so.
    # Either quote, as the source and its ast.unparse (under tools/mutants.py) write the literal.
    cli = b / "src" / "moutard" / "cli.py"
    pattern = r"""inner = indent \+ (["'])  \1"""
    text, edits = re.subn(pattern, r"inner = indent + \1   \1", cli.read_text(encoding="utf-8"))
    assert edits == 1
    cli.write_text(text, encoding="utf-8")
    done = _ab(a, b, "verify")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "ab: bytes: 38 of 38 ops differ in repeat 0; the first is op 0: verify --roots=" in done.stdout, done.stdout
    assert not list(tmp_path.rglob("__pycache__"))
