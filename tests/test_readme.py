"""The README's examples run, and what it cites exists.

Every ``moutard ...`` line of the "CLI usage" block goes through ``cli.main``
and must exit 0 with a report that parses.  The Python blocks under "Library
example" run in one namespace, and each value a comment there states is
checked.  Two drift guards hold the README to the code: every backticked
module-qualified name resolves, and the acceptance-gate criteria it lists are
those ``tests/test_acceptance.py`` gates.
"""

from __future__ import annotations

import ast
import csv
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest
from helpers import run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = ("cpoly", "transform", "flow", "scattering", "wirtinger", "verdict", "cli", "errors")
FENCED = re.compile(r"^```.*?^```$", re.M | re.S)


def _section(heading: str) -> str:
    """The text under ``heading`` up to the next heading of its level or above, outside fenced blocks."""
    unfenced = FENCED.sub(lambda m: " " * len(m[0]), README)  # same offsets; a shell comment is no heading
    start = unfenced.index(f"\n{heading}\n") + len(heading) + 2
    level = len(heading) - len(heading.lstrip("#"))
    end = re.compile(rf"^#{{1,{level}}} ", re.M).search(unfenced, start)
    return README[start:end.start() if end else len(README)]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


CLI_LINES = [line for block in _blocks(_section("## CLI usage"), "sh")
             for line in block.splitlines() if line.startswith("moutard ")]
PY_BLOCKS = _blocks(_section("## Library example"), "python")


def _format(argv: list[str]) -> str:
    for i, arg in enumerate(argv):
        if arg.startswith("--format"):
            return arg.partition("=")[2] or argv[i + 1]
    return "json"


def test_the_cli_usage_block_has_examples():
    assert len(CLI_LINES) >= 5, CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_cli_example_exits_0_with_a_report_that_parses(line):
    argv = shlex.split(line)[1:]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, ""), line
    if _format(argv) == "csv":
        header, *rows = csv.reader(l for l in out.splitlines() if not l.startswith("#"))
        assert header and rows, line
        assert all(len(row) == len(header) for row in rows), line
    else:
        assert isinstance(json.loads(out), dict), line


def test_library_examples_run_and_give_the_values_their_comments_state():
    assert len(PY_BLOCKS) == 2, PY_BLOCKS
    namespace: dict[str, object] = {}
    for block in PY_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    # A line "<expression>  # <number> ..." states the value; "# ≈ <number>" states it to 1e-9.
    claims = {
        m[1]: (bool(m[2]), float(m[3]))
        for block in PY_BLOCKS
        for m in re.finditer(r"^(\S.*?)\s+#\s*(≈\s*)?(-?\d+(?:\.\d+)?)\b", block, re.M)
    }
    assert claims == {
        "transform.verify_eigenfunction_identity(fp)": (False, 0.0),
        "est.a": (True, -3.0),
        "scattering.count_deltas(est.a, fp.lam)": (False, 3.0),
    }
    for expression, (approximate, value) in claims.items():
        got = eval(expression, namespace)
        if approximate:
            assert abs(got - value) < 1e-9, (expression, got)
        else:
            assert got == value, (expression, got)


def _cited_names() -> list[str]:
    """Every backticked ``<module>.<name>...`` in the README's prose, ``moutard.`` prefix dropped."""
    prose = FENCED.sub("", README)
    pattern = re.compile(rf"(?<![\w.])(?:moutard\.)?((?:{'|'.join(MODULES)})(?:\.\w+)+)")
    return sorted({name for span in re.findall(r"`([^`\n]+)`", prose) for name in pattern.findall(span)})


def test_every_cited_module_name_resolves():
    names = _cited_names()
    assert names
    for name in names:
        module, *attributes = name.split(".")
        obj = importlib.import_module(f"moutard.{module}")
        for attribute in attributes:
            assert hasattr(obj, attribute), f"README cites `{name}`, which does not resolve"
            obj = getattr(obj, attribute)


def test_acceptance_criteria_are_the_gated_ones():
    criteria = re.findall(r"^(\d+)\. \*\*([\w-]+)\*\*", _section("### Acceptance gate"), re.M)
    listed = [(int(n), name) for n, name in criteria]
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    gated = sorted(
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_gate"
    )
    assert len(gated) == 9
    assert listed == gated
