"""Package-level guards: stdlib-only imports, a resolvable, pinned public API and
the names the benchmark tracer wraps."""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import subprocess
import sys
import types

import moutard

PACKAGE = pathlib.Path(moutard.__file__).parent


def test_imports_are_relative_or_stdlib():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_every_public_name_resolves():
    for name in moutard.__all__:
        module = getattr(moutard, name)
        assert isinstance(module, types.ModuleType), name
        assert module.__name__ == f"moutard.{name}", name
    assert len(set(moutard.__all__)) == len(moutard.__all__)


def test_public_surface_is_pinned():
    assert moutard.__all__ == ["cpoly", "errors", "flow", "scattering", "transform", "wirtinger"]


def test_importing_the_package_does_not_load_the_cli():
    # The command line, and argparse with it, stays out of library imports.
    code = "import sys, moutard; print('moutard.cli' in sys.modules, 'argparse' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {code}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["False", "False"]


def test_every_traced_layer_resolves():
    # bench/tracing.py wraps these names by attribute lookup; a refactor that
    # deletes or renames one would otherwise crash only the traced benchmark.
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("moutard_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _, _ in tracing.LAYERS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert tracing.LAYERS and missing == []
