"""Package-level guards: stdlib-only imports, a resolvable, pinned public API and
the names the benchmark tracer wraps."""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import sys

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
    missing = [name for name in moutard.__all__ if not hasattr(moutard, name)]
    assert missing == []
    assert len(set(moutard.__all__)) == len(moutard.__all__)


def test_public_surface_is_pinned():
    assert sorted(moutard.__all__) == [
        "AmbiguousMatching", "CollisionEvent", "ComplexPoly", "DegenerateDesign", "DeltaPotential",
        "FaddeevParams", "InconsistentData", "InsufficientRoots", "IoFailure", "MoutardError",
        "NearPole", "NonConvergence", "NonFinite", "RadiusTooSmall", "RootSet", "RootTrajectory",
        "ScatteringEstimate", "ZeroLambda", "count_deltas", "differentiate", "evolve", "expected_a",
        "fit_scattering", "from_roots", "harmonicity_check", "horner", "min_root_separation",
        "moutard_residual", "residual_checks", "residual_sample_points", "roots", "sample_mu",
        "trajectory", "transformed_potential", "verify_eigenfunction_identity", "verify_flow",
    ]


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
