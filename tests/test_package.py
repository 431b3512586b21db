"""Package-level guards: stdlib-only imports and a resolvable, pinned public API."""

from __future__ import annotations

import ast
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
        "AmbiguousMatching", "CollisionEvent", "ComplexPoly", "DELTA_WEIGHT", "DegenerateDesign",
        "DeltaPotential", "FaddeevParams", "InconsistentData", "InsufficientRoots", "IoFailure",
        "MoutardError", "NearPole", "NonConvergence", "NonFinite", "RadiusTooSmall", "RootSet",
        "RootTrajectory", "ScatteringEstimate", "ZeroLambda", "count_deltas", "d_z", "d_zbar",
        "differentiate", "evolve", "expected_a", "fit_scattering", "from_roots", "gradient",
        "harmonicity_check", "horner", "laplacian", "min_root_separation", "moutard_residual",
        "potential_at", "residual_checks", "residual_sample_points", "roots", "sample_mu",
        "trajectory", "transformed_potential", "verify_eigenfunction_identity", "verify_flow",
    ]
