"""Package-level guards: stdlib-only, lean imports, a resolvable, pinned public
API, the names the benchmark tracer wraps and the semantics of the record types."""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import pickle
import subprocess
import sys
import types

import pytest

import moutard
from moutard import cpoly, flow, scattering, transform

PACKAGE = pathlib.Path(moutard.__file__).parent


def _fresh(code: str, *flags: str) -> str:
    """stdout of code run in a new isolated interpreter that imports moutard from this checkout."""
    done = subprocess.run(
        [sys.executable, "-I", *flags, "-c", f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {code}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout


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
    code = "import moutard; print('moutard.cli' in sys.modules, 'argparse' in sys.modules)"
    assert _fresh(code).split() == ["False", "False"]


def test_the_command_line_loads_no_dataclasses_inspect_or_typing():
    # Each costs milliseconds on every command.  -S, because a site module may
    # preload typing itself.
    code = (
        "import moutard, moutard.cli; moutard.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    assert _fresh(code, "-S").strip() == "[]"


WELL_FORMED = [
    ["eigen", "--roots", "1;-1", "--lambda", "2", "--z", "3;4i"],
    ["verify", "--roots", "1;-1;0.5i", "--lambda=2"],
    ["scatter", "--roots", "1;2", "--lambda", "1"],
    ["evolve", "--roots", "1;2", "--t0", "0", "--t1", "0.5", "--steps", "3"],
    ["evolve", "--roots", "1;2", "--t0", "0", "--t1", "0.5", "--steps", "3", "--format", "csv"],
    ["potential", "--roots", "1;2", "--t0", "0.5"],
]


def test_a_well_formed_command_loads_no_argparse_json_or_re():
    # Each costs milliseconds on every command, as do functools and collections,
    # which argparse and re import.  -S, because a site module may preload re.
    # Only a command the reader declines pays for argparse.
    code = (
        "import io, moutard.cli; sys.stdout = sys.stderr = io.StringIO(); "
        f"codes = [moutard.cli.main(argv) for argv in {WELL_FORMED!r}]; "
        "loaded = sorted({'argparse', 'json', 're', 'gettext', 'locale', 'enum', 'functools', 'collections'} "
        "& set(sys.modules)); "
        "declined = moutard.cli.main(['verify', '--roots=1', '--lambda=2', '--bogus']); "
        "sys.__stdout__.write(repr((codes, loaded, declined, 'argparse' in sys.modules)))"
    )
    assert ast.literal_eval(_fresh(code, "-S")) == ([0] * len(WELL_FORMED), [], 2, True)


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


_P = "ComplexPoly(coeffs=(2j, (-1-2j), (1+0j)))"
_EVENT = "CollisionEvent(t_approx=0.5, roots_involved=(0, 1), min_separation=0.0001)"

# (record, its repr, an equal record, a record that differs in one compared field)
RECORDS = [
    pytest.param(
        lambda: cpoly.from_roots([1, 2j]), _P,
        lambda: cpoly.ComplexPoly((2j, -1 - 2j, 1)), lambda: cpoly.ComplexPoly((2j, -1, 1)),
        id="ComplexPoly",
    ),
    pytest.param(
        lambda: cpoly.RootSet((1 + 0j, 2j), sweeps=1, worst_residual=0.0),
        "RootSet(roots=((1+0j), 2j), sweeps=1, worst_residual=0.0)",
        lambda: cpoly.RootSet((1 + 0j, 2j), 7, 1e-13), lambda: cpoly.RootSet((2j, 1 + 0j), 1, 0.0),
        id="RootSet",
    ),
    pytest.param(
        lambda: transform.DeltaPotential((1j,)), "DeltaPotential(centers=(1j,))",
        lambda: transform.DeltaPotential([1j]), lambda: transform.DeltaPotential((2j,)),
        id="DeltaPotential",
    ),
    pytest.param(
        lambda: transform.FaddeevParams(cpoly.from_roots([1, 2j]), 2), f"FaddeevParams(p={_P}, lam=(2+0j))",
        lambda: transform.FaddeevParams(cpoly.ComplexPoly((2j, -1 - 2j, 1)), 2 + 0j),
        lambda: transform.FaddeevParams(cpoly.from_roots([1, 2j]), 2j),
        id="FaddeevParams",
    ),
    pytest.param(
        lambda: scattering.ScatteringEstimate(1 + 1j, 0j, 0.5, 10.0, 8),
        "ScatteringEstimate(a=(1+1j), b=0j, fit_residual=0.5, radius=10.0, samples=8)",
        lambda: scattering.ScatteringEstimate(a=1 + 1j, b=0j, fit_residual=0.5, radius=10.0, samples=8),
        lambda: scattering.ScatteringEstimate(1 + 1j, 0j, 0.5, 10.0, 9),
        id="ScatteringEstimate",
    ),
    pytest.param(
        lambda: flow.CollisionEvent(0.5, (0, 1), 1e-4), _EVENT,
        lambda: flow.CollisionEvent(t_approx=0.5, roots_involved=(0, 1), min_separation=1e-4),
        lambda: flow.CollisionEvent(0.5, (0, 1), 2e-4),
        id="CollisionEvent",
    ),
    pytest.param(
        lambda: flow.RootTrajectory((0.0, 1.0), ((1j, 2j),), (flow.CollisionEvent(0.5, (0, 1), 1e-4),)),
        f"RootTrajectory(times=(0.0, 1.0), paths=((1j, 2j),), events=({_EVENT},))",
        lambda: flow.RootTrajectory((0.0, 1.0), ((1j, 2j),), (flow.CollisionEvent(0.5, (0, 1), 1e-4),)),
        lambda: flow.RootTrajectory((0.0, 1.0), ((1j, 2j),), ()),
        id="RootTrajectory",
    ),
]


@pytest.mark.parametrize("build, text, twin, other", RECORDS)
def test_records_print_compare_freeze_and_pickle_by_their_fields(build, text, twin, other):
    record = build()
    if isinstance(record, cpoly.ComplexPoly):
        record.root_set, record.derivatives, record._gaussian  # memos are kept but never compared or printed
    if isinstance(record, transform.FaddeevParams):
        record.mu(5j)  # forms the memo _t
    assert repr(record) == text
    assert record == twin() and hash(record) == hash(twin())
    assert record != other()
    # Another type never compares equal, not even one with the same attributes.
    assert record != text and record.__eq__(types.SimpleNamespace(**vars(record))) is NotImplemented
    kept = dict(vars(record))
    for name in (record.__match_args__[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == kept
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and repr(back) == text and vars(back) == kept
