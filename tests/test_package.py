"""Package-level guards: stdlib-only, lean imports, a resolvable, pinned public
API, the names the benchmark tracer wraps and the semantics of the record types."""

from __future__ import annotations

import ast
import importlib.util
import json
import math
import pathlib
import pickle
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import moutard
from moutard import cpoly, errors, flow, scattering, transform, verdict, wirtinger

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
    assert moutard.__all__ == ["cpoly", "errors", "flow", "scattering", "transform", "verdict", "wirtinger"]


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


_G = cpoly.from_roots([1, 2])

# One non-finite input per single-value guard that goes through errors._finite, with the message and
# the details of its record, the details as JSON text (a nan inside them never equals itself, its text does).
FINITE_GUARDS = [
    pytest.param(
        lambda: cpoly.horner([0.0, 1.0], math.inf),
        "polynomial value is not finite at inf",
        '{"point": "inf"}',
        id="cpoly.horner",
    ),
    pytest.param(
        lambda: cpoly.min_root_separation([0.0, math.nan]),
        "separation needs finite roots, got nan",
        '{"root": "nan"}',
        id="cpoly.min_root_separation/root",
    ),
    pytest.param(
        lambda: cpoly.min_root_separation([-1.7e308, 1.7e308]),
        "minimum root separation overflows",
        '{}',
        id="cpoly.min_root_separation/minimum",
    ),
    pytest.param(
        lambda: flow.trajectory(_G, math.nan, 1.0, 4),
        "flow time must be finite, got nan",
        '{"t": "nan"}',
        id="flow.trajectory/time",
    ),
    pytest.param(
        lambda: flow.trajectory(_G, -1.7e308, 1.7e308, 4),
        "flow time span t1 - t0 = inf overflows",
        '{"span": "inf", "t0": -1.7e+308, "t1": 1.7e+308}',
        id="flow.trajectory/span",
    ),
    pytest.param(
        lambda: scattering.sample_mu(transform.FaddeevParams(_G, 1), math.inf),
        "sampling radius must be finite, got inf",
        '{"radius": "inf"}',
        id="scattering.sample_mu",
    ),
    pytest.param(
        lambda: scattering.fit_scattering([(1, 0)] * 8, complex(math.inf, 0)),
        "the spectral parameter lambda must be finite",
        '{"lam": {"re": Infinity, "im": 0.0}}',
        id="scattering.fit_scattering",
    ),
    pytest.param(
        lambda: transform.DeltaPotential([1.0, math.nan]),
        "delta centres must be finite, got (nan+0j)",
        '{"center": {"re": NaN, "im": 0.0}}',
        id="transform.DeltaPotential",
    ),
    pytest.param(
        lambda: transform.FaddeevParams(_G, complex(math.nan, 1.0)),
        "the spectral parameter lambda must be finite, got (nan+1j)",
        '{"lam": {"re": NaN, "im": 1.0}}',
        id="transform.FaddeevParams/lambda",
    ),
    pytest.param(
        lambda: transform.FaddeevParams(_G, complex(1.5e308, 1.5e308)),
        "the modulus of lambda = (1.5e+308+1.5e+308j) overflows",
        '{"lam": {"re": 1.5e+308, "im": 1.5e+308}}',
        id="transform.FaddeevParams/modulus",
    ),
    pytest.param(
        lambda: transform.moutard_residual(abs, abs, abs, complex(math.inf, 0), 0.1),
        "ring centre must be finite, got (inf+0j)",
        '{"point": {"re": Infinity, "im": 0.0}}',
        id="transform.moutard_residual",
    ),
    pytest.param(
        lambda: transform.residual_sample_points([1.0, math.nan], 1.0),
        "sample points need finite roots and lambda, got (nan+0j)",
        '{"value": {"re": NaN, "im": 0.0}}',
        id="transform.residual_sample_points/input",
    ),
    pytest.param(
        lambda: transform.residual_sample_points([1.7e308, 1.7e308j], 1.0),
        "the sample rings around the centroid (8.5e+307+8.5e+307j) leave the float range",
        '{"center": {"re": 8.5e+307, "im": 8.5e+307}, "spread": 1.2020815280171307e+308}',
        id="transform.residual_sample_points/rings",
    ),
    pytest.param(
        lambda: transform._harmonicity(1.0, 1.0, 0.5, 0j, [math.inf]),
        "non-finite ring moments on radius 0.5",
        '{"radius": 0.5}',
        id="transform._harmonicity",
    ),
    pytest.param(
        lambda: wirtinger.d_z(abs, complex(math.nan, 0)),
        "stencil centre must be finite, got (nan+0j)",
        '{"point": {"re": NaN, "im": 0.0}}',
        id="wirtinger._step",
    ),
    pytest.param(
        lambda: wirtinger.laplacian(lambda w: math.inf, 1j),
        "non-finite sample (inf+0j) at 1j",
        '{"point": {"re": 0.0, "im": 1.0}}',
        id="wirtinger._sample",
    ),
    pytest.param(
        lambda: wirtinger.ring(0j, math.inf, 4),
        "the ring of radius inf around 0j leaves the float range",
        '{"point": {"re": 0.0, "im": 0.0}, "radius": "inf"}',
        id="wirtinger.ring",
    ),
    pytest.param(
        lambda: wirtinger.laplacian(lambda w: 1e308, 1j),
        "the stencil estimate at 1j is not finite",
        '{"point": {"re": 0.0, "im": 1.0}}',
        id="wirtinger.laplacian",
    ),
]


@pytest.mark.parametrize("call, message, details", FINITE_GUARDS)
def test_each_single_value_guard_keeps_its_error_record(call, message, details):
    with pytest.raises(errors.NonFinite) as caught:
        call()
    record = caught.value.record()
    assert (record["type"], record["message"], json.dumps(record["details"])) == ("NonFinite", message, details)


@pytest.mark.parametrize("big", [10**400, Fraction(10**400), -10**400, 10**5000],
                         ids=["int", "Fraction", "negative-int", "int-of-5001-digits"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda big: cpoly.min_root_separation([0, big]), id="min_root_separation"),
    pytest.param(lambda big: flow.trajectory(_G, big, 1.0, 4), id="trajectory-t0"),
    pytest.param(lambda big: flow.trajectory(_G, 0.0, big, 4), id="trajectory-t1"),
    pytest.param(lambda big: transform.moutard_residual(abs, abs, abs, big, 0.1), id="moutard_residual"),
    pytest.param(lambda big: scattering.sample_mu(transform.FaddeevParams(_G, 1), big), id="sample_mu"),
    pytest.param(lambda big: wirtinger.d_z(abs, big), id="d_z"),
    pytest.param(lambda big: wirtinger.d_zbar(abs, big), id="d_zbar"),
    pytest.param(lambda big: wirtinger.gradient(abs, big), id="gradient"),
    pytest.param(lambda big: wirtinger.laplacian(abs, big), id="laplacian"),
])
def test_a_number_past_the_float_range_is_not_finite_where_a_guard_reads_it_first(call, big):
    # cmath.isfinite raises OverflowError for these; the guard reads that as not finite and names the
    # number by its signed inf, so that the record is JSON-ready even where repr(big) would fail.
    with pytest.raises(errors.NonFinite) as caught:
        call(big)
    record = json.loads(json.dumps(caught.value.record()))
    sign = "-" if big < 0 else ""
    assert record["message"].endswith(f"got {sign}inf"), record
    assert list(record["details"].values()) == [f"{sign}inf"], record


_UNIT_CIRCLE = [(1, 0), (1j, 0), (-1, 0), (-1j, 0)]


@pytest.mark.parametrize("big", [10**400, -10**400, Fraction(10**400), 10**5000],
                         ids=["int", "negative-int", "Fraction", "int-of-5001-digits"])
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda x: cpoly.ComplexPoly((x, 1)), ValueError, id="ComplexPoly"),
    pytest.param(lambda x: cpoly.ComplexPoly.from_coefficients([x, 1]), ValueError, id="from_coefficients"),
    pytest.param(lambda x: cpoly.from_roots([0, x]), ValueError, id="from_roots"),
    pytest.param(lambda x: cpoly.differentiate([0, x, 1]), errors.NonFinite, id="differentiate"),
    pytest.param(lambda x: transform.DeltaPotential([0, x]), errors.NonFinite, id="DeltaPotential"),
    pytest.param(lambda x: transform.FaddeevParams(_G, x), errors.NonFinite, id="FaddeevParams"),
    pytest.param(lambda x: verdict.verify(_G, x), errors.NonFinite, id="verdict.verify"),
    pytest.param(lambda x: transform.residual_sample_points([0, x], 1), errors.NonFinite,
                 id="residual_sample_points-roots"),
    pytest.param(lambda x: transform.residual_sample_points([0], x), errors.NonFinite,
                 id="residual_sample_points-lambda"),
    pytest.param(lambda x: scattering.fit_scattering(_UNIT_CIRCLE, x), errors.NonFinite, id="fit_scattering-lambda"),
    pytest.param(lambda x: scattering.fit_scattering([*_UNIT_CIRCLE, (x, 0)], 1), errors.NonFinite,
                 id="fit_scattering-z"),
    pytest.param(lambda x: scattering.fit_scattering([*_UNIT_CIRCLE, (2, x)], 1), errors.NonFinite,
                 id="fit_scattering-mu"),
    pytest.param(lambda x: scattering.expected_a(2, x), errors.NonFinite, id="expected_a"),
    pytest.param(lambda x: scattering.count_deltas(1, x), errors.InconsistentData, id="count_deltas-lambda"),
    pytest.param(lambda x: scattering.count_deltas(x, 1), errors.InconsistentData, id="count_deltas-a"),
])
def test_a_number_past_the_float_range_reads_as_its_signed_inf_where_it_is_converted(call, error, big):
    # Each entry point converts the caller's number by errors._complex, so it raises what the same-signed inf gives.
    with pytest.raises(error) as want:
        call(math.inf if big > 0 else -math.inf)
    with pytest.raises(error) as caught:
        call(big)
    assert (type(caught.value), str(caught.value)) == (type(want.value), str(want.value))
    if isinstance(want.value, errors.MoutardError):
        assert json.dumps(caught.value.record()) == json.dumps(want.value.record())


def test_a_record_writes_a_number_json_has_no_form_for_as_its_text():
    assert json.dumps(errors.NonFinite("m", ratio=Fraction(1, 3), spans=[Fraction(-2)]).record()["details"]) \
        == '{"ratio": "1/3", "spans": ["-2"]}'
    # Two Fraction times inside the float range whose span is past it: the span reads inf, the times their text.
    with pytest.raises(errors.NonFinite) as caught:
        flow.trajectory(_G, Fraction(-17 * 10**307), Fraction(17 * 10**307), 4)
    details = json.loads(json.dumps(caught.value.record()))["details"]
    assert details == {"span": "inf", "t0": str(-17 * 10**307), "t1": str(17 * 10**307)}
