"""End-to-end tests for the command-line interface.

Every test drives `cli.main` in-process with captured stdout/stderr, so the
assertions see exactly the bytes a shell user would.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from helpers import bits, run_cli, time_limit

from moutard import cli, cpoly, errors, flow, transform, verdict
from moutard.cli import ConfigError, parse_complex, parse_complex_list


# --- argument parsing ----------------------------------------------------------


def test_parse_complex_comma_form():
    assert parse_complex("1,2") == 1 + 2j
    assert parse_complex("-0.5,0") == -0.5 + 0j


def test_parse_complex_i_suffix_form():
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1.5-0.5i") == 1.5 - 0.5j


def test_parse_complex_rejections():
    with pytest.raises(ConfigError):
        parse_complex("abc")
    with pytest.raises(ConfigError):
        parse_complex("nan")
    with pytest.raises(ConfigError):
        parse_complex("")


def test_parse_complex_list():
    assert parse_complex_list("1;2,3;4i") == [1 + 0j, 2 + 3j, 4j]
    assert parse_complex_list("1 -1") == [1 + 0j, -1 + 0j]
    assert parse_complex_list("") == []


# Every str.isspace() code point that re's \s and str.split() both take, up to U+3000.
SPACES = [chr(c) for c in range(0x3001) if chr(c).isspace()]


def _regex_rule(text):
    """The list rule as a regex: the literals between runs of ';' and whitespace."""
    return [parse_complex(p) for p in re.split(r"[;\s]+", text.strip()) if p]


def _outcome(parse, text):
    try:
        return parse(text)
    except ConfigError as e:
        return str(e)


def test_list_split_matches_the_regex_rule():
    assert {"\x1c", "\x1f", "\x85", "\xa0", "\u1680", "\u2028", "\u3000"} <= set(SPACES)
    texts = ["", ";", ";;;", "1", ";1;", "1;;2i"]
    for ws in SPACES:
        texts += [ws, ws + ";" + ws, f"{ws}1{ws};{ws}-2i;;{ws}", f";1{ws}{ws}3,4{ws};", f"1{ws}2", f"1{ws}x"]
    # Tokens, separators, and two look-alikes that are not spaces.
    pieces = ["1", "-2i", "1e-3", "3,4", "1.5-0.5i", "\u200b", "\ufeff", ";", ";;"] + SPACES
    rng = random.Random(33)
    texts += ["".join(rng.choices(pieces, k=rng.randint(1, 8))) for _ in range(3000)]
    for text in texts:
        assert _outcome(parse_complex_list, text) == _outcome(_regex_rule, text), repr(text)


def _keys(x):
    if isinstance(x, dict):
        for key, value in x.items():
            yield key
            yield from _keys(value)
    elif isinstance(x, list):
        for value in x:
            yield from _keys(value)


def test_string_writer_matches_json():
    keys = set()
    for argv in REPORTS[:4] + [["evolve", "--roots", "1;2", "--t0", "0", "--t1", "0.5", "--steps", "3"]]:
        code, out, _ = run_cli(argv)
        assert code == 0, argv
        keys |= set(_keys(json.loads(out)))
    assert {"all_passed", "recovered_count", "times", "weight", "psi"} <= keys
    rng = random.Random(33)
    bmp = [chr(c) for c in rng.sample(range(0x80, 0x10000), 3000)]
    astral = [chr(c) for c in rng.sample(range(0x10000, 0x110000), 1000)]
    ascii_ = [chr(c) for c in range(0x80)]
    mixed = ["".join(rng.choices(ascii_ + bmp[:50] + astral[:50], k=rng.randint(1, 12))) for _ in range(2000)]
    for s in ascii_ + ['"', "\\", "", '""', "a\\b"] + bmp + astral + mixed + sorted(keys):
        assert cli._str(s) == json.encoder.encode_basestring_ascii(s), repr(s)


# --- eigen ----------------------------------------------------------------------


def test_eigen_plane_wave_at_origin():
    code, out, err = run_cli(["eigen", "--roots", "", "--lambda", "1", "--z", "0"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    pt = doc["points"][0]
    assert pt["psi"] == {"re": 1.0, "im": 0.0}
    assert pt["mu"] == {"re": 0.0, "im": 0.0}
    assert doc["degree"] == 0


def test_eigen_csv_columns():
    code, out, _ = run_cli(
        ["eigen", "--roots", "", "--lambda", "1", "--z", "0;1", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_z,im_z,re_mu,im_mu,re_psi,im_psi"
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[4]) == pytest.approx(math.e)


@pytest.mark.parametrize("argv", [
    ["eigen", "--roots", "1;-1;0.5i", "--lambda", "2-1i", "--z", "3;4i;-2-0.5i;0.25+3i"],
    ["eigen", "--coeffs", "-1;0;0;1", "--lambda", "-0.5i", "--z", "-1,0;2,2;1e-3,-7;0"],
])
def test_eigen_csv_rows_equal_the_json_report(argv):
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "re_z,im_z,re_mu,im_mu,re_psi,im_psi"
    doc = json.loads(run_cli(argv)[1])
    want = [[repr(point[name][part]) for name in ("z", "mu", "psi") for part in ("re", "im")]
            for point in doc["points"]]
    assert len(want) == 4
    assert [row.split(",") for row in rows] == want


@pytest.mark.parametrize(
    "points, kind, detail",
    [("0;1;1e300", "NearPole", {"z": {"re": 1.0, "im": 0.0}, "nearest_root": {"re": 1.0, "im": 0.0}}),
     ("0;1e300;1", "NonFinite", {"point": {"re": 1e300, "im": 0.0}, "lam": {"re": 1.0, "im": 0.0}})],
)
def test_eigen_names_the_first_point_that_fails(points, kind, detail):
    # The points are evaluated in one batch and checked in order, so the
    # failing third point does not hide the second.
    code, out, err = run_cli(["eigen", "--roots", "1", "--lambda", "1", "--z", points])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == kind
    assert json.loads(err)["error"]["details"] == detail


# --- verify -----------------------------------------------------------------------


def test_verify_passes_for_symmetric_pair():
    code, out, err = run_cli(["verify", "--roots", "1;-1", "--lambda", "2"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(doc["checks"].values())
    assert doc["degree"] == 2
    assert doc["sample_points"] == 25
    # the stencil checks are the library's, value for value
    fp = transform.FaddeevParams(cpoly.from_roots([1, -1]), 2)
    points, residual, gauge, harmonicity = transform.residual_checks(fp)
    assert doc["sample_points"] == points
    assert doc["results"]["moutard_residual"] == residual
    assert doc["results"]["gauge_change"] == gauge
    assert doc["results"]["harmonicity"] == harmonicity
    assert doc["results"]["identity_residual"] < 1e-12
    assert abs(doc["scattering"]["a"]["re"] - (-2.0)) < 1e-3
    assert doc["scattering"]["recovered_count"] == 2


@pytest.mark.parametrize("lam", ["0.01", "0.1", "20", "100", "20i", "14+14i"])
def test_verify_passes_at_small_and_large_lambda(lam):
    # The h = 6e-3 cross stencil failed moutard_residual or gauge_change here.
    code, out, _ = run_cli(["verify", "--roots", "1;-1;0.5i", "--lambda", lam])
    assert code == 0
    assert json.loads(out)["all_passed"] is True


@pytest.mark.parametrize("roots", ["2000", "10000;10001"])
def test_verify_passes_for_roots_far_from_the_origin(roots):
    # Sample points keep 1.5 from every root; a ring guard relative to |z|
    # raised NearPole for them once the roots lay beyond |z| ~ 1500.
    code, out, err = run_cli(["verify", "--roots", roots, "--lambda", "1i"])
    assert (code, err) == (0, "")
    assert json.loads(out)["all_passed"] is True


@pytest.mark.parametrize("roots, lam", [
    ("-0.7973408106857616,0.5380289209296414;-0.049918070341800735,0.6970966128900122;"
     "-0.5782395978991288,-0.5466909886470066;-0.540962271189217,0.5497039926655902;"
     "-0.5266056445812408,0.014575548487779866;-0.26901422698407296,-0.36573483782194227;"
     "0.8162966866246484,0.8222922013066951;-0.11405607374702842,0.059265629666504616;"
     "0.28315257515699677,0.5819674819663079;0.07051305315913114,-0.1938712799061748",
     "-0.8564250890128079,0.7247346174263408"),
    ("0.710499918381607,0.012114477271667479;0.16511620853047382,0.3061259519449797;"
     "0.14202068384916866,-0.6895254241312687;-0.9337639004923228,-0.691731432686935;"
     "-0.42357664983929944,-0.8727013235186636;0.5376108662348071,0.6620268303813697;"
     "-0.8947766223504607,-0.3832329349844499;-0.30324391557171415,-0.5711710852066434;"
     "0.13594875720709365,0.5906998267368682;-0.8806803732568143,0.4612312768614595",
     "0.2911785699835566,1.205033533640618"),
], ids=["known-fault-3", "known-fault-22"])
def test_verify_passes_degree_ten_generators_at_the_origin(roots, lam):
    # With the ring radius min(d/2, 1/|lambda|) / 2, ring truncation put
    # moutard_residual at 3.1e-6 and 1.1e-6, over its 1e-6 bound.
    code, out, err = run_cli(["verify", "--roots=" + roots, "--lambda=" + lam])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["all_passed"] is True, doc["checks"]
    assert doc["results"]["moutard_residual"] < 1e-8


def test_verify_is_deterministic():
    argv = ["verify", "--roots", "1;-1", "--lambda", "2"]
    assert run_cli(argv) == run_cli(argv)


SIXTEEN_ROOTS = "1.25;-1.25;1.25i;-1.25i;0.5,0.5;-0.5,0.5;0.5,-0.5;-0.5,-0.5;0.75;-0.75;0.75i;-0.75i;1,1;-1,1;1,-1;-1,-1"


@pytest.mark.parametrize("roots, lam, fit_residual", [
    ("1;-1;0.5i", "0.01", 0.0012000604193124949),
    (SIXTEEN_ROOTS, "1.5-0.5i", 9.600001881600257e-07),
])
def test_verify_fit_residual_is_the_same_on_every_python(roots, lam, fit_residual):
    # The fit's float sums run left to right; builtin sum compensates them
    # from Python 3.12 on and printed 0.001200060419312495 for the first case.
    code, out, _ = run_cli(["verify", "--roots", roots, "--lambda", lam])
    assert code == 0
    assert json.loads(out)["scattering"]["fit_residual"] == fit_residual


def test_verify_csv_rows():
    code, out, _ = run_cli(
        ["verify", "--roots", "1;-1", "--lambda", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,value,threshold,passed"
    assert len(lines) == 1 + len(verdict.VERIFY_THRESHOLDS) + 1  # checks + count row
    for line in lines[1:]:
        assert line.split(",")[-1] == "True"
    assert lines[-1].startswith("count_recovered,")


README_VERIFY = ["verify", "--roots", "1;-1;0.5i", "--lambda", "2"]


@pytest.mark.parametrize("argv", [README_VERIFY, ["verify", "--roots", "1", "--lambda", "1e-100"]])
def test_verify_csv_rows_equal_the_json_report(argv):
    # The second report fails some checks; which ones is not pinned here.
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "check,value,threshold,passed"
    doc = json.loads(run_cli(argv)[1])
    want = [[name, repr(doc["results"][name]), repr(doc["thresholds"][name]), str(doc["checks"][name])]
            for name in sorted(doc["results"])]
    want.append(["count_recovered", repr(float(doc["scattering"]["recovered_count"])), repr(float(doc["degree"])),
                 str(doc["checks"]["count_recovered"])])
    assert [row.split(",") for row in rows] == want


def test_verify_report_lays_out_the_library_record():
    # The README's example: every verdict in the report is the record's, and the report decides none itself.
    doc = json.loads(run_cli(README_VERIFY)[1])
    record = verdict.verify(cpoly.from_roots([1, -1, 0.5j]), 2)
    assert [c[0] for c in record.checks] == list(verdict.VERIFY_THRESHOLDS)
    assert [(name, doc["results"][name], doc["thresholds"][name], doc["checks"][name])
            for name in verdict.VERIFY_THRESHOLDS] == list(record.checks)
    assert set(doc["results"]) == set(doc["thresholds"]) == set(doc["checks"]) - {"count_recovered"}
    assert doc["checks"]["count_recovered"] is record.count_recovered is True
    assert doc["all_passed"] is record.all_passed is True
    assert doc["scattering"]["recovered_count"] == record.recovered_count == 3
    assert [complex(r["re"], r["im"]) for r in doc["roots"]] == list(record.roots)
    assert doc["sample_points"] == record.sample_points
    est = record.estimate
    assert [doc["scattering"][k] for k in ("fit_residual", "radius", "samples")] == [est.fit_residual, est.radius, est.samples]
    assert [complex(doc["scattering"][k]["re"], doc["scattering"][k]["im"]) for k in ("a", "b", "expected_a")] == [
        est.a, est.b, record.expected_a]


def test_values_starting_with_minus_are_accepted():
    spaced = run_cli(["verify", "--roots", "-1;1", "--lambda", "-2i"])
    joined = run_cli(["verify", "--roots=-1;1", "--lambda=-2i"])
    assert spaced[0] == 0
    assert spaced == joined
    assert run_cli(["verify", "--roots", "-1;1", "--lam", "-2i"]) == joined  # abbreviated
    code, out, _ = run_cli(["eigen", "--coeffs", "-1;0;1", "--lambda", "2", "--z", "-1+1i"])
    assert code == 0
    assert json.loads(out)["points"][0]["z"] == {"re": -1.0, "im": 1.0}
    code, out, _ = run_cli(["evolve", "--roots", "1", "--t0", "-1e-3", "--t1", "1", "--steps", "2"])
    assert code == 0
    assert json.loads(out)["times"][0] == -1e-3


# --- scatter ----------------------------------------------------------------------


def test_scatter_json_fields():
    code, out, _ = run_cli(["scatter", "--roots", "1;-1;0.5i", "--lambda", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 3
    assert doc["recovered_count"] == 3
    assert doc["abs_b"] < 1e-8
    assert abs(doc["a"]["re"] - doc["expected_a"]["re"]) < 1e-3
    assert doc["samples"] == 64
    assert doc["fit_residual"] >= 0.0


def test_scatter_csv_row_equals_the_json_report():
    argv = ["scatter", "--roots", "1;2;3", "--lambda", "0.5i"]
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert header == "re_a,im_a,re_b,im_b,fit_residual,radius,samples,recovered_count"
    doc = json.loads(run_cli(argv)[1])
    want = [doc["a"]["re"], doc["a"]["im"], doc["b"]["re"], doc["b"]["im"],
            doc["fit_residual"], doc["radius"], doc["samples"], doc["recovered_count"]]
    assert row.split(",") == [repr(v) for v in want]


def test_scatter_radius_too_small_is_structured():
    code, out, err = run_cli(["scatter", "--roots", "3", "--lambda", "1", "--radius", "4"])
    assert code == 1
    assert out == ""
    rec = json.loads(err)["error"]
    assert rec["type"] == "RadiusTooSmall"
    assert rec["message"]


def test_root_overflow_is_a_strict_json_record():
    # Finite coefficients whose Horner pass overflows: a typed error, and a
    # record that strict JSON parsers accept (no Infinity or NaN literals).
    code, out, err = run_cli(["potential", "--coeffs", "1e300;1e300;1"])
    assert code == 1 and out == ""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rec = json.loads(err, parse_constant=reject)["error"]
    assert rec["type"] == "NonConvergence"
    assert rec["details"]["worst_residual"] == "inf"


def test_scatter_infinite_radius_is_non_finite():
    code, out, err = run_cli(["scatter", "--roots", "1;2", "--lambda", "1", "--radius", "inf"])
    assert code == 1 and out == ""
    rec = json.loads(err)["error"]
    assert rec["type"] == "NonFinite"
    assert rec["details"] == {"radius": "inf"}


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["scatter", "--roots", "1", "--lambda", "1", "--radius", "1e308"], "conjugate phase"),
        (["verify", "--roots", "1", "--lambda", "1e-300"], "misfit"),
        (["eigen", "--roots", "1", "--lambda", "1", "--z", "1e300"], "psi"),
        (["eigen", "--roots", "1", "--lambda", "1e300+1e300i", "--z", "1e10"], "psi"),
        (["verify", "--roots", "1;-1;0.5i", "--lambda", "1000"], "psi"),
    ],
)
def test_overflow_is_a_named_non_finite_record(argv, quantity):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    rec = json.loads(err)["error"]
    assert rec["type"] == "NonFinite"
    assert quantity in rec["message"]
    assert "lam" in rec["details"]


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (["verify", "--roots", "1e200,1e200", "--lambda", "1i"], "NonFinite", "faces lambda"),
        (["verify", "--roots", "1e200,1e200", "--lambda", "1"], "NearPole", "too close to the root"),
        (["eigen", "--roots", "1.7e308,1.7e308", "--lambda", "1", "--z", "0"], "NonFinite", "modulus overflows"),
        (["potential", "--roots", "1.7e308,1.7e308"], "NonFinite", "modulus overflows"),
        (["potential", "--roots", "1e200;1e200;1e200", "--t0", "0"], "NonFinite", "roots are multiplied out"),
        (["scatter", "--coeffs", "1e300;1e-300", "--lambda", "1"], "NonFinite", "divided by the leading one"),
        (["verify", "--roots", "-800", "--lambda", "1"], "NonFinite", "faces lambda"),
        (["verify", "--roots", "1500;0", "--lambda", "-1"], "NonFinite", "faces lambda"),
        (["eigen", "--roots", "0", "--lambda", "1", "--z", "1.5e308,1.5e308"], "NonFinite", "psi overflows"),
        (["verify", "--roots", "1", "--lambda", "1.5e308,1.5e308"], "NonFinite", "modulus of lambda"),
        # The angle of lambda underflows in atan2.
        (["verify", "--roots", "0", "--lambda", "1e300,1e-30"], "NonFinite", "psi overflows"),
        (["verify", "--roots", "1;2", "--lambda", "1e250,1e-100"], "NonFinite", "psi overflows"),
    ],
)
def test_extreme_magnitudes_are_typed_records(argv, kind, message):
    # These used to end in a traceback, an OverflowError or ZeroDivisionError
    # record or (for the overflowing coefficients) a configuration error with
    # exit status 2.
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    rec = json.loads(err)["error"]
    assert rec["type"] == kind
    assert message in rec["message"]


_EXTREMES = ("0", "1", "8", "-8", "-40", "-800", "-1500", "1e4", "-1e20", "1e150", "1e200", "1e300", "1.5e308", "1e-300")
_EXTREME_ROOTS = _EXTREMES + tuple(m + "i" for m in _EXTREMES)
_EXTREME_LAMBDAS = ("1", "-1", "1i", "-1i", "1e-300", "1e-10", "1e10", "1e155", "1e300", "0.5+0.5i", "1.5e308,1.5e308")


def _extreme_grid():
    """Every command over extreme roots, lambdas, points, times, radii and sample counts."""
    for r in _EXTREME_ROOTS:
        for lam in _EXTREME_LAMBDAS:
            for roots in (r, r + ";0"):
                yield ["verify", "--roots", roots, "--lambda", lam]
            for z in ("0.5", "-700", "1.5e308+1.5e308i", "1e-320"):
                yield ["eigen", "--roots", r, "--lambda", lam, "--z", z]
        for radius in ("1e-300", "3", "1e300", "1.7e308"):
            for samples in ("8", "9", "1000"):
                yield ["scatter", "--roots", r + ";1", "--lambda", "1", "--radius", radius, "--samples", samples]
        for t in ("0", "1", "-1", "1e10", "1e100", "1e300"):
            yield ["potential", "--roots", r + ";0;1", "--t0", t]
            yield ["evolve", "--roots", r + ";0;1", "--t0", "0", "--t1", t, "--steps", "3"]
    # A sample walk that crossed 10^5 empty rings, a fit whose radius sum overflowed, and a subnormal circle.
    yield ["verify", "--roots", "-1e8;1e8;3e7i", "--lambda", "1i"]
    yield ["scatter", "--roots", "1", "--lambda", "1e-300", "--radius", "1e308"]
    yield ["scatter", "--roots", "", "--lambda", "2.5", "--radius", "5e-324"]


def test_a_far_walk_and_a_huge_circle_give_their_reports():
    # The verify record is the one the walk from facing / cos(24 pi / 200) gave
    # after 54 s; the scatter run divided by zero where its radius sum overflowed.
    code, _, err = run_cli(["verify", "--roots", "-1e8;1e8;3e7i", "--lambda", "1i"])
    assert code == 1
    assert json.loads(err)["error"]["message"] == "psi overflows at (-3857604.6626542015-95479.18482241407j) for lambda = 1j"
    code, out, _ = run_cli(["scatter", "--roots", "1", "--lambda", "1e-300", "--radius", "1e308"])
    assert code == 0 and json.loads(out)["recovered_count"] == 1


def test_every_failure_over_the_extreme_grid_is_a_typed_record():
    # main has two failure exits, ConfigError (2) and MoutardError (1, its
    # record), so any other exception escapes it; each run gets 5 s.
    typed = {c.__name__ for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MoutardError)}
    escaped, untyped, over_budget, runs = [], [], [], 0
    for argv in _extreme_grid():
        runs += 1
        try:
            with time_limit(5):
                code, out, err = run_cli(argv)
        except TimeoutError:
            over_budget.append(argv)
            continue
        except Exception as e:
            escaped.append((argv, repr(e)))
            continue
        assert code in (0, 1, 2), (argv, code)
        record = json.loads(err)["error"] if code == 1 else None
        if record is not None and record["type"] not in typed:
            untyped.append((argv, record))
    assert runs > 2000
    assert (escaped, untyped, over_budget) == ([], [], [])


def _census():
    """12 seeded generators of degrees 1-6 with roots in [-1, 1]^2, 1 <= |lambda| <= 3, and a unit u."""
    rng = random.Random(77)
    for i in range(12):
        roots = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 + i % 6)]
        yield roots, cmath.rect(rng.uniform(1, 3), rng.uniform(-math.pi, math.pi)), cmath.rect(1, rng.uniform(0, 6))


def _verdict(roots, lam):
    code, out, err = run_cli(["verify", "--roots=" + ";".join(f"{r.real!r},{r.imag!r}" for r in roots),
                              f"--lambda={lam.real!r},{lam.imag!r}"])
    if code:
        return "{type}: {message}".format(**json.loads(err)["error"])
    return "PASS" if json.loads(out)["all_passed"] else "FAIL"


def test_verdicts_do_not_depend_on_where_the_generator_sits():
    # psi_{P(. - c)}(z) = e^{lambda c} psi_P(z - c), and every ring check is
    # normalised by e^{Re(lambda z)}, so moving the roots moves no verdict.
    # Far behind lambda no sample ring faces it, and verify says so; it used
    # to sample there anyway and FAIL on rounding from d = 5 on.  Rotation
    # (roots u, lambda / u) and conjugation are exact symmetries too.
    for roots, lam, u in _census():
        base, mean, ahead = _verdict(roots, lam), sum(roots) / len(roots), lam.conjugate() / abs(lam)
        assert base == "PASS"
        for d in (0, 2, 4, 6, 8, 20):
            moved = _verdict([r - mean - d * ahead for r in roots], lam)
            assert moved == "PASS" or (d > 4 and moved.startswith("NonFinite: no sample ring around the centroid"))
        assert _verdict([r - mean + 10j * ahead for r in roots], lam) == "PASS"
        assert _verdict([r * u for r in roots], lam / u) == base
        assert _verdict([r.conjugate() for r in roots], lam.conjugate()) == base


def test_roots_are_reported_as_given():
    code, out, _ = run_cli(["verify", "--roots", "1;-1;0.5i", "--lambda", "2"])
    assert code == 0
    assert json.loads(out)["roots"] == [{"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}, {"re": 0.0, "im": 0.5}]
    code, out, _ = run_cli(["scatter", "--roots", "1;2", "--lambda", "1"])
    assert code == 0
    assert json.loads(out)["radius"] == 2e4  # 1e4 times the largest root, 2 exactly


# --- evolve ------------------------------------------------------------------------


def test_evolve_single_root_csv():
    code, out, _ = run_cli(
        ["evolve", "--roots", "5", "--t0", "0", "--t1", "1", "--steps", "1",
         "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re_root_1,im_root_1"
    assert len(lines) == 3
    assert not any(line.startswith("#") for line in lines)


def test_evolve_triple_collision_csv():
    code, out, _ = run_cli(
        ["evolve", "--coeffs", "0;0;0;1", "--t0", "-1", "--t1", "1",
         "--steps", "400", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 403  # header + 401 rows + 1 event comment
    assert lines[0] == "t,re_root_1,im_root_1,re_root_2,im_root_2,re_root_3,im_root_3"
    events = [line for line in lines if line.startswith("#event")]
    assert len(events) == 1
    assert "t_approx=0.0" in events[0]
    assert "roots=0;1;2" in events[0]


def test_evolve_json_shape():
    code, out, _ = run_cli(
        ["evolve", "--coeffs", "0;0;0;1", "--t0", "-1", "--t1", "-0.5", "--steps", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["events"] == []
    assert doc["times"] == [-1.0, -0.75, -0.5]
    assert len(doc["paths"]) == 3
    assert all(len(path) == 3 for path in doc["paths"])


def test_evolve_csv_and_json_agree_bitwise():
    base = ["evolve", "--coeffs", "0;0;0;1", "--t0", "-1", "--t1", "-0.5", "--steps", "2"]
    _, json_out, _ = run_cli(base)
    _, csv_out, _ = run_cli(base + ["--format", "csv"])
    doc = json.loads(json_out)
    rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    for k, row in enumerate(rows):
        assert float(row[0]) == doc["times"][k]
        for i, path in enumerate(doc["paths"]):
            assert float(row[1 + 2 * i]) == path[k]["re"]
            assert float(row[2 + 2 * i]) == path[k]["im"]


def test_evolve_ambiguous_matching_is_structured():
    code, out, err = run_cli(
        ["evolve", "--coeffs", "0;0;0;1", "--t0", "-1", "--t1", "0.92", "--steps", "2"]
    )
    assert code == 1
    assert out == ""
    rec = json.loads(err)["error"]
    assert rec["type"] == "AmbiguousMatching"
    assert set(rec["details"]) >= {"distance", "rival", "margin"}


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--roots", "1;2;3i;-1", "--t0=0", "--t1=1e308", "--steps=3"],
        ["evolve", "--roots", "1;2;3i;-1", "--t0=-inf", "--t1=1e308", "--steps=3"],
        ["potential", "--roots", "1;2;3i;-1", "--t0=1e308"],
        ["potential", "--coeffs", "0;0;0;1", "--t0", "inf"],
    ],
)
def test_overflowing_flow_time_is_structured(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NonFinite"


def test_non_finite_flow_time_is_named():
    code, out, err = run_cli(["evolve", "--roots", "1;2;3i;-1", "--t0=-inf", "--t1=1e308", "--steps=3"])
    assert code == 1 and out == ""
    rec = json.loads(err)["error"]
    assert rec["details"] == {"t": "-inf"}
    assert "-inf" in rec["message"]


def _dumped(rt):
    payload = {
        "times": list(rt.times),
        "paths": [[{"re": z.real, "im": z.imag} for z in path] for path in rt.paths],
        "events": [
            {"t_approx": ev.t_approx, "roots_involved": list(ev.roots_involved), "min_separation": ev.min_separation}
            for ev in rt.events
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _writer_cases():
    rng = random.Random(41)
    for n in range(3, 9):
        radius = 1.1 * (n * (n - 1) * (n - 2)) ** (1.0 / 3.0)
        ring = [cmath.rect(radius * rng.uniform(0.9, 1.1), 2 * math.pi * (k + rng.uniform(-0.1, 0.1)) / n)
                for k in range(n)]
        yield flow.trajectory(cpoly.from_roots(ring), 0.0, 0.5, 40)
    yield flow.trajectory(cpoly.ComplexPoly((0j, 0j, 0j, 1 + 0j)), -1.0, 1.0, 400)
    yield flow.trajectory(cpoly.from_roots([5.0]), 0.0, 1.0, 1)
    odd = (-0.0, 5e-324, math.nan, math.inf, -math.inf)
    yield flow.RootTrajectory(
        times=odd,
        paths=(tuple(complex(a, b) for a, b in zip(odd, reversed(odd))), tuple(complex(a, -a) for a in odd)),
        events=(flow.CollisionEvent(math.nan, (), math.inf), flow.CollisionEvent(-0.0, (0, 1), 5e-324)),
    )
    # Every repr form, as times and, over the cases, as both parts of a one-point path beside an empty one.
    forms = (5e-324, 1e16, 1e-07, -0.0, 1.7976931348623157e308, -math.inf, math.nan)
    for re, im in zip(forms, reversed(forms)):
        yield flow.RootTrajectory(times=forms, paths=((), (complex(re, im),)), events=())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_empty_trajectory_is_not_exported(fmt):
    with pytest.raises(ValueError, match="cannot export an empty trajectory"):
        cli.export_trajectory(flow.RootTrajectory(times=(), paths=(), events=()), fmt)


def test_trajectory_json_writer_matches_json_dumps():
    cases = list(_writer_cases())
    assert len(cases[6].events) == 1  # the z^3 triple collision
    for rt in cases:
        assert cli.export_trajectory(rt, "json") == _dumped(rt)


# --- potential ----------------------------------------------------------------------


def test_potential_json():
    code, out, _ = run_cli(["potential", "--coeffs", "0;0;0;1", "--t0", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 1.0
    assert doc["weight"] == pytest.approx(-8.0 * math.pi)
    assert len(doc["centers"]) == 3
    for c in doc["centers"]:
        z = complex(c["re"], c["im"])
        assert abs(z**3 + 6.0) < 1e-9


def test_potential_csv_weight_column():
    code, out, _ = run_cli(
        ["potential", "--coeffs", "0;0;0;1", "--t0", "1", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_center,im_center,weight"
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[2]) == -8.0 * math.pi


@pytest.mark.parametrize("argv, count", [
    (["potential", "--roots", "1;2;3i;-1", "--t0", "0.3"], 4),
    (["potential", "--coeffs", "0;0;0;1", "--t0", "-1", "--flow-sign", "-1"], 3),
])
def test_potential_csv_rows_equal_the_json_report(argv, count):
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "re_center,im_center,weight"
    doc = json.loads(run_cli(argv)[1])
    want = [[repr(center["re"]), repr(center["im"]), repr(doc["weight"])] for center in doc["centers"]]
    assert len(want) == count
    assert [row.split(",") for row in rows] == want


@pytest.mark.parametrize(
    "text, extra, roots",
    [
        ("1;-1;0.5i;0.3+0.7i;2.1-0.4i", [], [1, -1, 0.5j, 0.3 + 0.7j, 2.1 - 0.4j]),
        ("1;2", ["--t0", "0.7"], [1, 2]),
    ],
)
def test_potential_lists_the_given_roots_where_the_flow_leaves_p_unchanged(text, extra, roots):
    # At t0 = 0, or at degree <= 2, P(t) is P: the centres are the given
    # roots, bit for bit and in the given order, as verify lists them.
    code, out, _ = run_cli(["potential", "--roots", text, "--format", "csv", *extra])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert bits(complex(float(re), float(im)) for re, im, _ in rows) == bits(map(complex, roots))


# --- validation diagnostics -----------------------------------------------------------


def test_rejects_roots_and_coeffs_together():
    code, out, err = run_cli(
        ["eigen", "--roots", "1", "--coeffs", "0;1", "--lambda", "1", "--z", "0"]
    )
    assert code == 2 and out == ""
    assert err.strip() == "error: provide exactly one of --roots or --coeffs"


def test_rejects_zero_lambda():
    code, _, err = run_cli(["verify", "--roots", "1", "--lambda", "0"])
    assert code == 2
    assert err.strip() == "error: verify requires a nonzero --lambda"


def test_rejects_unparsable_complex():
    code, _, err = run_cli(["eigen", "--roots", "abc", "--lambda", "1", "--z", "0"])
    assert code == 2
    assert err.strip() == "error: cannot parse complex number from 'abc'"


def test_rejects_bad_time_window():
    code, _, err = run_cli(
        ["evolve", "--roots", "1", "--t0", "1", "--t1", "1", "--steps", "5"]
    )
    assert code == 2
    assert err.strip() == "error: evolve requires --t0 < --t1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eigen", "--roots", "1", "--lambda", "1", "--z", ""], "eigen requires at least one point in --z"),
        (["evolve", "--roots", "1", "--t0", "0", "--t1", "1", "--steps", "0"], "--steps must be >= 1"),
        (
            ["evolve", "--roots", "", "--t0", "0", "--t1", "1", "--steps", "3"],
            "evolve requires a polynomial of degree >= 1",
        ),
        (
            ["evolve", "--roots", "1", "--t0", "0", "--t1", "1", "--steps", "3", "--tol", "0"],
            "--tol must be positive",
        ),
        (["scatter", "--roots", "1", "--lambda", "1", "--samples", "4"], "--samples must be >= 8"),
        (["verify", "--roots", "1", "--lambda", "1", "--radius", "-1"], "--radius must be positive"),
    ],
)
def test_config_error_messages(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["scatter", "--roots", "1;2", "--lambda", "1", "--radius", "nan"], "radius"),
        (["verify", "--roots", "1;2", "--lambda", "1", "--radius", "nan"], "radius"),
        (["evolve", "--roots", "1;2", "--t0", "nan", "--t1", "1", "--steps", "3"], "t0"),
        (["evolve", "--roots", "1;2", "--t0", "0", "--t1", "nan", "--steps", "3"], "t1"),
        (["evolve", "--roots", "1;2", "--t0", "0", "--t1", "1", "--steps", "3", "--tol", "nan"], "tol"),
        (["potential", "--coeffs", "0;0;0;1", "--t0", "nan"], "t0"),
    ],
)
def test_nan_options_are_named(argv, name):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == f"error: --{name} must be a number, got nan\n"


def test_missing_subcommand_exits_2():
    code, _, _ = run_cli([])
    assert code == 2


# --- the reader and the full parser ----------------------------------------------------

# Each ends at the parser: help, usage or an argparse error.
PARSER_EXITS = [
    ["-h"],
    ["--help"],
    ["-h", "verify"],
    ["eigen", "-h"],
    ["verify", "-h"],
    ["scatter", "-h"],
    ["evolve", "-h"],
    ["potential", "--help"],
    ["nosuch"],
    ["Verify"],
    [],
    ["--bogus"],
    ["--bogus", "verify"],  # reaches verify's options, though the first token names no command
    ["verify"],
    ["verify", "--roots", "1"],
    ["verify", "--roots", "1", "--lambda", "2", "--flow-sign", "2"],
    ["scatter", "--roots", "1", "--lambda", "2", "--samples", "x"],
    ["evolve", "--roots", "1"],
    ["evolve", "--roots", "1", "--t0", "0", "--t1", "1", "--steps", "2.5"],
    ["eigen", "--roots", "1", "--lambda", "1"],
    ["potential", "--roots", "1", "--format", "xml"],
    ["verify", "--roots", "1", "--lambda", "2", "--bogus"],
    ["verify", "--roots", "1", "--lambda", "2", "extra"],
    ["verify", "--r", "1", "--lambda", "2"],
    ["verify", "--roots", "1", "--lambda", "2", "--", "x"],
    ["scatter", "--roots", "1", "--roots", "2", "--lambda", "1", "--bogus"],
    ["verify", "-h", "--bogus"],
    ["verify", "--bogus", "-h"],
    ["verify", "--he"],
    ["evolve", "--roots", "-1;1", "--t0", "-1e-3", "--t1", "1", "--steps", "2", "--bogus"],
]


def full_tree_exit(argv):
    """(status, stdout, stderr) of the parser with every command's options built."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(cli._attach_literals(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_usage_and_errors_match_the_full_parser(argv):
    assert run_cli(argv) == full_tree_exit(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--roots", "-1;1", "--lambda", "2", "--z", "3;4i"],
        ["verify", "--roots", "1;-1", "--lam", "2", "--samples", "16", "--flow-sign", "-1"],
        ["scatter", "--coeffs", "1;0;1", "--lambda", "1+1i", "--radius", "50", "--format", "csv"],
        ["evolve", "--roots", "1;2", "--t0", "-1e-3", "--t1", "1", "--steps", "3", "--tol", "0.1"],
        ["potential", "--roots", "1", "--t0", "0.5", "--out", "report.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_one_command_parser_gives_the_full_namespace(argv, monkeypatch):
    args = cli._attach_literals(argv)
    full = vars(cli.build_parser().parse_args(args))
    monkeypatch.setattr(cli, "build_parser", no_full_parser)
    assert vars(cli._parse(args)) == full


def no_full_parser():
    raise AssertionError("the full parser was built")


def no_parser(*args, **kwargs):
    raise AssertionError("an ArgumentParser was built")


def test_valid_invocations_never_build_the_full_parser(monkeypatch):
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    for argv in (
        ["eigen", "--roots", "1", "--lambda", "2", "--z", "3"],
        ["verify", "--roots", "1;-1", "--lambda", "2"],
        ["scatter", "--roots", "1;2", "--lambda", "1"],
        ["evolve", "--roots", "1;2", "--t0", "0", "--t1", "0.5", "--steps", "3"],
        ["potential", "--roots", "1", "--t0", "0.5"],
    ):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), argv


def test_parser_without_a_command_builds_every_option():
    parser = cli.build_parser()
    common = ["--roots", "1", "--coeffs", "1;1", "--format", "csv", "--out", "r"]
    circle = ["--radius", "5", "--samples", "9"]
    full = {
        "eigen": common + ["--lambda", "2", "--z", "1;2"],
        "verify": common + ["--lambda", "2"] + circle + ["--flow-sign", "-1"],
        "scatter": common + ["--lambda", "2"] + circle,
        "evolve": common + ["--flow-sign", "-1", "--t0", "0", "--t1", "1", "--steps", "3", "--tol", "0.5"],
        "potential": common + ["--flow-sign", "-1", "--t0", "0.5"],
    }
    for command, options in full.items():
        ns = vars(parser.parse_args([command] + options))
        assert ns.pop("command") == command and ns.pop("handler") is cli._COMMANDS[command][0]
        assert len(ns) == len(options) // 2, command  # one destination per option given


# Option values of every kind: good and bad numbers, lists, choices, and tokens argparse reads as flags.
VALUES = ["1", "2", "-1", "0", "3", "2.5", "x", "", "nan", "-inf", "1e-3", "-1e-3", "1_0", "+1", " 1", "1 2",
          "1;2", "-1;1", "1+2i", "-2i", "3;4i", "json", "csv", "xml", "-", "--", "-h", "--roots", "a=b"]
# A valid value per option, for the required ones most argvs carry.
GOOD = {"--lambda": ["2", "1+1i", "-1"], "--z": ["3;4i", "-1"], "--t0": ["0", "-1e-3"], "--t1": ["1", "0.5"],
        "--steps": ["3", "1"]}


def _argv_corpus(count, seed):
    """Seeded argvs over every command, after _attach_literals; the reader takes about a quarter of them."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(cli._COMMANDS))
        flags = [flag for flag, _ in cli._COMMANDS[command][2]]
        pairs = [[flag, rng.choice(GOOD[flag])] for flag in flags if flag in GOOD and rng.random() < 0.85]
        for _ in range(rng.randrange(4)):
            flag = rng.choice(flags + ["--help", "--bogus", "--f", "--t", "--", "-h", "--lam", "--flow"])
            if rng.random() < 0.3:
                flag = flag[: rng.randint(2, len(flag))]  # an abbreviation, unique or not
            pairs.append([flag, rng.choice(VALUES)])
        rng.shuffle(pairs)
        argv = [command]
        for flag, value in pairs:
            form = rng.random()
            argv += [f"{flag}={value}"] if form < 0.45 else [flag, value] if form < 0.95 else [flag]
        if rng.random() < 0.1:
            argv.insert(rng.randint(1, len(argv)), rng.choice(["-h", "--", "x", "--help", "-1"]))
        yield cli._attach_literals(argv)


def test_reader_agrees_with_the_full_parser():
    parser = cli.build_parser()
    taken = 0
    for args in _argv_corpus(3000, seed=32):
        ns = cli._read(args)
        if ns is None:
            continue
        taken += 1
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            full = parser.parse_args(args)
        # repr, so that nan values compare equal
        assert repr(sorted(vars(ns).items())) == repr(sorted(vars(full).items())), args
    assert 300 < taken < 2700, taken


REPORTS = [
    ["eigen", "--roots", "1;-1", "--lambda", "2", "--z", "3;4i"],
    ["verify", "--roots", "1;-1;0.5i", "--lambda", "2"],
    ["scatter", "--roots", "1;2", "--lambda", "1"],
    ["potential", "--roots", "1;2", "--t0", "0.5"],
    ["potential", "--roots", "", "--t0", "0.5"],  # no centres: an empty list
    # The rest end in error records.
    ["eigen", "--roots", "0;1;1e300", "--lambda", "1", "--z", "1e-300"],
    ["verify", "--roots", "1e200,1e200", "--lambda", "1i"],
    ["scatter", "--roots", "1;2", "--lambda", "1", "--radius", "1"],
    ["evolve", "--roots", "1;2;3i;-1", "--t0=-inf", "--t1=1e308", "--steps=3"],
]


def _records():
    """Error records with every kind of detail the writer meets."""
    yield errors.NearPole(1 + 2j, complex(math.inf, -0.0)).record()
    yield errors.NonFinite("\u03bb = \u221e \"quoted\" \\ \t\n\x00\x1f\x7f \U0001f600",
                           values=[math.nan, -math.inf, [1j, (2, -0.0)], {}], flag=True, none=None).record()
    yield errors.MoutardError("", count=0, big=10**30, tiny=5e-324, huge=1e308, neg=-1.5e-7, empty=[]).record()


def _complex_object(o):
    """The writer's ``default`` for json.dumps: a complex number as its {"re", "im"} object."""
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2, default=_complex_object) + "\n"


def test_report_writer_matches_json_dumps(monkeypatch):
    payloads = []
    write = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json", lambda payload: payloads.append(payload) or write(payload))
    for argv in REPORTS:
        run_cli(argv)
    assert len(payloads) == len(REPORTS)
    payloads += [{"error": record} for record in _records()]
    payloads += [{}, {"a": [], "b": {}, "c": (), "t": True, "f": False, "n": None, "z": -0.0, "l": [[1, [2.5]], []]}]
    # Complex numbers, alone and in sequences as trajectories hold them, with every odd part; floats the same.
    odd = (complex(math.nan, -0.0), complex(-0.0, math.inf), complex(-math.inf, 5e-324), 1e16 - 1e-07j)
    payloads += [{"z": odd[0], "w": {"v": odd[1]}, "e": (), "paths": (odd, (), odd[::-1], odd[1:2])},
                 {"times": (math.nan, -0.0, math.inf, -math.inf, 5e-324), "one": [1.5], "pairs": [odd, [odd[3]]]}]
    for payload in payloads:
        assert write(payload) == _dumps(payload)


@pytest.mark.parametrize("payload", [{"x": {1, 2}}, {"x": [b"bytes"]}, {"x": object()}],
                         ids=["set", "bytes", "object"])
def test_report_writer_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        _dumps(payload)
    with pytest.raises(TypeError):
        cli._emit_json(payload)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--roots", "1;-1", "--lambda", "2"],
        ["scatter", "--roots", "1;2", "--lambda", "1"],
        ["evolve", "--roots", "1;2", "--t0", "0", "--t1", "0.5", "--steps", "3"],
        ["evolve", "--roots", "1;2", "--t0", "0", "--t1", "0.5", "--steps", "3", "--format", "csv"],
        ["eigen", "--roots", "0;1;1e300", "--lambda", "1", "--z", "1e-300"],
    ],
    ids=["verify", "scatter", "evolve-json", "evolve-csv", "error-record"],
)
def test_main_leaves_no_cyclic_garbage(argv):
    run_cli(argv)  # warm-up: first-use imports and memos
    gc.collect()
    run_cli(argv)
    assert gc.collect() == 0


# --- output redirection -----------------------------------------------------------------


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    argv = ["verify", "--roots", "1;-1", "--lambda", "2"]
    code, out, err = run_cli(argv + ["--out", str(target)])
    assert code == 0 and out == "" and err == ""
    _, direct, _ = run_cli(argv)
    assert target.read_text(encoding="utf-8") == direct


def test_out_unwritable_path_is_structured(tmp_path):
    bad = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(
        ["potential", "--roots", "1", "--out", str(bad)]
    )
    assert code == 1
    rec = json.loads(err)["error"]
    assert rec["type"] == "IoFailure"
    assert rec["details"]["path"] == str(bad)
