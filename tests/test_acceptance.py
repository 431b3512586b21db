"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
Each criterion states its tolerance inline; the suites are seeded and fixed
so the numbers are reproducible run to run.
"""

from __future__ import annotations

import cmath
import functools
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

from moutard import cli, cpoly, flow, scattering, transform

LAMBDAS = (2 + 0j, 1 + 1j, 0.5j, -3j)


def _gate(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@functools.lru_cache(maxsize=1)
def _suite1():
    """100 monic generators, degrees 1-10, roots in |z| <= 5."""
    rng = random.Random(424242)
    polys = []
    for i in range(100):
        deg = 1 + i % 10
        rts = [
            cmath.rect(rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(deg)
        ]
        polys.append((cpoly.from_roots(rts), deg))
    return tuple(polys)


@functools.lru_cache(maxsize=1)
def _suite2_measurements():
    """Worst normalized system residual, gauge sensitivity, and |laplacian psi|
    over six generators (degrees 1-6) at 25 root-avoiding points each."""
    rng = random.Random(10)
    lam = 2 + 0j
    worst_res = worst_gauge = worst_harm = 0.0
    for deg in range(1, 7):
        rts = [
            cmath.rect(rng.uniform(0.3, 2.5), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(deg)
        ]
        fp = transform.FaddeevParams(cpoly.from_roots(rts), lam)
        points, res, gauge, harm = transform.residual_checks(fp)
        assert points == 25
        worst_res = max(worst_res, res)
        worst_gauge = max(worst_gauge, gauge)
        worst_harm = max(worst_harm, harm)
    return worst_res, worst_gauge, worst_harm


def test_criterion_1_eigenfunction_identity():
    worst = 0.0
    for p, _ in _suite1():
        for lam in LAMBDAS:
            fp = transform.FaddeevParams(p, lam)
            worst = max(worst, transform.verify_eigenfunction_identity(fp))
    _gate(1, "eigenfunction-identity", worst < 1e-12, f"worst {worst:.3e} < 1e-12")


def test_criterion_2_system_residuals():
    worst_res, _, _ = _suite2_measurements()
    _gate(2, "system-residuals", worst_res < 1e-6, f"worst {worst_res:.3e} < 1e-6")


def test_criterion_3_scattering_recovery():
    worst_rel = worst_b = 0.0
    bad_counts = 0
    for p, deg in _suite1():
        for lam in LAMBDAS:
            fp = transform.FaddeevParams(p, lam)
            est = scattering.fit_scattering(scattering.sample_mu(fp, radius=1e4), lam)
            want = scattering.expected_a(deg, lam)
            worst_rel = max(worst_rel, abs(est.a - want) / abs(want))
            worst_b = max(worst_b, abs(est.b))
            if scattering.count_deltas(est.a, lam) != deg:
                bad_counts += 1
    ok = worst_rel < 1e-3 and worst_b < 1e-8 and bad_counts == 0
    _gate(
        3,
        "scattering-recovery",
        ok,
        f"rel_a {worst_rel:.3e} < 1e-3, |b| {worst_b:.3e} < 1e-8, miscounts {bad_counts}",
    )


def test_criterion_4_gauge_invariance():
    _, worst_gauge, _ = _suite2_measurements()
    _gate(4, "gauge-invariance", worst_gauge < 1e-10, f"worst {worst_gauge:.3e} < 1e-10")


def test_criterion_5_harmonicity():
    _, _, worst_harm = _suite2_measurements()
    _gate(5, "harmonicity", worst_harm < 1e-5, f"worst {worst_harm:.3e} < 1e-5")


def test_criterion_6_flow_exactness():
    cubic = cpoly.ComplexPoly((0j, 0j, 0j, 1 + 0j))
    worst_cubic = max(
        abs(evolved - want)
        for t in (0.5, 0.7, -1.3, 2.2)
        for evolved, want in zip(
            flow.evolve(cubic, t).coeffs, (complex(6 * t), 0j, 0j, 1 + 0j)
        )
    )

    rng = random.Random(23)
    worst_group = 0.0
    worst_flow = 0.0
    for _ in range(3):
        p = cpoly.ComplexPoly(
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(7))
            + (1 + 0j,)
        )
        one = flow.evolve(p, 0.9)
        two = flow.evolve(flow.evolve(p, 0.5), 0.4)
        scale = max(abs(c) for c in one.coeffs)
        worst_group = max(
            worst_group,
            max(abs(x - y) for x, y in zip(one.coeffs, two.coeffs)) / scale,
        )
        worst_flow = max(worst_flow, flow.verify_flow(p, 0.3, 1e-4))

    quad = cpoly.ComplexPoly((1 - 1j, 2j, 1 + 0j))
    static = flow.evolve(quad, 3.7).coeffs == quad.coeffs

    ok = worst_cubic < 1e-14 and worst_group < 1e-12 and worst_flow < 1e-6 and static
    _gate(
        6,
        "flow-exactness",
        ok,
        f"cubic {worst_cubic:.1e} < 1e-14, group {worst_group:.1e} < 1e-12, "
        f"residual {worst_flow:.1e} < 1e-6, low-degree static {static}",
    )


def test_criterion_7_identity_along_flow():
    rng = random.Random(77)
    worst = 0.0
    for deg in (7, 5):
        p0 = cpoly.ComplexPoly(
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg))
            + (1 + 0j,)
        )
        for k in range(10):
            t = -1.0 + 2.0 * k / 9.0
            pt = flow.evolve(p0, t)
            for lam in (2 + 0j, 1 + 1j):
                fp = transform.FaddeevParams(pt, lam)
                worst = max(worst, transform.verify_eigenfunction_identity(fp))
    _gate(7, "identity-along-flow", worst < 1e-11, f"worst {worst:.3e} < 1e-11")


def test_criterion_8_trajectory_regression():
    cubic = cpoly.from_roots([0.0, 0.0, 0.0])
    rt = flow.trajectory(cubic, -1.0, 1.0, steps=400)
    worst = 0.0
    for k, t in enumerate(rt.times):
        if abs(t) < 0.05:
            continue  # labels are not comparable through the collision
        r = abs(6.0 * t) ** (1.0 / 3.0)
        sign = 1.0 if t < 0 else -1.0
        branches = [sign * r * cmath.exp(2j * math.pi * m / 3.0) for m in range(3)]
        for path in rt.paths:
            worst = max(worst, min(abs(path[k] - b) for b in branches))
    one_event = len(rt.events) == 1 and rt.events[0].roots_involved == (0, 1, 2)
    ok = worst < 1e-9 and one_event
    _gate(
        8,
        "trajectory-regression",
        ok,
        f"branch error {worst:.3e} < 1e-9, single 3-root event {one_event}",
    )


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_9_cli_determinism():
    argv = ["verify", "--roots", "1;-1;0.5i", "--lambda", "2"]
    first = _run_cli(argv)
    second = _run_cli(argv)
    byte_identical = first == second and first[0] == 0

    # JSON round trip: parse and re-serialize with the CLI's own settings
    doc = json.loads(first[1])
    json_lossless = json.dumps(doc, sort_keys=True, indent=2) + "\n" == first[1]

    # CSV round trip: every float cell must survive parse -> repr unchanged
    code, csv_out, _ = _run_cli(
        ["evolve", "--coeffs", "0;0;0;1", "--t0", "-1", "--t1", "1",
         "--steps", "400", "--format", "csv"]
    )
    lines = csv_out.strip().splitlines()
    rows = [line for line in lines[1:] if not line.startswith("#")]
    csv_lossless = code == 0 and all(
        ",".join(repr(float(cell)) for cell in line.split(",")) == line
        for line in rows
    )

    ok = byte_identical and json_lossless and csv_lossless
    _gate(
        9,
        "cli-determinism",
        ok,
        f"byte-identical {byte_identical}, json lossless {json_lossless}, "
        f"csv lossless {csv_lossless}",
    )
