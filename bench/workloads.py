"""Seeded inputs and execution for the four workloads.

Each workload is a list of rounds.  A round holds the same kinds of
operations in the same order every time (stratified by degree), and every
run executes the workload's fixed number of rounds, so a run's cost and its
share of known-fault operations do not depend on the seed.  The seed only
moves the drawn roots, lambdas and flow times; no input repeats within a run.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports moutard from there; it exits with an error if the sources are absent.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "moutard" / "__init__.py").is_file():
    raise SystemExit(f"bench: no moutard sources at {SRC}")
sys.path.insert(0, str(SRC))

import moutard  # noqa: E402
from moutard import cli, cpoly, flow, transform  # noqa: E402

if not Path(moutard.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"bench: moutard was imported from {moutard.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation (argv) or a library call (certify)."""

    spec: dict
    argv: tuple[str, ...] = ()
    poly: cpoly.ComplexPoly | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list[Op]]
    check: Callable[[dict, object], bool]  # (op.spec, output) -> known-fault FAIL seen
    # Rounds of every run, traced or not: a fixed list of at least 100
    # operations (so ten samples lie beyond the 90th percentile) that takes
    # about 20 s at the reference speed (40 s for evolve, whose median sits
    # among 48 degree-4 rings).  The list, `attempted` and `failed` are the
    # same on every run for a seed, and run length follows speed.
    rounds: int


def _fmt(z: complex) -> str:
    # "re,im" with repr floats parses back to the same doubles.
    return f"{z.real!r},{z.imag!r}"


def _fmt_list(zs: list[complex]) -> str:
    return ";".join(_fmt(z) for z in zs)


def _draw_roots(rng: random.Random, n: int, box: float, min_sep: float) -> list[complex]:
    """n roots uniform in [-box, box]^2, pairwise at least min_sep apart."""
    while True:
        rs = [complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(n)]
        if n < 2 or min(abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1:]) >= min_sep:
            return rs


def _draw_lam(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """moutard.cli.main in-process; returns (exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))  # looked up per call, so a traced run sees the wrapper
    return rc, out.getvalue()


def execute(op: Op) -> object:
    if op.argv:
        return run_cli(op.argv)
    return _certify(op)


# --- verify ------------------------------------------------------------------
#
# Degrees 1-4, roots in a box of side 2 (at least 0.25 apart) centred 4.5
# along conj(lambda) / |lambda|, 1 <= |lambda| <= 3.  verify samples its
# residuals on a ring around the roots where Re(lambda z) >= -0.3 and divides
# them by e^{Re(lambda z)}; gauge_change then carries an absolute rounding
# floor from the shift c = 1e3 (about ulp(1e3) / h) that reads 0.3-0.9 of its
# 1e-10 bound and crosses it on ~1 in 15000 generators centred at the origin.
# Centred where Re(lambda z) > 1 on the whole ring, every check stayed at or
# below a quarter of its bound in 20000 draws.  Degree 5 and
# up lose accuracy there (P evaluated from its coefficients far from the
# origin), so they are not drawn.  Each round adds one degree-9 and one
# degree-10 generator in [-1, 1]^2 whose inputs do not depend on the seed;
# verify reports FAIL for them, because flow_residual's central difference
# carries a t^3 defect of at least dt^2 * 9!/6 = 6e-4 against a 1e-6 bound,
# whatever the roots.

VERIFY_DEGREES = (1, 2, 3, 4)
VERIFY_REPEATS = 9
VERIFY_SHIFT = 4.5
KNOWN_FAULT_DEGREES = (9, 10)


def _verify_op(rng: random.Random, n: int, known_fault: bool) -> Op:
    lam = _draw_lam(rng, 1.0, 3.0)
    center = 0j if known_fault else VERIFY_SHIFT * lam.conjugate() / abs(lam)
    roots = [center + r for r in _draw_roots(rng, n, 1.0, 0.25)]
    argv = ("verify", "--roots=" + _fmt_list(roots), "--lambda=" + _fmt(lam))
    return Op({"roots": roots, "lam": lam, "known_fault": known_fault}, argv)


def verify_round(rng: random.Random, index: int) -> list[Op]:
    ops = [_verify_op(rng, n, False) for _ in range(VERIFY_REPEATS) for n in VERIFY_DEGREES]
    fault_rng = random.Random(f"verify-known-fault/{index}")
    ops += [_verify_op(fault_rng, n, True) for n in KNOWN_FAULT_DEGREES]
    return ops


# --- scatter -----------------------------------------------------------------

SCATTER_DEGREES = tuple(range(8, 21))
SCATTER_SAMPLES = 64  # the CLI default; passed explicitly so the check knows it


def scatter_round(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for n in SCATTER_DEGREES:
        roots = _draw_roots(rng, n, 2.0, 0.25)
        lam = _draw_lam(rng, 0.5, 3.0)
        argv = ("scatter", "--roots=" + _fmt_list(roots), "--lambda=" + _fmt(lam),
                f"--samples={SCATTER_SAMPLES}")
        ops.append(Op({"roots": roots, "lam": lam, "samples": SCATTER_SAMPLES}, argv))
    return ops


# --- evolve ------------------------------------------------------------------
#
# Jittered rings of degree n and radius r0 >= (n(n-1)(n-2))^(1/3): over
# t in [0, 0.5] the flow term t * D^3 P stays at most half the size of z^n on
# the ring, so roots move smoothly and never come near each other (measured:
# separations stay above 0.65 of their start).  Rings that come closer make
# flow.trajectory raise AmbiguousMatching on some seeds.  Each round ends
# with a translated z^3 over [-1, 1], whose triple collision at t = 0 is
# exact.

RING_STEPS = ((3, 200), (4, 250), (5, 300), (6, 400))
RING_JITTER = 0.15
CUBIC_STEPS = 200


def _evolve_op(kind: str, roots: list[complex], t0: float, t1: float, steps: int, **extra) -> Op:
    argv = ("evolve", "--roots=" + _fmt_list(roots), f"--t0={t0!r}", f"--t1={t1!r}",
            f"--steps={steps}", "--format=json")
    return Op({"kind": kind, "roots": roots, "t0": t0, "t1": t1, "steps": steps, **extra}, argv)


def evolve_round(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for n, steps in RING_STEPS:
        radius = rng.uniform(1.0, 1.25) * (n * (n - 1) * (n - 2)) ** (1.0 / 3.0)
        phase = rng.uniform(-math.pi, math.pi)
        roots = [
            cmath.rect(radius * (1.0 + rng.uniform(-RING_JITTER, RING_JITTER)),
                       phase + 2.0 * math.pi * (k + rng.uniform(-RING_JITTER, RING_JITTER)) / n)
            for k in range(n)
        ]
        ops.append(_evolve_op("ring", roots, 0.0, 0.5, steps))
    center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    ops.append(_evolve_op("cubic", [center] * 3, -1.0, 1.0, CUBIC_STEPS, center=center))
    return ops


# --- certify -----------------------------------------------------------------
#
# The acceptance gate's criteria 1 and 7 as a user would run them: one
# generator per operation, the odd degrees first evolved to a time in
# [-1, 1], then FaddeevParams and the exact certificate at four lambdas.

CERTIFY_DEGREES = tuple(range(10, 17))
CERTIFY_LAMBDAS = 4


def certify_round(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for n in CERTIFY_DEGREES:
        roots = _draw_roots(rng, n, 1.5, 0.2)
        t = rng.uniform(-1.0, 1.0) if n % 2 else None
        lams = [_draw_lam(rng, 0.5, 3.0) for _ in range(CERTIFY_LAMBDAS)]
        ops.append(Op({"roots": roots, "t": t, "lams": lams}, poly=cpoly.from_roots(roots)))
    return ops


def _certify(op: Op) -> tuple[tuple[complex, ...], list[tuple[int, float]]]:
    p = op.poly if op.spec["t"] is None else flow.evolve(op.poly, op.spec["t"])
    results = []
    for lam in op.spec["lams"]:
        fp = transform.FaddeevParams(p, lam)
        results.append((len(fp.roots), transform.verify_eigenfunction_identity(fp)))
    return p.coeffs, results


WORKLOADS = {
    "verify": Workload("verify", verify_round, checks.check_verify, rounds=26),  # 988 operations
    "scatter": Workload("scatter", scatter_round, checks.check_scatter, rounds=106),  # 1378
    "evolve": Workload("evolve", evolve_round, checks.check_evolve, rounds=48),  # 240
    "certify": Workload("certify", certify_round, checks.check_certify, rounds=39),  # 273
}
