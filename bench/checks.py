"""Output checks, computed apart from the program under test.

Every check here uses only the standard library and the inputs the
benchmark drew itself: the closed forms of the paper (a = -2N/lambda, b = 0,
the -8*pi centers at the drawn roots), an exact Gaussian-rational evaluation
of the terminating flow sum, and properties any correct output must have
(continuous root paths between collision events, the explicit cube-root
branches of z^3 + 6t).  No saved copy of an earlier program output is
compared against.

A check raises CheckFailed when an output is wrong.  The verify check
returns True when the report is a false FAIL of the known kind (see
KNOWN_FAULT_CHECKS); every other check returns False.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

# Relative tolerance on the fitted forward amplitude a against -2N/lambda.
# Measured errors sit near 2e-15 for degrees 1-20 at the default radius.
A_REL_TOL = 1e-9
# |b| bound of the paper's reflectionless claim, as in acceptance criterion 3.
B_ABS_TOL = 1e-8
# Reported roots against the drawn ones, relative to 1 + |root|.
ROOT_TOL = 1e-8
# Re-expanded tracked roots against the exact P(., t), relative to
# prod(1 + |root|), which bounds every coefficient of the product.  Inside a
# collision an m-fold cluster is only resolved to ~eps^(1/m), so the bound
# there is CLUSTER_TOL (16 * eps^(1/3)).
COEFF_TOL = 1e-10
CLUSTER_TOL = 1e-4
# Tracked cube-root branches of (z - c)^3 + 6t away from the collision
# (acceptance criterion 8 uses the same bound for c = 0).
BRANCH_TOL = 1e-9
BRANCH_MIN_T = 0.05
# Separation below which a time sample counts as part of a collision; the
# program's own collision tolerance is 1e-3.
COLLISION_ZONE = 1e-2

# Checks of the verify suite whose false FAILs come from the fixed stencil
# step and the unnormalised flow defect (ROADMAP item 3).  A known-fault
# operation may fail these and no other.
KNOWN_FAULT_CHECKS = frozenset({"moutard_residual", "gauge_change", "harmonicity", "flow_residual"})


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _c(d: dict) -> complex:
    return complex(d["re"], d["im"])


def _rel(x: complex, ref: complex) -> float:
    return abs(x - ref) / abs(ref)


def _report(rc: int, text: str) -> dict:
    require(rc == 0, f"exit status {rc}")
    try:
        return json.loads(text)
    except ValueError as e:
        raise CheckFailed(f"report is not JSON: {e}") from None


def match_roots(reported: list[complex], drawn: list[complex], tol: float = ROOT_TOL) -> None:
    """Every drawn root is matched by a distinct reported root."""
    require(len(reported) == len(drawn), f"{len(reported)} roots reported, {len(drawn)} drawn")
    left = list(reported)
    for r in drawn:
        k = min(range(len(left)), key=lambda i: abs(left[i] - r))
        require(abs(left[k] - r) <= tol * (1.0 + abs(r)), f"root {r} reported as {left[k]}")
        left.pop(k)


def check_verify(spec: dict, out: tuple[int, str]) -> bool:
    rep = _report(*out)
    roots, lam = spec["roots"], spec["lam"]
    n = len(roots)
    require(rep["degree"] == n, f"degree {rep['degree']} != {n}")
    require(_c(rep["lambda"]) == lam, "lambda was not echoed exactly")
    match_roots([_c(r) for r in rep["roots"]], roots)
    require(rep["results"]["identity_residual"] == 0.0,
            f"identity residual {rep['results']['identity_residual']!r} is not exactly 0")
    sc = rep["scattering"]
    require(sc["recovered_count"] == n, f"recovered count {sc['recovered_count']} != {n}")
    expected = -2.0 * n / lam
    require(_rel(_c(sc["a"]), expected) < A_REL_TOL, f"a = {_c(sc['a'])} vs -2N/lambda = {expected}")
    require(abs(_c(sc["b"])) < B_ABS_TOL, f"|b| = {abs(_c(sc['b']))}")
    checks = rep["checks"]
    require(rep["all_passed"] == all(checks.values()), "all_passed disagrees with the checks")
    failing = {name for name, ok in checks.items() if not ok}
    if not failing:
        return False
    require(spec["known_fault"], f"false FAIL of the exact eigenfunction on {sorted(failing)}")
    require(failing <= KNOWN_FAULT_CHECKS, f"known-fault operation also failed {sorted(failing - KNOWN_FAULT_CHECKS)}")
    return True


def check_scatter(spec: dict, out: tuple[int, str]) -> bool:
    rep = _report(*out)
    n, lam = len(spec["roots"]), spec["lam"]
    require(rep["degree"] == n, f"degree {rep['degree']} != {n}")
    require(rep["recovered_count"] == n, f"recovered count {rep['recovered_count']} != {n}")
    require(rep["samples"] == spec["samples"], f"{rep['samples']} samples, asked for {spec['samples']}")
    expected = -2.0 * n / lam
    require(_rel(_c(rep["expected_a"]), expected) < 1e-15, "expected_a is not -2N/lambda")
    require(_rel(_c(rep["a"]), expected) < A_REL_TOL, f"a = {_c(rep['a'])} vs -2N/lambda = {expected}")
    b = _c(rep["b"])
    require(abs(b) < B_ABS_TOL, f"|b| = {abs(b)}")
    require(rep["abs_b"] == abs(b), "abs_b disagrees with b")
    return False


# --- exact flow ------------------------------------------------------------
#
# Coefficients are Gaussian rationals (re, im) over Fraction, ascending.


def exact_from_roots(roots: list[complex]) -> list[tuple[Fraction, Fraction]]:
    coeffs = [(Fraction(1), Fraction(0))]
    for r in roots:
        rr, ri = Fraction(r.real), Fraction(r.imag)
        out = [(Fraction(0), Fraction(0))] + coeffs
        for j, (cr, ci) in enumerate(coeffs):
            out[j] = (out[j][0] - (rr * cr - ri * ci), out[j][1] - (rr * ci + ri * cr))
        coeffs = out
    return coeffs


def exact_flow_terms(roots: list[complex]) -> list[list[tuple[Fraction, Fraction]]]:
    """D^{3m} P0 for m = 0, 1, ... while nonzero; P0 = prod(z - r) exactly."""
    term = exact_from_roots(roots)
    terms = []
    while term:
        terms.append(term)
        term = [(term[j][0] * j * (j - 1) * (j - 2), term[j][1] * j * (j - 1) * (j - 2))
                for j in range(3, len(term))]
    return terms


def exact_flow_at(terms: list[list[tuple[Fraction, Fraction]]], t: float) -> list[complex]:
    """Coefficients of P(., t) = sum_m t^m / m! D^{3m} P0, rounded once."""
    s = Fraction(t)
    re = [c[0] for c in terms[0]]
    im = [c[1] for c in terms[0]]
    weight = Fraction(1)
    for m in range(1, len(terms)):
        weight = weight * s / m
        for j, (cr, ci) in enumerate(terms[m]):
            re[j] += weight * cr
            im[j] += weight * ci
    return [complex(float(a), float(b)) for a, b in zip(re, im)]


def _expand(roots: list[complex]) -> list[complex]:
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= r * coeffs[j + 1]
    return coeffs


def _min_sep(points: list[complex]) -> float:
    return min(abs(a - b) for i, a in enumerate(points) for b in points[i + 1:])


def check_evolve(spec: dict, out: tuple[int, str]) -> bool:
    rep = _report(*out)
    roots, t0, t1, steps = spec["roots"], spec["t0"], spec["t1"], spec["steps"]
    n = len(roots)
    times = rep["times"]
    require(len(times) == steps + 1, f"{len(times)} samples for {steps} steps")
    for k, t in enumerate(times):
        require(abs(t - (t0 + (t1 - t0) * k / steps)) <= 1e-12, f"sample {k} at t = {t!r} is off the grid")
    paths = [[_c(z) for z in path] for path in rep["paths"]]
    require(len(paths) == n and all(len(p) == len(times) for p in paths), "paths have the wrong shape")
    columns = [[p[k] for p in paths] for k in range(len(times))]

    seps = [_min_sep(col) for col in columns]
    terms = exact_flow_terms(roots)
    for k, t in enumerate(times):
        exact = exact_flow_at(terms, t)
        got = _expand(columns[k])
        scale = math.prod(1.0 + abs(z) for z in columns[k])
        worst = max(abs(g - e) for g, e in zip(got, exact))
        tol = COEFF_TOL if seps[k] >= COLLISION_ZONE else CLUSTER_TOL
        require(worst <= tol * scale,
                f"roots at t = {t!r} re-expand {worst:.3e} away from P(., t) (scale {scale:.3e})")

    for k in range(len(times) - 1):
        gap = min(seps[k], seps[k + 1])
        if gap < COLLISION_ZONE:
            continue
        jump = max(abs(columns[k + 1][i] - columns[k][i]) for i in range(n))
        require(jump < 0.5 * gap,
                f"a path jumps {jump:.3e} between t = {times[k]!r} and {times[k + 1]!r} "
                f"(separation {gap:.3e})")
    for ev in rep["events"]:
        require(ev["t_approx"] in times, f"event at t = {ev['t_approx']!r} is not a sample time")
        require(all(0 <= i < n for i in ev["roots_involved"]), "event names a root that does not exist")

    if spec["kind"] == "cubic":
        c = spec["center"]
        for k, t in enumerate(times):
            if abs(t) < BRANCH_MIN_T:
                continue
            w = complex(-6.0 * t)
            base = cmath.rect(abs(w) ** (1.0 / 3.0), cmath.phase(w) / 3.0)
            branches = [c + base * cmath.rect(1.0, 2.0 * math.pi * j / 3.0) for j in range(3)]
            for z in columns[k]:
                err = min(abs(z - b) for b in branches)
                require(err <= BRANCH_TOL, f"root {z} at t = {t!r} is {err:.3e} off the cube-root branches")
        require(len(rep["events"]) == 1, f"{len(rep['events'])} collision events, expected exactly 1")
        ev = rep["events"][0]
        require(sorted(ev["roots_involved"]) == [0, 1, 2], "the triple collision does not involve all roots")
        require(abs(ev["t_approx"]) < BRANCH_MIN_T, f"the collision is reported at t = {ev['t_approx']!r}")
    return False


def check_certify(spec: dict, out: tuple[tuple, list[tuple[int, float]]]) -> bool:
    coeffs, results = out
    roots = spec["roots"]
    n = len(roots)
    require(len(coeffs) == n + 1, f"generator has degree {len(coeffs) - 1}, expected {n}")
    if spec["t"] is not None:
        exact = exact_flow_at(exact_flow_terms(roots), spec["t"])
        # The same sum over prod(z + |r|) at |t| bounds every term's size.
        scale = max(abs(c) for c in exact_flow_at(exact_flow_terms([-abs(r) for r in roots]), abs(spec["t"])))
        worst = max(abs(g - e) for g, e in zip(coeffs, exact))
        require(worst <= COEFF_TOL * scale, f"evolved coefficients are {worst:.3e} off the exact flow sum")
    require(len(results) == len(spec["lams"]), f"{len(results)} certificates for {len(spec['lams'])} lambdas")
    for lam, (count, residual) in zip(spec["lams"], results):
        require(count == n, f"{count} roots found for degree {n}")
        require(residual == 0.0, f"certificate residual {residual!r} at lambda = {lam} is not exactly 0")
    return False
