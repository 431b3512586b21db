"""Tests for the third-derivative coefficient flow and root tracking.

The flow t -> P(t) with dP/dt = +-P''' truncates to a finite sum for
polynomials, so the cubic z^3 evolves to z^3 + 6t exactly and its roots
are the cube roots of -6t.  Those closed forms drive most oracles here.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import pytest
from helpers import bits

from moutard import cpoly, flow, verdict
from moutard.cpoly import ComplexPoly, from_roots
from moutard.errors import AmbiguousMatching, NonConvergence, NonFinite
from moutard.flow import (
    _greedy_match,
    _labels_kept,
    evolve,
    trajectory,
    verify_flow,
)
from moutard.transform import transformed_potential

Z3 = ComplexPoly((0j, 0j, 0j, 1 + 0j))
Z4 = ComplexPoly((0j, 0j, 0j, 0j, 1 + 0j))


def rand_poly(rng, deg, spread=2.0):
    coeffs = [complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
              for _ in range(deg)]
    return ComplexPoly(tuple(coeffs) + (1 + 0j,))


# --- evolution ----------------------------------------------------------------


@pytest.mark.parametrize(
    "times", [(0.5,), (0.7,), (-1.3,), pytest.param((0.25, 0.5), id="test_successive_evolves_accumulate_time")],
    ids=lambda times: str(times[0]),
)
def test_evolve_cubic_exact(times):
    # Successive evolves accumulate time: z^3 evolved by each time in turn is z^3 + 6 sum(times).
    q = Z3
    for t in times:
        q = evolve(q, t)
    t = sum(times)
    assert q.coeffs == (complex(6 * t), 0j, 0j, 1 + 0j)
    assert abs(q.coeffs[0] - 6 * t) == 0.0


def test_evolve_quartic():
    q = evolve(Z4, 0.3)
    assert q.coeffs == (0j, complex(24 * 0.3), 0j, 0j, 1 + 0j)


@pytest.mark.parametrize("t", [0.0, -0.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_evolve_at_time_zero_returns_p0(t, sign):
    # p0 itself keeps its memoized solve, warm from the given roots.
    assert evolve(QUARTIC, t, flow_sign=sign) is QUARTIC
    with pytest.raises(ValueError):
        evolve(QUARTIC, t, flow_sign=2)


@pytest.mark.parametrize(
    "p, t, roots",
    [
        (from_roots([1, 2]), 0.7, (1 + 0j, 2 + 0j)),
        pytest.param(ComplexPoly((3 - 1j, 2j, 1 + 0j)), 5.0, None, id="test_evolve_low_degree_is_static"),
    ],
)
def test_evolve_with_an_empty_series_returns_p0(p, t, roots):
    assert evolve(p, t) is p
    if roots is not None:
        assert evolve(p, t).root_set.roots == roots


def test_evolve_preserves_degree_and_monicity():
    rng = random.Random(24)
    for deg in (3, 5, 8):
        q = evolve(rand_poly(rng, deg), 1.7)
        assert q.degree == deg
        assert q.coeffs[-1] == 1 + 0j


def test_evolve_sign_reverses_time():
    rng = random.Random(25)
    p = rand_poly(rng, 6)
    assert evolve(p, 0.8, flow_sign=-1).coeffs == evolve(p, -0.8).coeffs


QUARTIC = from_roots([1, 2, 3j, -1])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("p", [QUARTIC, ComplexPoly((3 - 1j, 2j, 1 + 0j))], ids=["quartic", "static"])
def test_evolve_rejects_non_finite_time(p, t):
    with pytest.raises(NonFinite):
        evolve(p, t)


def test_evolve_overflowing_coefficient_is_non_finite():
    with pytest.raises(NonFinite) as info:
        evolve(QUARTIC, 1e308)
    assert info.value.record()["details"] == {"t": 1e308}


def test_verify_flow_rejects_non_finite_time():
    with pytest.raises(NonFinite):
        verify_flow(QUARTIC, math.nan, 0.1)


def test_verify_flow_where_the_defect_overflows_is_non_finite():
    # P(t + dt) - P(t - dt) passes the float range; the defect read nan.
    p = ComplexPoly((2.631522472859824e303 - 1.1949126427876608e305j, -5.152590933277753e307 + 5.320724451485813e302j,
                     -4.3644628971299796e306 + 1.7976931348623157e308j, 1 + 0j))
    with pytest.raises(NonFinite, match="^the flow defect at t = 1.528136569432574e[+]303 overflows") as exc:
        verify_flow(p, 1.528136569432574e303, 1.6995871762318389e307, -1)
    assert exc.value.details == {"t": 1.528136569432574e303, "dt": 1.6995871762318389e307}


# --- differential check --------------------------------------------------------


def test_verify_flow_cubic():
    assert verify_flow(Z3, 2.2, 1e-4) < 1e-8


def test_verify_flow_static_polynomial_is_exact():
    assert verify_flow(ComplexPoly((1j, 1 + 0j)), 0.5, 1e-3) == 0.0


def test_verify_flow_degree_seven():
    p = rand_poly(random.Random(26), 7)
    assert verify_flow(p, 0.3, 1e-4) < 1e-6
    assert verify_flow(p, 0.3, 1e-4, flow_sign=-1) < 1e-6


def test_verify_flow_keeps_the_three_point_rule_to_degree_eight():
    # P(t) is quadratic in t up to degree 8, where the 3-point rule is exact.
    p = rand_poly(random.Random(27), 8)
    ahead, behind = evolve(p, 0.3 + 1e-4).coeffs, evolve(p, 0.3 - 1e-4).coeffs
    rhs = cpoly.differentiate(evolve(p, 0.3).coeffs, 3) + (0j,) * 3
    want = max(abs((a - b) / (2.0 * 1e-4) - r) for a, b, r in zip(ahead, behind, rhs))
    assert verify_flow(p, 0.3, 1e-4) == want


@pytest.mark.parametrize("deg", [9, 10, 12])
def test_verify_flow_is_exact_in_t_beyond_degree_eight(deg):
    # P(t) has degree floor(N/3) >= 3 in t here; the 3-point rule left a
    # dt^2 term of 6e-4 to 0.24 at dt = 1e-4.  The wider stencil has no
    # truncation, so the step of the CLI (0.1) only sets the rounding.
    rng = random.Random(deg)
    p = from_roots([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg)])
    assert verify_flow(p, 0.3, 0.1) < 1e-8
    assert verify_flow(p, 0.3, 0.1, flow_sign=-1) < 1e-8


def test_verify_flow_rejects_bad_step():
    with pytest.raises(ValueError):
        verify_flow(Z3, 1.0, 0.0)


@pytest.mark.parametrize("p, lam", [(from_roots([1, -1, 0.5j, 2]), 2), (rand_poly(random.Random(6), 6), 1 + 1j)])
def test_verify_fails_an_evolve_that_ignores_t(monkeypatch, p, lam):
    # Negative control: an evolve that runs its checks but returns P(0) at
    # every t integrates no flow, and verify's flow check must say so.  Every
    # P(t) the check reads comes from evolve.
    honest = evolve

    def frozen(p0, t, flow_sign=1):
        honest(p0, t, flow_sign)
        return p0

    monkeypatch.setattr(flow, "evolve", frozen)
    got = verdict.verify(p, lam)
    assert [c[3] for c in got.checks if c[0] == "flow_residual"] == [False]
    assert got.all_passed is False


def test_evolution_is_polynomial_in_time():
    # coefficients are polynomials in t of degree <= ceil(deg/3); for a
    # degree-7 start, values at 4 Lagrange nodes determine the whole path
    p = rand_poly(random.Random(12), 7)
    nodes = [-0.3, 0.1, 0.4, 0.8]
    target = 0.63
    vals = [evolve(p, s).coeffs for s in nodes]
    want = evolve(p, target).coeffs
    for idx in range(len(want)):
        acc = 0j
        for j, tj in enumerate(nodes):
            w = 1.0
            for m, tm in enumerate(nodes):
                if m != j:
                    w *= (target - tm) / (tj - tm)
            acc += w * vals[j][idx]
        assert abs(acc - want[idx]) < 1e-10 * max(1.0, abs(want[idx]))


# --- root trajectories ----------------------------------------------------------


def cube_roots(w):
    r, phi = cmath.polar(w)
    return [
        cmath.rect(r ** (1.0 / 3.0), (phi + 2 * math.pi * k) / 3.0) for k in range(3)
    ]


def assert_same_points(got, want, tol):
    # compare as sets: sorting by coordinates is unstable when two points
    # share a real part up to rounding, so pair each expected point with
    # its nearest sample instead
    assert len(got) == len(want)
    for w in want:
        assert min(abs(g - w) for g in got) < tol


def test_trajectory_cubic_branches():
    # roots of z^3 + 6t; stay clear of the triple collision at t = 0
    tr = trajectory(Z3, -1.0, -0.01, steps=99)
    assert tr.events == ()
    assert len(tr.paths) == 3
    assert len(tr.times) == 100
    for k, t in enumerate(tr.times):
        got = [path[k] for path in tr.paths]
        assert_same_points(got, cube_roots(complex(-6.0 * t)), 1e-9)
    # each tracked branch keeps a constant angular offset while -6t stays
    # on one ray, which is exactly what continuous labeling must deliver
    for path in tr.paths:
        phases = [cmath.phase(z / abs(z)) for z in path]
        assert max(phases) - min(phases) < 1e-9


def test_trajectory_endpoint_unit_roots():
    tr = trajectory(Z3, -1.0, -1.0 / 6.0, steps=50)
    assert_same_points([p[-1] for p in tr.paths], cube_roots(1 + 0j), 1e-9)


def test_trajectory_static_quadratic():
    p = from_roots([1.0, -1.0])
    tr = trajectory(p, 0.0, 2.0, steps=10)
    assert tr.events == ()
    for path in tr.paths:
        assert max(abs(z - path[0]) for z in path) < 1e-12


def test_trajectory_single_root():
    tr = trajectory(from_roots([5.0]), 0.0, 1.0, steps=4)
    assert len(tr.paths) == 1
    assert all(abs(z - 5.0) < 1e-12 for z in tr.paths[0])


@pytest.mark.parametrize(
    "p0, steps, tol, events",
    [
        # z^4 + 1 flows to z^4 + 24tz + 1.  One pair of roots comes within 0.26
        # near t = -0.07 and the other near t = 0.07, with unflagged times between.
        (ComplexPoly.from_coefficients([1, 0, 0, 0, 1]), 200, 0.5, [(-0.07, (2, 3), 0.2574), (0.07, (0, 1), 0.2574)]),
        # The grid hits z^3's triple collision at t = 0 exactly.
        pytest.param(Z3, 400, 1e-3, [(0.0, (0, 1, 2), 0.0)], id="test_trajectory_collision_event"),
    ],
)
def test_trajectory_separate_collision_windows_are_separate_events(p0, steps, tol, events):
    tr = trajectory(p0, -1.0, 1.0, steps=steps, collision_tol=tol)
    assert len(tr.events) == len(events)
    for ev, (t, involved, separation) in zip(tr.events, events):
        assert ev.t_approx == pytest.approx(t, rel=1e-6, abs=0) and ev.roots_involved == involved
        assert ev.min_separation == pytest.approx(separation, abs=1e-4)


def test_trajectory_velocity_is_bounded_between_steps():
    # |dz/dt| = 2/|z|^2 on each branch of z^3 + 6t = 0; consecutive samples
    # should never jump more than 5x the local speed times the step
    tr = trajectory(Z3, -1.0, -0.05, steps=95)
    dt = (-0.05 - (-1.0)) / 95
    for path in tr.paths:
        for a, b in zip(path, path[1:]):
            speed = 2.0 / min(abs(a), abs(b)) ** 2
            assert abs(b - a) <= 5.0 * speed * dt


# Degree-5 ring whose roots stay far apart over t in [0, 0.5].
RING5 = from_roots([cmath.rect(4.0 + 0.3 * (k % 2), 2 * math.pi * k / 5 + 0.1 * k) for k in range(5)])


def _spy_solves(monkeypatch):
    """Record (coefficients, init, (roots, sweeps, worst)) of every per-step solve.

    init is copied before the solve, which overwrites its list.
    """
    solves = []
    solve = cpoly._solve

    def spy(coeffs, init):
        given = None if init is None else list(init)
        out = solve(coeffs, init)
        solves.append((coeffs, given, out))
        return out

    monkeypatch.setattr(cpoly, "_solve", spy)
    return solves


def _spy_corrections(monkeypatch, call=None, perturb=None):
    """Record (coefficients, guesses, result) of every call of the trajectory's Newton corrector.

    The call numbered ``call``, counting from 0, runs on ``perturb(guesses)`` instead.
    """
    corrections = []
    correct = cpoly._correct

    def spy(coeffs, guesses):
        if len(corrections) == call:
            guesses = perturb(list(guesses))
        out = correct(coeffs, guesses)
        corrections.append((coeffs, list(guesses), out))
        return out

    monkeypatch.setattr(cpoly, "_correct", spy)
    return corrections


def _at_floor(coeffs, x):
    """_correct's keep test on one root: _aberth's |p(x)| <= 4 eps * scale, with the scale under _correct's cap."""
    pv, scale = 0j, 0.0
    for c in reversed(coeffs):
        pv = pv * x + c
        scale = scale * abs(x) + abs(c)
    cap = 0.5 * sys.float_info.max / len(coeffs)
    return abs(pv) <= 4 * sys.float_info.epsilon * scale and scale < cap and sum(map(abs, coeffs)) < cap


def assert_same_roots(got, want, rel):
    """got and want agree as multisets: the nearest points of want are distinct and within rel (1 + |z|)."""
    nearest = [min(range(len(want)), key=lambda i: abs(z - want[i])) for z in got]
    assert sorted(nearest) == list(range(len(want))), (got, want)
    assert all(abs(z - want[i]) <= rel * (1 + abs(z)) for z, i in zip(got, nearest)), (got, want)


def _warm_starts(tr, collision_tol):
    """Each step's starts rebuilt from the labelled paths by trajectory's rule.

    Returns the columns, whether each time is flagged, the corrector's
    quadratic guess 3 (x_{k-1} - x_{k-2}) + x_{k-3} at each step whose three
    previous times are unflagged (else None), and the warm start of the solve
    that each step falls back to.
    """
    columns = list(zip(*tr.paths))
    flagged = [len(c) > 1 and cpoly.min_root_separation(c) < collision_tol for c in columns]
    guesses, inits = [None], [None]
    for k in range(1, len(columns)):
        steady = k >= 3 and not any(flagged[k - 3:k])
        guesses.append([3 * (a - b) + c for a, b, c in zip(*columns[k - 3:k][::-1])] if steady else None)
        if k >= 2 and not (flagged[k - 1] or flagged[k - 2]):
            inits.append([2 * a - b for a, b in zip(columns[k - 1], columns[k - 2])])
        else:
            inits.append(list(columns[k - 1]))
    return columns, flagged, guesses, inits


def _corrected(columns, guesses, corrections):
    """Step -> the corrector's result, for each step that kept it.

    Checks that the corrector ran at exactly the steps that have a guess, on that guess.
    """
    steady = [k for k, guess in enumerate(guesses) if guess is not None]
    assert [guess for _, guess, _ in corrections] == [guesses[k] for k in steady]
    return {k: out for k, (_, _, out) in zip(steady, corrections) if out is not None and list(columns[k]) == out}


def test_trajectory_spends_about_two_horner_passes_per_root_per_step(monkeypatch):
    # A solve costs at most one Horner pass per root per sweep: the fused p,
    # p' and scale pass of each root not yet at its floor.  The corrector
    # spends two per Newton step, the fused p, p' pass and the keep test's pass
    # for p and the scale: a root settled by one step costs 2, by two 4, and a
    # declined call is charged 4 per root.  9 sweeps over the 3 solves and 196
    # passes per root over the 98 corrections; 207 when each of the 101 times
    # was an Aberth solve, and 306 when each solve started from x_{k-1}.
    solves = _spy_solves(monkeypatch)
    corrections = _spy_corrections(monkeypatch)
    trajectory(RING5, 0.0, 0.5, steps=100)
    monkeypatch.undo()
    assert len(solves) + len(corrections) == 101
    monkeypatch.setattr(cpoly, "_NEWTON_STEPS", 1)
    passes = 0
    for coeffs, guesses, out in corrections:
        if out is None:
            passes += 4 * len(guesses)
        else:
            passes += sum(2 if cpoly._correct(coeffs, [g]) is not None else 4 for g in guesses)
    total = sum(sweeps for _, _, (_, sweeps, _) in solves) + passes / RING5.degree
    assert total == 9 + 196
    assert total <= 2.2 * 100


_JITTERED6 = random.Random(6)
JITTERED6 = from_roots([cmath.rect(3.0 + _JITTERED6.uniform(-0.4, 0.4), 2 * math.pi * k / 6 + _JITTERED6.uniform(-0.2, 0.2))
                        for k in range(6)])


QUADRATIC = from_roots([1.5 + 0.2j, -0.7 - 1.1j])


@pytest.mark.parametrize(
    "p0, t0, t1, steps, sign, flags, solved",
    [
        (RING5, 0.0, 0.5, 100, 1, [], [0, 1, 2]),
        # z^3 collides at t = 0.  The corrector settles all but the 27 steps with
        # t in [-0.06, 0.07] around the collision, where the roots are too close
        # for two Newton steps, and one step where the carried separation bound
        # gives out.
        (Z3, -1.0, 1.0, 400, 1, [200], [0, 1, 2, *range(188, 215), 246]),
        (JITTERED6, 0.0, 0.5, 100, 1, [], [0, 1, 2]),
        (JITTERED6, 0.0, 0.5, 100, -1, [], [0, 1, 2]),
        (QUADRATIC, -0.5, 0.5, 20, -1, [], [0, 1, 2]),
    ],
    # The first three keep the ids they had before the sign was a parameter.
    ids=["p00-0.0-0.5-100", "p01--1.0-1.0-400", "p02-0.0-0.5-100", "p03-0.0-0.5-100-sign-1", "p04--0.5-0.5-20-sign-1"],
)
def test_trajectory_step_solve_equals_the_public_solve_bit_for_bit(monkeypatch, p0, t0, t1, steps, sign, flags, solved):
    # The first three times, and each step the corrector does not settle, are
    # solved from the warm start that _warm_starts rebuilds: the first cold,
    # then from the previous column at the two times after a flagged one, and
    # from the secant 2 x_{k-1} - x_{k-2} elsewhere.  Each column that the
    # corrector did not settle is what cpoly.roots gives on evolve(p0, t_k)
    # from that start: the same points as a multiset, and in the same order
    # where neither end of the step was flagged (there labels are kept).  Each
    # column it settled has every root at _aberth's rounding floor and the same
    # points as cpoly.roots within 1e-14 (1 + |z|).  The quadratic's series is
    # empty, so every row is P0 itself.
    solves = _spy_solves(monkeypatch)
    corrections = _spy_corrections(monkeypatch)
    tr = trajectory(p0, t0, t1, steps, flow_sign=sign)
    monkeypatch.undo()
    columns, flagged, guesses, inits = _warm_starts(tr, 1e-3)
    assert [k for k, f in enumerate(flagged) if f] == flags
    corrected = _corrected(columns, guesses, corrections)
    assert [k for k in range(len(tr.times)) if k not in corrected] == solved
    assert [init for _, init, _ in solves] == [inits[k] for k in solved]
    key = lambda z: (z.real, z.imag)  # noqa: E731
    for k, t in enumerate(tr.times):
        p = evolve(p0, t, sign)
        want = cpoly.roots(p, init=inits[k]).roots
        if k in corrected:
            assert all(_at_floor(p.coeffs, x) for x in columns[k]), k
            assert_same_roots(columns[k], want, 1e-14)
            continue
        assert sorted(columns[k], key=key) == sorted(want, key=key), k
        if k and not (flagged[k] or flagged[k - 1]):
            assert columns[k] == want, k


# A static quadratic whose p' vanishes at 0: a Newton step from just off 0 lands past the float range.
PLUS_MINUS_I = from_roots([1j, -1j])


@pytest.mark.parametrize(
    "p0, perturb, declined",
    [
        # Far outside every basin: two Newton steps do not reach the floor.
        (RING5, lambda gs: [100 * g for g in gs], True),
        # A guess whose modulus overflows, and one whose Newton step overflows it.
        (RING5, lambda gs: [complex(1.5e308, 1.5e308)] + gs[1:], True),
        (PLUS_MINUS_I, lambda gs: [complex(1.5e-309, -1.5e-309)] + gs[1:], True),
        # Each guess on its neighbour's root: every root passes the keep test, the labels do not.
        (RING5, lambda gs: gs[1:] + gs[:1], False),
    ],
    ids=["basin", "overflow", "overflow-newton", "labels"],
)
def test_trajectory_falls_back_to_the_public_solve_where_the_corrector_declines(monkeypatch, p0, perturb, declined):
    # The step at t_10 falls back to the solve, which equals cpoly.roots from
    # the secant start bit for bit and in order; the corrector settles the
    # steps before it and the one after.
    calls = _spy_corrections(monkeypatch, 10 - 3, perturb)
    tr = trajectory(p0, 0.0, 0.5, steps=20)
    monkeypatch.undo()
    columns, flagged, _, inits = _warm_starts(tr, 1e-3)
    assert not any(flagged) and len(calls) == 18
    coeffs, guesses, out = calls[10 - 3]
    assert (out is None) == declined
    if out is not None:
        assert all(_at_floor(coeffs, x) for x in out) and out != list(columns[10])
        assert_same_roots(out, columns[10], 1e-14)
    assert list(columns[10]) == list(cpoly.roots(evolve(p0, tr.times[10]), init=inits[10]).roots)
    assert [k for k, (_, _, o) in enumerate(calls, start=3) if o is None or list(columns[k]) != o] == [10]


def at_oracle(p0, terms, t, sign):
    """Oracle: P(t)'s coefficients for one time, weighted by the running product s / m."""
    s = float(t) * sign
    if not math.isfinite(s):
        raise NonFinite(f"flow time must be finite, got {t!r}", t=t)
    out = list(p0.coeffs)
    weight = 1.0
    for m, term in enumerate(terms, start=1):
        weight *= s / m
        out[:len(term)] = [o + weight * c for o, c in zip(out, term)]
    if not all(map(cmath.isfinite, out)):
        raise NonFinite(f"a coefficient of P(t) overflows at t = {t!r}", t=t)
    return tuple(out)


def _rows_until_error(rows):
    """The rows' bits up to the first NonFinite, then its record."""
    out = []
    try:
        for row in rows:
            out.append(bits(row))
    except NonFinite as exc:
        out.append(exc.record())
    return out


def _oracle_rows_until_error(p0, terms, times, sign):
    """at_oracle's rows' bits up to the first NonFinite, then its record."""
    out = []
    for t in times:
        try:
            out.append(bits(at_oracle(p0, terms, t, sign)))
        except NonFinite as exc:
            out.append(exc.record())
            break
    return out


def _grid(t0, t1, steps):
    return [t0 + (t1 - t0) * k / steps for k in range(steps + 1)]


def _first_overflow(p0, terms, sign):
    """The least power of two t >= 1 at which at_oracle raises."""
    t = 1.0
    while True:
        try:
            at_oracle(p0, terms, t, sign)
        except NonFinite:
            return t
        t *= 2.0


def test_at_rows_equal_the_per_time_formula_bit_for_bit():
    # At degrees 0-12 (0-2 have an empty series) and both signs: a seeded
    # grid across t = 0, the span-1e308 grid whose later times are inf, a
    # non-finite time between two good ones, and from degree 3 a grid of 40
    # steps to 3 t* whose coefficients overflow part way along, where t* is
    # the first power of two at which they overflow.
    rng = random.Random(43)
    cases = []
    for deg in range(13):
        for sign in (1, -1):
            p0 = rand_poly(rng, deg, spread=rng.choice((0.5, 2.0, 50.0)))
            cases.append((p0, _grid(rng.uniform(-2.0, -0.1), rng.uniform(0.1, 2.0), rng.randint(1, 60)), sign))
            cases.append((p0, _grid(0.0, 1e308, 3), sign))
            cases.append((p0, [0.5, rng.choice((math.inf, -math.inf, math.nan)), 0.5], sign))
            if deg > 2:
                top = _first_overflow(p0, flow._series(p0), sign)
                cases.append((p0, [top * (3 * k / 40) for k in range(41)], sign))
    raised_at = []
    for p0, times, sign in cases:
        terms = flow._series(p0)
        assert (not terms) == (p0.degree <= 2)
        want = _oracle_rows_until_error(p0, terms, times, sign)
        if isinstance(want[-1], dict):
            raised_at.append(len(want) - 1)
        assert _rows_until_error(flow._at(p0, terms, times, sign)) == want, (p0, times[:2], sign)
    # Every span-1e308 and non-finite-time grid, and each part-way grid after 7 to 14 good rows.
    assert len(raised_at) == 26 + 26 + 20
    assert sum(7 <= k <= 14 for k in raised_at) == 20


@pytest.mark.parametrize("sign", [1, -1])
def test_at_scans_each_column_once_and_raises_where_the_rows_do(sign):
    # P0 = z^5 + 10 z^4 + z^3 + 1 has D^3 P0 = 60 z^2 + 240 z + 6 and D^6 P0 = 0, so on the
    # grid t_k = 1e305 k the z coefficient overflows from k = 8 on, the z^2 coefficient from
    # k = 30 on, and the constant one not at all: the first bad row comes from a column other
    # than the constant term's, mid-grid, ahead of a later column's first bad row.  A nan time
    # after it changes nothing; one before it is reported instead.
    p0 = cpoly.ComplexPoly((1, 0, 0, 1, 10, 1))
    terms = flow._series(p0)
    grid = [1e305 * k for k in range(41)]
    for times, bad in ((grid, 8), (grid[:20] + [math.nan] + grid[20:], 8), (grid[:5] + [math.nan] + grid[5:], 5)):
        want = _oracle_rows_until_error(p0, terms, times, sign)
        assert len(want) == bad + 1 and isinstance(want[-1], dict)
        assert _rows_until_error(flow._at(p0, terms, times, sign)) == want
    # The one-time grid that evolve reads: a non-finite time, with a series of one term, of
    # three terms and an empty one, and a time where the series overflows.
    p9 = rand_poly(random.Random(44), 9)
    for p, t in [(p, t) for p in (p0, p9, QUADRATIC) for t in (math.nan, math.inf)] + [(p0, 1e307), (p9, 1e200)]:
        with pytest.raises(NonFinite) as exc:
            evolve(p, t, sign)
        assert [exc.value.record()] == _oracle_rows_until_error(p, flow._series(p), [t], sign), (p, t)


@pytest.mark.parametrize("later", ["solve", "overflow"])
def test_trajectory_raises_the_error_of_the_earlier_step(monkeypatch, later):
    # P(t)'s coefficients overflow from grid step k on, and the solve raises
    # at step j: the error of the earlier of the two steps propagates.  The
    # stand-in solve returns the same four roots at every step, so each
    # step from the fourth on first hands the corrector their quadratic
    # prediction, which it declines on these rows, then solves from the secant.
    t0, t1, steps = 0.0, 2e307, 10
    times = _grid(t0, t1, steps)
    with pytest.raises(NonFinite) as overflow:
        for k, t in enumerate(times):
            at_oracle(QUARTIC, flow._series(QUARTIC), t, 1)
    assert 1 < k < steps - 1
    j = k + 1 if later == "solve" else k - 1
    fixed = [complex(i) for i in range(4)]
    calls = []
    correct = cpoly._correct

    def corrector(coeffs, guesses):
        out = correct(coeffs, guesses)
        calls.append(("correct", list(guesses), out))
        return out

    def solve(coeffs, init):
        calls.append(("solve", init))
        if sum(kind == "solve" for kind, *_ in calls) - 1 == j:
            raise NonConvergence(7, 1.0)
        return list(fixed), 1, 0.0

    monkeypatch.setattr(cpoly, "_correct", corrector)
    monkeypatch.setattr(cpoly, "_solve", solve)
    with pytest.raises((NonFinite, NonConvergence)) as exc:
        trajectory(QUARTIC, t0, t1, steps)
    solved = k if later == "solve" else j + 1
    want = [("solve", None), ("solve", fixed), ("solve", fixed)]
    want += [("correct", fixed, None), ("solve", fixed)] * (solved - 3)
    assert calls == want
    if later == "solve":
        assert exc.value.record() == overflow.value.record()
    else:
        assert exc.type is NonConvergence


def test_trajectory_ambiguous_matching_raises():
    with pytest.raises(AmbiguousMatching) as info:
        trajectory(Z3, -1.0, 0.92, steps=2)
    rec = info.value.record()
    assert rec["type"] == "AmbiguousMatching"
    assert rec["details"]["margin"] > 0.0


def test_trajectory_overflowing_time_is_non_finite():
    with pytest.raises(NonFinite):
        trajectory(QUARTIC, 0.0, 1e308, steps=3)
    with pytest.raises(NonFinite):
        trajectory(QUARTIC, -math.inf, 1.0, steps=3)


@pytest.mark.parametrize(
    "t0, t1, details",
    [
        (-math.inf, 1e308, {"t": "-inf"}),
        (0.0, math.inf, {"t": "inf"}),
        (math.nan, 1.0, {"t": "nan"}),
        (-1e308, 1e308, {"span": "inf", "t0": -1e308, "t1": 1e308}),
    ],
)
def test_trajectory_names_a_non_finite_end_or_span(t0, t1, details):
    # The grid t0 + (t1 - t0) * k / steps would turn these into a nan time.
    with pytest.raises(NonFinite) as info:
        trajectory(QUARTIC, t0, t1, steps=3)
    assert info.value.record()["details"] == details


def test_trajectory_of_from_roots_equals_its_coefficient_twin():
    p = from_roots([1.5, -1.5 + 0.3j, 0.2 + 1.8j, -0.4 - 1.7j])
    twin = ComplexPoly.from_coefficients(p.coeffs)
    assert trajectory(p, 0.0, 0.5, steps=40) == trajectory(twin, 0.0, 0.5, steps=40)


def _full_greedy(prev, cur, margin):
    """The greedy matching with a rescan of the sorted pairs for every rival: the oracle; margin -inf never raises."""
    n = len(prev)
    pairs = sorted((abs(prev[i] - cur[j]), i, j) for i in range(n) for j in range(n))
    taken_prev, taken_cur = set(), set()
    out = [0j] * n
    for dist, i, j in pairs:
        if i in taken_prev or j in taken_cur:
            continue
        rival = next(
            (d for d, i2, j2 in pairs
             if (i2 == i) != (j2 == j) and i2 not in taken_prev and j2 not in taken_cur),
            math.inf,
        )
        if rival - dist < margin:
            raise AmbiguousMatching("ambiguous", distance=dist, rival=rival, margin=margin)
        out[i] = cur[j]
        taken_prev.add(i)
        taken_cur.add(j)
    return out


def _outcome(match, *args):
    try:
        return match(*args)
    except AmbiguousMatching as e:
        return ("raised", e.details)


def _matching_cases(rng):
    """(prev, cur) pairs: identity, permuted and near-tied, on dyadic grids so that ties are exact."""
    for n in range(2, 9):
        for _ in range(6):
            prev = [complex(rng.randint(-8, 8), rng.randint(-8, 8)) / 4 for _ in range(n)]
            if len(set(prev)) < n:
                continue
            step = [complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 64 for _ in range(n)]
            near = [p + s for p, s in zip(prev, step)]
            yield prev, near
            yield prev, rng.sample(near, n)
            # Every current root halfway between two previous ones, or on top of one.
            yield prev, [(prev[i] + prev[(i + 1) % n]) / 2 if rng.random() < 0.5 else prev[i] for i in range(n)]
            yield prev, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]


def test_greedy_match_shortcut_equals_the_full_greedy():
    rng = random.Random(31)
    identities = raised = 0
    for prev, cur in _matching_cases(rng):
        d = [[abs(p - c) for c in cur] for p in prev]
        n = len(prev)
        gaps = sorted({d[i][j] - d[i][i] for i in range(n) for j in range(n) if j != i}
                      | {d[j][i] - d[i][i] for i in range(n) for j in range(n) if j != i})
        margins = [0.0, 1e-3, 0.25 * cpoly.min_root_separation(prev), 10.0]
        margins += [g for g in gaps if g > 0][:3]  # exact ties with the shortcut's inequality
        for margin in margins:
            want = _outcome(_full_greedy, prev, cur, margin)
            assert _outcome(_greedy_match, prev, cur, margin) == want
            identities += want == list(cur) and margin > 0
            raised += want[0] == "raised"
        # Margin -inf: the same picks, never a raise.
        assert _greedy_match(prev, cur, -math.inf) == _full_greedy(prev, cur, -math.inf)
    assert identities > 150 and raised > 150


def test_greedy_match_message_states_the_gap_under_the_margin():
    with pytest.raises(AmbiguousMatching) as info:  # pick (0, 0) at 0.5; its rival (0, 1) is at 1
        _greedy_match([0j, 2 + 0j], [0.5 + 0j, 1 + 0j], 0.75)
    assert "differ by 5.000e-01 < margin 7.500e-01" in str(info.value)
    assert info.value.details == {"distance": 0.5, "rival": 1.0, "margin": 0.75}


def _toward_nearest(points):
    """The unit vector from each point towards its nearest other point."""
    nearest = [min((q for q in points if q != p), key=lambda q: abs(q - p)) for p in points]
    return [(q - p) / abs(q - p) for p, q in zip(points, nearest)]


def _certificate_cases(rng):
    """(prev, cur) pairs whose largest move sits at, just below and just above 3/8 of the separation."""
    yield [0.5 + 0.25j], [1e6 + 0j]  # a single root: separation inf
    for n in range(2, 9):
        for _ in range(24):
            # Dyadic grids: each root moves along an axis, at its nearest
            # neighbour where that lies on the axis, so ties are exact.
            prev = [complex(rng.randint(-8, 8), rng.randint(-8, 8)) / 4 for _ in range(n)]
            if len(set(prev)) < n:
                continue
            sep = cpoly.min_root_separation(prev)
            axes = (1, -1, 1j, -1j)
            units = [u if u in axes else rng.choice(axes) for u in _toward_nearest(prev)]
            for scale in (0.375 * (1 - 2**-30), 0.375, 0.375 * (1 + 2**-30)):
                yield prev, [p + scale * sep * u for p, u in zip(prev, units)]
            # Random pairs: every root moves up to half the separation in any
            # direction, or straight at its nearest neighbour by the most the
            # certificate admits.
            prev = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            sep = cpoly.min_root_separation(prev)
            yield prev, [p + cmath.rect(rng.uniform(0, 0.5) * sep, rng.uniform(-math.pi, math.pi)) for p in prev]
            yield prev, [p + 0.375 * (1 - 2**-40) * sep * u for p, u in zip(prev, _toward_nearest(prev))]


def test_labels_kept_only_where_the_greedy_keeps_them():
    # Soundness of the displacement certificate: wherever it accepts, the
    # greedy at margin sep / 4 returns cur unchanged and does not raise.
    rng = random.Random(14)
    kept = declined = 0
    for prev, cur in _certificate_cases(rng):
        sep = cpoly.min_root_separation(prev) if len(prev) > 1 else math.inf
        delta = max(abs(c - p) for p, c in zip(prev, cur))
        least = _labels_kept(delta, sep)
        if least > -math.inf:
            kept += 1
            assert least <= cpoly.min_root_separation(cur) if len(cur) > 1 else least == math.inf
            assert delta < 0.375 * sep
            assert _full_greedy(prev, cur, 0.25 * sep) == list(cur)
        else:
            declined += 1
            assert least == -math.inf and delta >= 0.375 * (1 - 2**-40) * sep
        if delta <= 0.375 * (1 - 2**-30) * sep:
            assert least > -math.inf
    assert kept > 200 and declined > 450


def test_trajectory_certifies_well_separated_steps_without_matching(monkeypatch):
    # RING5's roots never move 3/8 of their separation in one step, so no
    # step reaches the greedy matching (every step did before the
    # certificate read the displacement).
    strict = []
    match = flow._greedy_match

    def spy(prev, cur, margin):
        strict.append(margin > -math.inf)
        return match(prev, cur, margin)

    monkeypatch.setattr(flow, "_greedy_match", spy)
    tr = trajectory(RING5, 0.0, 0.5, steps=100)
    assert tr.events == () and sum(strict) == 0


def test_trajectory_scans_separations_only_where_the_bound_gives_out(monkeypatch):
    # A wide degree-10 ring (separation 3.1) whose roots move up to 1.5 in
    # all keeps its carried lower bound above collision_tol, so the O(n^2)
    # scan runs at the first time only, not at each of the 401 times.
    scans = []
    scan = cpoly.min_root_separation

    def counted(pts):
        scans.append(len(pts))
        return scan(pts)

    monkeypatch.setattr(cpoly, "min_root_separation", counted)
    ring = from_roots([cmath.rect(5.0, 2 * math.pi * k / 10 + 0.1) for k in range(10)])
    tr = trajectory(ring, 0.0, 0.4, steps=400)
    assert tr.events == () and len(tr.times) == 401
    assert scans == [10]
    # On a narrower ring the bound gives out; those steps scan the previous
    # column, so the greedy matching gets its margin from the exact separation.
    margins = []
    match = flow._greedy_match

    def spy(prev, cur, margin):
        margins.append((margin, 0.25 * scan(prev)))
        return match(prev, cur, margin)

    monkeypatch.setattr(flow, "_greedy_match", spy)
    ring = from_roots([cmath.rect(3.0, 2 * math.pi * k / 10 + 0.1) for k in range(10)])
    trajectory(ring, 0.0, 1.0, steps=100)
    assert 1 < len(scans) < 101 and margins and all(m == exact for m, exact in margins)


def test_trajectory_validations():
    with pytest.raises(ValueError):
        trajectory(Z3, 1.0, 1.0, steps=10)
    with pytest.raises(ValueError):
        trajectory(Z3, 0.0, 1.0, steps=0)
    with pytest.raises(ValueError):
        trajectory(ComplexPoly((1 + 0j,)), 0.0, 1.0, steps=10)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-3, -math.inf])
def test_trajectory_rejects_a_collision_tol_that_is_not_positive(tol):
    # A nan tolerance flags nothing, and z^3 over [-1, 1] then fails as an
    # ambiguous matching instead of naming the tolerance.
    with pytest.raises(ValueError, match=f"collision_tol must be positive, got {tol!r}"):
        trajectory(Z3, -1.0, 1.0, steps=200, collision_tol=tol)


def test_trajectory_accepts_an_infinite_collision_tol():
    tr = trajectory(Z3, -1.0, 1.0, steps=20, collision_tol=math.inf)
    assert len(tr.events) == 1 and tr.events[0].roots_involved == (0, 1, 2)


# --- singular potential along the flow -----------------------------------------


def test_potential_at_cubic():
    pot = transformed_potential(evolve(Z3, 1.0))
    assert pot.weight == pytest.approx(-8.0 * math.pi)
    assert len(pot.centers) == 3
    for c in pot.centers:
        assert abs(c**3 + 6.0) < 1e-9


def test_potential_at_constant_is_free():
    assert transformed_potential(evolve(ComplexPoly((1 + 0j,)), 3.0)).centers == ()


def test_potential_at_static_linear():
    pot = transformed_potential(evolve(from_roots([5.0]), 2.0))
    assert len(pot.centers) == 1
    assert abs(pot.centers[0] - 5.0) < 1e-12
