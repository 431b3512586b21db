"""Tests for the third-derivative coefficient flow and root tracking.

The flow t -> P(t) with dP/dt = +-P''' truncates to a finite sum for
polynomials, so the cubic z^3 evolves to z^3 + 6t exactly and its roots
are the cube roots of -6t.  Those closed forms drive most oracles here.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest

from moutard import cpoly, flow, verdict
from moutard.cpoly import ComplexPoly, from_roots
from moutard.errors import AmbiguousMatching, NonFinite
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


# --- third derivative ---------------------------------------------------------


def test_d3_cubic():
    assert cpoly.differentiate(Z3.coeffs, 3) == (6 + 0j,)


def test_d3_quartic():
    assert cpoly.differentiate(Z4.coeffs, 3) == (0j, 24 + 0j)


def test_d3_low_degree_collapses():
    assert cpoly.differentiate(ComplexPoly((2j, 1 + 0j)).coeffs, 3) == (0j,)
    assert cpoly.differentiate((1 + 0j,), 3) == (0j,)


def test_d3_accepts_plain_sequences():
    assert cpoly.differentiate([0, 0, 0, 1], 3) == (6 + 0j,)


# --- evolution ----------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 0.7, -1.3])
def test_evolve_cubic_exact(t):
    q = evolve(Z3, t)
    assert q.coeffs == (complex(6 * t), 0j, 0j, 1 + 0j)
    assert abs(q.coeffs[0] - 6 * t) == 0.0


def test_evolve_quartic():
    q = evolve(Z4, 0.3)
    assert q.coeffs == (0j, complex(24 * 0.3), 0j, 0j, 1 + 0j)


def test_evolve_low_degree_is_static():
    p = ComplexPoly((3 - 1j, 2j, 1 + 0j))
    assert evolve(p, 5.0).coeffs == p.coeffs


@pytest.mark.parametrize("t", [0.0, -0.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_evolve_at_time_zero_returns_p0(t, sign):
    # p0 itself keeps its memoized solve, warm from the given roots.
    assert evolve(QUARTIC, t, flow_sign=sign) is QUARTIC
    with pytest.raises(ValueError):
        evolve(QUARTIC, t, flow_sign=2)


def test_evolve_with_an_empty_series_returns_p0():
    p = from_roots([1, 2])
    assert evolve(p, 0.7) is p
    assert evolve(p, 0.7).root_set.roots == (1 + 0j, 2 + 0j)


def test_evolve_group_law():
    rng = random.Random(23)
    p = rand_poly(rng, 7)
    one = evolve(p, 0.9)
    two = evolve(evolve(p, 0.5), 0.4)
    scale = max(abs(c) for c in one.coeffs)
    assert max(abs(x - y) for x, y in zip(one.coeffs, two.coeffs)) < 1e-12 * scale


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


def test_evolve_rejects_bad_sign():
    with pytest.raises(ValueError):
        evolve(Z3, 1.0, flow_sign=2)


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


def test_successive_evolves_accumulate_time():
    p = evolve(evolve(Z3, 0.25), 0.5)
    assert p.coeffs[0] == pytest.approx(complex(6 * 0.75))


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


def test_trajectory_paths_keep_their_phase():
    # each tracked branch keeps a constant angular offset while -6t stays
    # on one ray, which is exactly what continuous labeling must deliver
    tr = trajectory(Z3, -1.0, -0.01, steps=99)
    for path in tr.paths:
        phases = [cmath.phase(z / abs(z)) for z in path]
        spread = max(phases) - min(phases)
        assert spread < 1e-9


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


def test_trajectory_collision_event():
    tr = trajectory(Z3, -1.0, 1.0, steps=400)
    assert len(tr.events) == 1
    ev = tr.events[0]
    assert ev.t_approx == 0.0  # grid hits the collision time exactly
    assert ev.roots_involved == (0, 1, 2)
    assert ev.min_separation < 1e-3


def test_trajectory_separate_collision_windows_are_separate_events():
    # z^4 + 1 flows to z^4 + 24tz + 1.  One pair of roots comes within 0.26
    # near t = -0.07 and the other near t = 0.07, with unflagged times between.
    tr = trajectory(ComplexPoly.from_coefficients([1, 0, 0, 0, 1]), -1.0, 1.0, steps=200, collision_tol=0.5)
    assert len(tr.events) == 2
    first, second = tr.events
    assert first.t_approx == pytest.approx(-0.07) and first.roots_involved == (2, 3)
    assert second.t_approx == pytest.approx(0.07) and second.roots_involved == (0, 1)
    for ev in tr.events:
        assert ev.min_separation == pytest.approx(0.2574, abs=1e-4)


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
    """Record (coefficients, init, (roots, sweeps, worst)) of every per-step solve."""
    solves = []
    solve = cpoly._solve

    def spy(coeffs, init=None):
        out = solve(coeffs, init)
        solves.append((coeffs, init, out))
        return out

    monkeypatch.setattr(cpoly, "_solve", spy)
    return solves


def test_trajectory_warm_starts_from_previous_column(monkeypatch):
    # Each time's solve starts from 2 x_{k-1} - x_{k-2} of the labelled
    # columns (from x_{k-1} at the first step), ends on the same point set as
    # a cold solve, and costs fewer sweeps.
    solves = _spy_solves(monkeypatch)
    tr = trajectory(RING5, 0.0, 0.5, steps=100)
    monkeypatch.undo()
    assert tr.events == ()
    assert len(solves) == len(tr.times)
    assert solves[0][1] is None
    warm_sweeps = cold_sweeps = 0
    for k, (coeffs, init, (_, sweeps, _)) in enumerate(solves[1:], start=1):
        if k == 1:
            assert list(init) == [path[0] for path in tr.paths]
        else:
            assert list(init) == [2 * path[k - 1] - path[k - 2] for path in tr.paths]
        cold = cpoly.roots(ComplexPoly(coeffs))
        assert_same_points([path[k] for path in tr.paths], list(cold), 1e-12)
        warm_sweeps += sweeps
        cold_sweeps += cold.sweeps
    # 201 against 400 cold (600 when the cold seed was one circle enclosing every root).
    assert warm_sweeps == 201
    assert warm_sweeps < cold_sweeps


def test_trajectory_predicts_from_the_previous_column_after_a_collision(monkeypatch):
    # z^3 collides at t = 0: the solves at the flagged time and at the two
    # times after it start from the previous column, not a secant through it.
    solves = _spy_solves(monkeypatch)
    tr = trajectory(Z3, -1.0, 1.0, steps=400)
    inits = [init for _, init, _ in solves]
    assert len(inits) == len(tr.times)
    flagged = [k for k in range(len(tr.times)) if min(abs(a[k] - b[k]) for a, b in
               ((tr.paths[0], tr.paths[1]), (tr.paths[0], tr.paths[2]), (tr.paths[1], tr.paths[2]))) < 1e-3]
    assert flagged == [200]
    for k in range(2, len(tr.times)):
        previous = [path[k - 1] for path in tr.paths]
        secant = [2 * path[k - 1] - path[k - 2] for path in tr.paths]
        assert list(inits[k]) == (previous if k - 1 in flagged or k - 2 in flagged else secant)


def test_trajectory_spends_about_two_horner_passes_per_root_per_step(monkeypatch):
    # One sweep that lands every root and one that finds it at its rounding
    # floor; the closing residual pass reuses the second.  A sweep costs at
    # most one Horner pass per root, so the sweeps bound the passes: 207 over
    # the 101 solves, 306 when each solve started from x_{k-1}.
    solves = _spy_solves(monkeypatch)
    trajectory(RING5, 0.0, 0.5, steps=100)
    monkeypatch.undo()
    assert len(solves) == 101
    assert sum(sweeps for _, _, (_, sweeps, _) in solves) <= 2.2 * 100


def _warm_starts(tr, collision_tol):
    """Each step's warm start rebuilt from the labelled paths by trajectory's rule."""
    columns = list(zip(*tr.paths))
    flagged = [len(c) > 1 and cpoly.min_root_separation(c) < collision_tol for c in columns]
    inits = [None]
    for k in range(1, len(columns)):
        if k >= 2 and not (flagged[k - 1] or flagged[k - 2]):
            inits.append([2 * a - b for a, b in zip(columns[k - 1], columns[k - 2])])
        else:
            inits.append(list(columns[k - 1]))
    return columns, flagged, inits


_JITTERED6 = random.Random(6)
JITTERED6 = from_roots([cmath.rect(3.0 + _JITTERED6.uniform(-0.4, 0.4), 2 * math.pi * k / 6 + _JITTERED6.uniform(-0.2, 0.2))
                        for k in range(6)])


@pytest.mark.parametrize("p0, t0, t1, steps", [(RING5, 0.0, 0.5, 100), (Z3, -1.0, 1.0, 400), (JITTERED6, 0.0, 0.5, 100)])
def test_trajectory_step_solve_equals_the_public_solve_bit_for_bit(p0, t0, t1, steps):
    # Each column is what cpoly.roots gives on evolve(p0, t_k) from the same
    # warm start: the same points as a multiset, and in the same order where
    # neither end of the step was flagged (there labels are kept).
    tr = trajectory(p0, t0, t1, steps)
    columns, flagged, inits = _warm_starts(tr, 1e-3)
    assert any(flagged) == (p0 is Z3)
    key = lambda z: (z.real, z.imag)  # noqa: E731
    for k, t in enumerate(tr.times):
        want = cpoly.roots(evolve(p0, t), init=inits[k]).roots
        assert sorted(columns[k], key=key) == sorted(want, key=key), k
        if k and not (flagged[k] or flagged[k - 1]):
            assert columns[k] == want, k


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


def _full_greedy(prev, cur, margin, lenient):
    """The greedy matching with a rescan of the sorted pairs for every rival: the oracle."""
    n = len(prev)
    pairs = sorted((abs(prev[i] - cur[j]), i, j) for i in range(n) for j in range(n))
    taken_prev, taken_cur = set(), set()
    out = [0j] * n
    for dist, i, j in pairs:
        if i in taken_prev or j in taken_cur:
            continue
        if not lenient:
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
            want = _outcome(_full_greedy, prev, cur, margin, False)
            assert _outcome(_greedy_match, prev, cur, margin) == want
            identities += want == list(cur) and margin > 0
            raised += want[0] == "raised"
        # Margin -inf is the lenient greedy: the same picks, never a raise.
        assert _greedy_match(prev, cur, -math.inf) == _full_greedy(prev, cur, 0.0, True)
    assert identities > 150 and raised > 150


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
            assert _full_greedy(prev, cur, 0.25 * sep, lenient=False) == list(cur)
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
