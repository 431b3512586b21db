"""Polynomial arithmetic and root-finder tests.

Expected values come from hand arithmetic or from independent oracles written
here (naive monomial summation, brute-force pair scans); nothing is copied
from the implementation under test.
"""

from __future__ import annotations

import cmath
import math
import pickle
import random
import re
import sys

import pytest
from helpers import bits, separated_points

from moutard import cpoly
from moutard.errors import InsufficientRoots, NonConvergence, NonFinite


def naive_eval(coeffs, z):
    """Monomial-sum oracle: sum c_k z^k term by term, no nesting."""
    return sum(c * z**k for k, c in enumerate(coeffs))


def eval_scale(coeffs, z):
    """Backward-error yardstick sum |c_k| |z|^k shared by both algorithms."""
    return sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))


# --- construction ----------------------------------------------------------


def test_from_roots_empty_is_one():
    assert cpoly.from_roots([]).coeffs == (1 + 0j,)


def test_from_roots_double_origin():
    assert cpoly.from_roots([0, 0]).coeffs == (0j, 0j, 1 + 0j)


def test_from_roots_symmetric_pair():
    assert cpoly.from_roots([1, -1]).coeffs == (-1 + 0j, 0j, 1 + 0j)


def test_constructor_requires_monic():
    with pytest.raises(ValueError):
        cpoly.ComplexPoly((1 + 0j, 2 + 0j))


def test_non_monic_error_names_the_leading_coefficient():
    with pytest.raises(ValueError, match=re.escape("leading coefficient must be exactly 1, got (3+0j)")):
        cpoly.ComplexPoly((1 + 0j, 2 + 0j, 3 + 0j))


def test_constructor_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        cpoly.ComplexPoly(())
    with pytest.raises(ValueError):
        cpoly.ComplexPoly((complex("inf"), 1 + 0j))


def test_from_coefficients_normalizes_and_strips():
    p = cpoly.ComplexPoly.from_coefficients([2, 4, 0, 0])
    assert p.coeffs == (0.5 + 0j, 1 + 0j)
    with pytest.raises(ValueError):
        cpoly.ComplexPoly.from_coefficients([0, 0, 0])


def test_overflowing_coefficients_are_non_finite():
    # Finite inputs whose coefficients overflow used to raise a plain ValueError.
    with pytest.raises(NonFinite, match="roots are multiplied out") as exc:
        cpoly.from_roots([1e200, 1e200, 1e200])
    assert exc.value.details == {"degree": 3}
    with pytest.raises(NonFinite, match="divided by the leading one") as exc:
        cpoly.ComplexPoly.from_coefficients([1e300, 1e-300])
    assert exc.value.details == {"lead": 1e-300 + 0j}
    # A non-finite input is still the constructor's ValueError.
    with pytest.raises(ValueError, match="coefficients must be finite"):
        cpoly.from_roots([complex("nan")])
    with pytest.raises(ValueError, match="coefficients must be finite"):
        cpoly.ComplexPoly.from_coefficients([math.inf, 1])


def test_degree():
    assert cpoly.from_roots([]).degree == 0
    assert cpoly.from_roots([1, 2, 3]).degree == 3


# --- evaluation ------------------------------------------------------------


def test_evaluate_quadratic_at_two():
    assert cpoly.horner(cpoly.from_roots([1, -1]).coeffs, 2) == 3 + 0j


def test_evaluate_at_a_root_is_zero():
    z1 = 0.7 - 2.2j
    assert cpoly.horner(cpoly.from_roots([z1]).coeffs, z1) == 0j


def test_evaluate_matches_naive_oracle_degree_8():
    rng = random.Random(11)
    for _ in range(20):
        coeffs = tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(8)
        ) + (1 + 0j,)
        p = cpoly.ComplexPoly(coeffs)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(cpoly.horner(p.coeffs, z) - naive_eval(coeffs, z)) <= 1e-13 * max(
            1.0, eval_scale(coeffs, z)
        )


def test_evaluate_matches_naive_oracle_degree_12_large_z():
    rng = random.Random(12)
    for _ in range(20):
        coeffs = tuple(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(12)
        ) + (1 + 0j,)
        p = cpoly.ComplexPoly(coeffs)
        z = cmath.rect(rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(cpoly.horner(p.coeffs, z) - naive_eval(coeffs, z)) <= 1e-12 * max(
            1.0, eval_scale(coeffs, z)
        )


@pytest.mark.parametrize("z", [1e200 + 1e200j, 1e200, complex(math.nan, 0.0), math.inf])
def test_evaluate_raises_where_the_value_is_not_finite(z):
    with pytest.raises(NonFinite) as exc:
        cpoly.horner(cpoly.from_roots([1, 2]).coeffs, z)
    assert f"at {z!r}" in str(exc.value)
    assert exc.value.details["point"] is z


# --- differentiation -------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs, k, want",
    [
        ((0j, 0j, 0j, 1 + 0j), 2, (0j, 6 + 0j)),
        pytest.param((0j, 0j, 0j, 1 + 0j), 3, (6 + 0j,), id="test_d3_cubic"),
        pytest.param((0j, 0j, 0j, 0j, 1 + 0j), 3, (0j, 24 + 0j), id="test_d3_quartic"),
        pytest.param([0, 0, 0, 1], 3, (6 + 0j,), id="test_d3_accepts_plain_sequences"),
    ],
)
def test_derivative_power_rule(coeffs, k, want):
    assert cpoly.differentiate(coeffs, k) == want


def test_derivative_order_zero_is_identity():
    p = cpoly.from_roots([1j, -2])
    assert cpoly.differentiate(p.coeffs, 0) == p.coeffs


@pytest.mark.parametrize(
    "cases",
    [
        [(cpoly.from_roots([1, -1]).coeffs, 3), ((5 + 0j,), 1)],
        pytest.param([((2j, 1 + 0j), 3), ((1 + 0j,), 3)], id="test_d3_low_degree_collapses"),
    ],
)
def test_derivative_below_degree_is_zero(cases):
    for coeffs, k in cases:
        assert cpoly.differentiate(coeffs, k) == (0j,)


def test_derivative_rejects_negative_order():
    with pytest.raises(ValueError):
        cpoly.differentiate((1 + 0j,), -1)


def test_derivative_overflow_is_non_finite():
    # The order-2 derivative of 1e308 (1 + z + z^2) used to be ((inf+nanj),).
    with pytest.raises(NonFinite, match="order-2 derivative is not finite") as exc:
        cpoly.differentiate([1e308, 1e308, 1e308], 2)
    assert exc.value.details == {"order": 2}
    assert cpoly.differentiate([1e300, 1e300, 1e300], 2) == (2e300 + 0j,)


def test_derivative_linearity_exact():
    # Dyadic coefficients (k/16) times small integer factors are exact in
    # doubles, so linearity must hold bitwise, not just approximately.
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randrange(2, 9)
        a = tuple(complex(rng.randrange(-64, 65) / 16, rng.randrange(-64, 65) / 16) for _ in range(n))
        b = tuple(complex(rng.randrange(-64, 65) / 16, rng.randrange(-64, 65) / 16) for _ in range(n))
        summed = tuple(x + y for x, y in zip(a, b))
        for k in (1, 2):
            lhs = cpoly.differentiate(summed, k)
            rhs = tuple(
                x + y
                for x, y in zip(cpoly.differentiate(a, k), cpoly.differentiate(b, k))
            )
            assert lhs == rhs


def test_derivative_chain_is_differentiate_bit_for_bit():
    rng = random.Random(9)
    for degree in (0, 1, 5, 16):
        p = cpoly.from_roots([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(degree)])
        chain = p.derivatives
        assert len(chain) == degree
        for k, dk in enumerate(chain, 1):
            assert bits(dk) == bits(cpoly.differentiate(p.coeffs, k))
        assert p.derivatives is chain


def test_derivative_chain_names_the_lowest_overflowing_order():
    # P' = 10 z^9 + 9e307 z^8 is finite and P'' = 90 z^8 + 7.2e308 z^7 is not.  The chain
    # said "order-1" for every order; it now says what differentiate(coeffs, 2) says.
    p = cpoly.ComplexPoly((0j,) * 9 + (1e307 + 0j, 1 + 0j))
    with pytest.raises(NonFinite, match="order-2 derivative is not finite") as exc:
        p.derivatives
    assert exc.value.details == {"order": 2}
    assert "derivatives" not in p.__dict__
    with pytest.raises(NonFinite, match="order-2 derivative is not finite"):
        cpoly.differentiate(p.coeffs, 2)


def test_derivative_chain_is_not_a_field():
    p = cpoly.from_roots([1.5, -0.5 + 1j, 2j])
    twin = cpoly.ComplexPoly(p.coeffs)
    seen = (hash(p), repr(p))
    p.derivatives
    assert p == twin and (hash(p), repr(p)) == seen == (hash(twin), repr(twin))
    assert repr(p) == "ComplexPoly(coeffs=((3+1.5j), (-2.75+3.5j), (-1-3j), (1+0j)))"


def test_derivative_at_roots_matches_product_rule():
    # p = prod (z - z_k) has p'(z_j) = prod_{k != j} (z_j - z_k).
    rng = random.Random(8)
    pts = separated_points(rng, 6, radius=2.5, min_sep=0.9)
    p = cpoly.from_roots(pts)
    dp = cpoly.differentiate(p.coeffs, 1)
    for j, zj in enumerate(pts):
        want = math.prod((zj - zk for k, zk in enumerate(pts) if k != j), start=1 + 0j)
        assert abs(cpoly.horner(dp, zj) - want) <= 1e-10 * max(1.0, abs(want))


# --- roots -----------------------------------------------------------------


@pytest.mark.parametrize(
    "p, roots",
    [
        (cpoly.ComplexPoly((1 + 0j, 0j, 1 + 0j)), (1j, -1j)),
        pytest.param(cpoly.from_roots([2, -2]), (2, -2), id="test_rootset_is_iterable_and_sized"),
    ],
)
def test_roots_known_quadratic(p, roots):
    # The RootSet itself is sized and iterable.
    got = cpoly.roots(p)
    assert len(got) == 2
    for want in roots:
        assert min(abs(g - want) for g in got) < 1e-10


def test_roots_cube_roots_of_minus_one():
    # z^3 + 1 = (z + 1)(z^2 - z + 1): roots -1 and e^{+-i pi/3} by hand.
    got = list(cpoly.roots(cpoly.ComplexPoly((1 + 0j, 0j, 0j, 1 + 0j))))
    assert len(got) == 3
    for want in (-1, cmath.rect(1, math.pi / 3), cmath.rect(1, -math.pi / 3)):
        assert min(abs(g - want) for g in got) < 1e-10


def test_roots_recover_six_separated_points():
    rng = random.Random(5)
    for _ in range(8):
        pts = separated_points(rng, 6, radius=3.0, min_sep=1.0)
        got = list(cpoly.roots(cpoly.from_roots(pts)))
        for want in pts:
            assert min(abs(g - want) for g in got) < 1e-10


def test_roots_round_trip_coefficients():
    rng = random.Random(6)
    for _ in range(6):
        pts = separated_points(rng, 8, radius=3.5, min_sep=0.7)
        p = cpoly.from_roots(pts)
        q = cpoly.from_roots(list(cpoly.roots(p)))
        for cp, cq in zip(p.coeffs, q.coeffs):
            assert abs(cp - cq) <= 1e-9 * max(1.0, abs(cp))


def test_roots_residuals_below_gate():
    rng = random.Random(13)
    pts = separated_points(rng, 7, radius=3.0, min_sep=0.5)
    p = cpoly.from_roots(pts)
    for r in cpoly.roots(p):
        assert abs(cpoly.horner(p.coeffs, r)) < 1e-12 * max(1.0, eval_scale(p.coeffs, r))


def test_roots_nonconvergence_is_reported(monkeypatch):
    monkeypatch.setattr(cpoly, "MAX_SWEEPS", 1)
    clustered = cpoly.from_roots([1.0, 1.0 + 1e-9, -1.0, -1.0 - 1e-9j])
    with pytest.raises(NonConvergence) as exc:
        cpoly.roots(clustered)
    assert exc.value.iterations == 1
    assert exc.value.worst_residual > 0
    assert exc.value.record()["details"]["iterations"] == 1


def box_points(rng, n, half):
    return [complex(rng.uniform(-half, half), rng.uniform(-half, half)) for _ in range(n)]


@pytest.mark.parametrize("degree", [20, 25, 30, 35, 40])
def test_roots_recover_random_box_roots_high_degree(degree):
    # The old seed radius 1 + max|c_j| overflowed Horner here and the NaN
    # iterates slipped through the gate.
    pts = box_points(random.Random(0), degree, 5.0)
    rs = cpoly.roots(cpoly.from_roots(pts))
    assert rs.worst_residual < cpoly.ROOT_TOL
    for want in pts:
        assert min(abs(g - want) for g in rs) < 1e-9


def test_roots_degree_60_is_finite_or_typed_error():
    p = cpoly.from_roots(box_points(random.Random(0), 60, 5.0))
    try:
        rs = cpoly.roots(p)
    except NonConvergence as exc:
        assert exc.iterations >= 1
    else:
        assert len(rs) == 60
        assert all(cmath.isfinite(r) for r in rs)
        for r in rs:
            assert abs(cpoly.horner(p.coeffs, r)) < 1e-12 * max(1.0, eval_scale(p.coeffs, r))


def test_roots_horner_overflow_raises_nonconvergence():
    # Finite coefficients, but every guess on the enclosing circle has
    # |z|^2 ~ 4e600, beyond the double range.
    p = cpoly.ComplexPoly((1e300 + 0j, 1e300 + 0j, 1 + 0j))
    with pytest.raises(NonConvergence) as exc:
        cpoly.roots(p)
    assert exc.value.worst_residual == math.inf
    with pytest.raises(NonConvergence):
        cpoly.roots(p, init=[1e300, -1e300])


def test_cold_seed_sweeps_degree_20_box():
    # Seeded on the circle of radius 1 + max|c_j| this solve took 89 sweeps,
    # and on the circle of radius 2 max_k |c_{n-k}|^(1/k) 29.
    rs = cpoly.roots(cpoly.from_roots(box_points(random.Random(0), 20, 2.0)))
    assert rs.sweeps == 11


@pytest.mark.parametrize(
    "coeffs",
    [
        pytest.param(cpoly.from_roots(box_points(random.Random(0), 20, 2.0)).coeffs, id="box-20"),
        pytest.param((1e-300, 1e300, 1), id="an-edge-radius-underflows"),
        # Both lower edges have radii below the smallest normal float, so both are raised to it, and the second just past it.
        pytest.param((5e-324, 1e-5, 1e308, 1), id="two-edge-radii-underflow"),
        pytest.param((1e-320, 1e-320, 1e-320, 1), id="subnormal"),
        pytest.param((5e-324, 0, 0, 0, 0, 0, 0, 0, 1), id="subnormal-degree-8"),
        pytest.param((-8e307, 0, 1), id="near-overflow"),
        pytest.param(tuple(complex(-1) ** (k / 7) for k in range(40)) + (1,), id="unimodular-40"),
    ],
)
def test_cold_seed_gives_n_finite_pairwise_distinct_guesses(coeffs):
    guesses = cpoly._cold_seed(coeffs)
    assert len(guesses) == len(coeffs) - 1
    assert all(map(cmath.isfinite, guesses))
    assert len(set(guesses)) == len(guesses)


def test_cold_seed_of_z_to_the_n_is_the_unit_circle():
    for n in (1, 2, 5, 17):
        guesses = cpoly._cold_seed((0j,) * n + (1 + 0j,))
        assert len(set(guesses)) == n
        assert all(abs(abs(g) - 1.0) < 1e-15 for g in guesses)


def test_cold_seed_puts_zero_roots_inside_the_others():
    # z^3 (z^2 - 4): the hull has the one edge 3 -> 5 of radius 2, and the
    # three roots at 0 start on the circle of half that radius.
    guesses = cpoly._cold_seed((0j, 0j, 0j, -4, 0, 1))
    assert len(set(guesses)) == 5
    assert sorted(round(abs(g), 12) for g in guesses) == [1.0, 1.0, 1.0, 2.0, 2.0]


def test_cold_seed_starts_near_both_scales():
    # (z - 1e-6)(z - 1e6): one guess at each scale, where one enclosing circle put both at 2e6.
    small, large = sorted(cpoly._cold_seed(cpoly.from_roots([1e-6, 1e6]).coeffs), key=abs)
    assert abs(abs(small) / 1e-6 - 1.0) < 1e-6
    assert abs(abs(large) / 1e6 - 1.0) < 1e-6


def test_roots_near_the_top_of_the_float_range():
    # |c0| + |x|^2 at the old seed circle of radius 2 sqrt(8e307) overflowed, and so did the sum
    # |p(x)| + |p'(x)| + scale of finite terms that the sweep tested; both now stay in range.
    rs = cpoly.roots(cpoly.ComplexPoly((-8e307, 0, 1)))
    assert rs.sweeps == 4 and rs.worst_residual < cpoly.ROOT_TOL
    got = sorted(rs, key=lambda x: x.real)
    for x, want in zip(got, (-8.944271909999159e153, 8.944271909999159e153)):
        assert abs(x - want) < 1e-15 * abs(want)


def _census_classes():
    """name -> (rng, n) -> monic coefficients: six kinds of polynomial that the cold seed must serve."""

    def gauss(rng):
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))

    def polar(rng, r):
        return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))

    def box(rng):
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    return {
        "box": lambda rng, n: cpoly.from_roots([box(rng) for _ in range(n)]).coeffs,
        "gaussian coefficients": lambda rng, n: [gauss(rng) for _ in range(n)] + [1],
        "coefficients x 10^+-8": lambda rng, n: [gauss(rng) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n)] + [1],
        "cluster": lambda rng, n: cpoly.from_roots([0.5 + 1e-3 * polar(rng, rng.random()) for _ in range(n)]).coeffs,
        "double roots": lambda rng, n: cpoly.from_roots([w for z in (box(rng) for _ in range((n + 1) // 2)) for w in (z, z)]).coeffs,
        "roots at scales 10^+-6": lambda rng, n: cpoly.from_roots([polar(rng, 10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(n)]).coeffs,
    }


def test_cold_seed_census():
    # 40 polynomials per class at degrees 1-40.  The caps are the totals measured with the Newton-polygon
    # seed; the enclosing circle of radius 2 max_k |c_{n-k}|^(1/k) took the sweeps in the comments, and
    # raised NonConvergence on the number of polynomials in brackets.
    caps = {
        "box": 402,  # 1158
        "gaussian coefficients": 311,  # 661
        "coefficients x 10^+-8": 248,  # 2525 [2]
        "cluster": 587,  # 1889
        "double roots": 672,  # 1528
        "roots at scales 10^+-6": 312,  # 4559 [6]
    }
    rng = random.Random(2026)
    spent = {}
    for name, make in _census_classes().items():
        spent[name] = 0
        for _ in range(40):
            p = cpoly.ComplexPoly(make(rng, rng.randint(1, 40)))
            rs = cpoly.roots(p)
            assert len(rs) == p.degree
            for x in rs:
                assert _scaled_residual(p.coeffs, x) < cpoly.ROOT_TOL, (name, p.degree)
            spent[name] += rs.sweeps
    assert all(spent[name] <= caps[name] for name in caps), spent


def test_warm_start_from_own_roots_is_cheaper_and_identical():
    rng = random.Random(14)
    p = cpoly.from_roots(separated_points(rng, 8, radius=3.0, min_sep=0.5))
    cold = cpoly.roots(p)
    warm = cpoly.roots(p, init=cold.roots)
    assert warm.sweeps < cold.sweeps
    assert warm.worst_residual < cpoly.ROOT_TOL
    for a, b in zip(cold, warm):
        assert abs(a - b) < 1e-12


def test_warm_start_keeps_guess_order_on_a_nearby_polynomial():
    pts = [1.0, -1.0 + 0.5j, 2j, -1.5 - 1j, 0.5 - 2j]
    nearby = cpoly.from_roots([z + 1e-3 * (1 + 1j) for z in pts])
    warm = cpoly.roots(nearby, init=pts)
    for guess, got in zip(pts, warm):
        assert abs(got - guess - 1e-3 * (1 + 1j)) < 1e-12


def test_warm_start_from_coincident_guesses_falls_back_to_cold_seed():
    # The roots of z^3 are a triple cluster at 0.  Started there, the
    # Aberth steps for z^3 + 0.03 are ~1e-16, so the warm run stops after
    # one sweep with a scaled residual of 3e-2; roots() must rerun cold.
    p = cpoly.ComplexPoly((0.03 + 0j, 0j, 0j, 1 + 0j))
    cluster = cpoly.roots(cpoly.ComplexPoly((0j, 0j, 0j, 1 + 0j))).roots
    cold = cpoly.roots(p)
    warm = cpoly.roots(p, init=cluster)
    assert warm.sweeps == 1 + cold.sweeps
    assert warm.worst_residual < cpoly.ROOT_TOL
    assert warm == cold


def test_warm_start_from_equal_guesses_takes_the_cold_seed():
    # Exactly equal guesses would creep apart through 2^-50 nudges (50
    # sweeps here, against 5 cold); roots() skips the warm run instead.
    p = cpoly.ComplexPoly((0.03 + 0j, 0j, 0j, 1 + 0j))
    cold = cpoly.roots(p)
    warm = cpoly.roots(p, init=[0, 0, 0])
    assert warm.sweeps == cold.sweeps
    assert warm == cold


def _scaled_residual(coeffs, x):
    """|p(x)| / max(1, sum_j |c_j||x|^j), both sums nested from the top."""
    value, scale = 0j, 0.0
    for c in reversed(coeffs):
        value = value * x + c
        scale = scale * abs(x) + abs(c)
    return abs(value) / max(1.0, scale)


def test_worst_residual_is_the_recomputed_max_bitwise():
    # The solver keeps the residual it measured when a root reached its
    # rounding floor; it must equal a fresh evaluation at the returned root.
    rng = random.Random(31)
    for degree in range(1, 21):
        pts = separated_points(rng, degree, radius=2.0, min_sep=0.2)
        p = cpoly.ComplexPoly(cpoly.from_roots(pts).coeffs)
        nearby = [z + 1e-4 * cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi)) for z in pts]
        for rs in (cpoly.roots(p), cpoly.roots(p, init=pts), cpoly.roots(p, init=nearby)):
            assert rs.worst_residual == max(_scaled_residual(p.coeffs, x) for x in rs), degree
    # Each root of z^2 - 0.50000025 has the scale 1.0000005, just past the divisor's floor of 1.
    p = cpoly.ComplexPoly((-0.50000025, 0, 1))
    rs = cpoly.roots(p)
    assert rs.worst_residual == max(_scaled_residual(p.coeffs, x) for x in rs)


def test_warm_start_at_a_critical_point_is_nudged_off_it(monkeypatch):
    # The guess 0 is the critical point of z^3 - 1, where p' = 0 and no
    # Aberth step exists; the solver nudges it and the warm run converges.
    monkeypatch.setattr(cpoly, "MAX_SWEEPS", 1)
    xs = [0j, 2 + 0j, -2 + 0.5j]
    cpoly._aberth((-1, 0, 0, 1), xs)
    assert xs[0] == 2.0**-50 * (1 + 1j)
    monkeypatch.undo()

    def no_cold_seed(coeffs):
        raise AssertionError("the warm run fell back to the cold seed")

    monkeypatch.setattr(cpoly, "_cold_seed", no_cold_seed)
    # The guess 1 is a critical point of z^3 - 3z - 1 off the origin, where the nudge scales with |x|;
    # that cubic's roots are 2 cos(k pi / 9) for k = 1, 5, 7.
    for coeffs, init, sweeps, roots in [
        ((-1, 0, 0, 1), [0, 2, -2 + 0.5j], 6, (cmath.rect(1.0, -2 * math.pi / 3), 1.0, cmath.rect(1.0, 2 * math.pi / 3))),
        ((-1, -3, 0, 1), [1, 2, -2 + 0.5j], 5, [2 * math.cos(k * math.pi / 9) for k in (5, 1, 7)]),
    ]:
        rs = cpoly.roots(cpoly.ComplexPoly(coeffs), init=init)
        assert rs.sweeps == sweeps
        assert rs.worst_residual < cpoly.ROOT_TOL
        for got, want in zip(rs, roots):
            assert abs(got - want) < 1e-12


def test_aberth_nudges_a_zero_correction_denominator(monkeypatch):
    # At 2, next to 1.25, on z^2 - 1: newton 0.75 times repulse 4/3 rounds to
    # exactly 1.0, so the Aberth correction would divide by zero.
    monkeypatch.setattr(cpoly, "MAX_SWEEPS", 1)
    xs = [2 + 0j, 1.25 + 0j]
    cpoly._aberth((-1, 0, 1), xs)
    assert xs[0] == 2 + 3 * 2.0**-50 * (1 + 1j)
    monkeypatch.undo()
    rs = cpoly.roots(cpoly.ComplexPoly((-1, 0, 1)), init=[2, 1.25])
    assert rs.sweeps == 5 and rs.worst_residual < cpoly.ROOT_TOL
    assert sorted(x.real for x in rs) == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_aberth_nudges_coincident_iterates():
    # roots ignores equal guesses, so only a direct call starts from them;
    # the repulsion would divide by zero without the nudge.
    xs = [1 + 1j, 1 + 1j]
    sweeps, worst = cpoly._aberth((-1, 0, 1), xs)
    assert sweeps == 30 and worst < cpoly.ROOT_TOL
    assert sorted(x.real for x in xs) == pytest.approx([-1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize(
    "coeffs, init, sweeps, worst, final",
    [
        pytest.param(
            (-1, 0, 0, 1), [0.5, 0.5, 2j], 29, 1.2412670766236366e-16,
            ["(1+8.470329472543003e-22j)", "(-0.5-0.8660254037844386j)", "(-0.5+0.8660254037844387j)"],
            id="duplicate",
        ),
        pytest.param(
            (-1, 0, 0, 0, 1), [0.1, 0.1, -0.1, -0.1], 31, 6.611714337233374e-16,
            ["(0.9999999999999998+2.449144945008974e-16j)", "-1j", "(1.0339757656912846e-25+1j)", "(-1+0j)"],
            id="symmetric-cluster",
        ),
    ],
)
def test_aberth_from_coincident_guesses_is_pinned(coeffs, init, sweeps, worst, final):
    # The first sweep divides by an exact zero difference, so the repulsion is
    # summed again with the nudge; the figures are those of the per-term test
    # that sum had before, bit for bit (repr pins every bit of a finite float).
    xs = [complex(x) for x in init]
    assert cpoly._aberth(coeffs, xs) == (sweeps, worst)
    assert list(map(repr, xs)) == final


def test_aberth_stops_at_a_non_finite_iterate():
    # On z^2 + 1 at 1e-310, newton 1 / 2e-310 overflows and the step is nan.
    xs = [1e-310 + 0j, 5 + 0j]
    assert cpoly._aberth((1, 0, 1), xs) == (1, math.inf)
    assert not cmath.isfinite(xs[0])
    p = cpoly.ComplexPoly((1, 0, 1))
    cold = cpoly.roots(p)
    rs = cpoly.roots(p, init=[1e-310, 5])
    assert (tuple(rs), rs.sweeps) == (tuple(cold), 1 + cold.sweeps)


def test_aberth_stops_at_a_non_finite_closing_residual(monkeypatch):
    # The last sweep throws 5e-151 (just under newton * repulse = 1 against
    # -1e150) out to ~2e165, where z^2 + 1 overflows.  A sweep that ends by
    # stagnating moves no root far enough to overflow, so only the sweep cap
    # reaches this return.
    monkeypatch.setattr(cpoly, "MAX_SWEEPS", 1)
    init = [5e-151 * (1 - 2.0**-52), -1e150]
    xs = [complex(x) for x in init]
    assert cpoly._aberth((1, 0, 1), xs) == (1, math.inf)
    assert all(map(cmath.isfinite, xs)) and abs(xs[0]) > 1e165
    with pytest.raises(NonConvergence) as exc:
        cpoly.roots(cpoly.ComplexPoly((1, 0, 1)), init=init)
    assert exc.value.iterations == 2


def test_aberth_stops_where_p_prime_overflows_at_a_root_on_its_floor(monkeypatch):
    # z^3 + c2 z^2 + c0 with a root at 0.8, where p' = 3 z^2 + 2 c2 z is just
    # past the float range.  From 0.8 (1 - 1e-9), where p' is finite, one
    # sweep moves the root by about 1e-9 onto its floor, where p and the
    # scale are finite and p alone would keep it; sweep 2 forms p' with p,
    # so _aberth stops there at the overflowing p' with worst residual inf.
    big = sys.float_info.max
    c2 = big / 1.6 * (1 + 3e-10)
    coeffs = (complex(-(0.8**3 + c2 * 0.8**2)), 0j, complex(c2), 1 + 0j)
    init = [0.8 * (1 - 1e-9) + 0j, 0.1j, -0.1j]
    monkeypatch.setattr(cpoly, "MAX_SWEEPS", 1)
    xs = list(init)
    assert cpoly._aberth(coeffs, xs)[0] == 1
    assert abs(xs[0] - init[0]) < 2.0**-20
    [value] = cpoly._horner_list(coeffs, xs[:1])
    assert abs(value) <= 4 * cpoly._EPS * eval_scale(coeffs, xs[0]) < big
    monkeypatch.undo()
    assert cpoly._aberth(coeffs, list(init)) == (2, math.inf)


def test_warm_start_needs_one_guess_per_root():
    with pytest.raises(ValueError):
        cpoly.roots(cpoly.from_roots([1, 2, 3]), init=[1, 2])


def _root_bits(rs):
    return bits(rs), rs.sweeps, rs.worst_residual.hex()


# roots(p, init=...) on the shifted roots below: its bits before the solve took over the
# caller's list, from the guesses themselves (as a list or a tuple), from integer-valued
# guesses that complex() converts, and from equal guesses, which take the cold seed.
_SHIFTED_WARM = [("0x1.004189374bc6ap+0", "0x1.0624dd2f1a9ddp-10"), ("-0x1.ff7ced916872ap-1", "0x1.0083126e978d6p-1"),
                 ("0x1.0624dd2f19d94p-10", "0x1.0020c49ba5e35p+1")], 3, "0x1.13e2762d04755p-53"
_SHIFTED_INTS = [("0x1.004189374bc6ap+0", "0x1.0624dd2f1a998p-10"), ("-0x1.ff7ced916872bp-1", "0x1.0083126e978d5p-1"),
                 ("0x1.0624dd2f1a954p-10", "0x1.0020c49ba5e36p+1")], 3, "0x1.4f9a164cabeecp-55"
_SHIFTED_COLD = [("-0x1.ff7ced916872bp-1", "0x1.0083126e978d5p-1"), ("0x1.004189374bc6cp+0", "0x1.0624dd2f1ba74p-10"),
                 ("0x1.0624dd2f1aa1ep-10", "0x1.0020c49ba5e36p+1")], 5, "0x1.5df2b8b01b04fp-51"


@pytest.mark.parametrize(
    "init, want",
    [
        ([1.0, -1.0 + 0.5j, 2j], _SHIFTED_WARM),
        ((1.0, -1.0 + 0.5j, 2j), _SHIFTED_WARM),
        ([1, -1, 2j], _SHIFTED_INTS),
        ((0, 0, 0), _SHIFTED_COLD),
    ],
    ids=["list", "tuple", "ints", "equal"],
)
def test_roots_copies_init_and_keeps_its_bits(init, want):
    # roots() normalises init into a list of its own, which the solve overwrites:
    # the caller's guesses are left as they were, and the result keeps its bits.
    p = cpoly.ComplexPoly(cpoly.from_roots([z + 1e-3 * (1 + 1j) for z in (1.0, -1.0 + 0.5j, 2j)]).coeffs)
    given = list(init)
    assert _root_bits(cpoly.roots(p, init=init)) == want
    assert list(init) == given
    for short_or_long in (init[:2], (*init, 1)):
        with pytest.raises(ValueError, match=f"^init needs 3 guesses for degree 3, got {len(short_or_long)}$"):
            cpoly.roots(p, init=short_or_long)
    # An integer guess past the float range is the solve's modulus overflow, before the length check.
    for huge in ([10**400, 0, 1], [10**400]):
        with pytest.raises(NonFinite) as exc:
            cpoly.roots(p, init=huge)
        assert exc.value.record() == {
            "type": "NonFinite", "message": "a modulus overflows in the degree-3 root solve", "details": {"degree": 3}
        }


def test_roots_holds_init_to_its_rules_at_degree_zero():
    # A constant has no roots, and a guess for one is refused as at every other degree.
    p = cpoly.ComplexPoly((1,))
    for init in ([1, 2, 3], [0j]):
        with pytest.raises(ValueError, match=f"^init needs 0 guesses for degree 0, got {len(init)}$"):
            cpoly.roots(p, init=init)
    with pytest.raises(NonFinite) as exc:
        cpoly.roots(p, init=[10**400])
    assert exc.value.record() == {
        "type": "NonFinite", "message": "a modulus overflows in the degree-0 root solve", "details": {"degree": 0}
    }
    for init in (None, (), []):
        assert _root_bits(cpoly.roots(p, init=init)) == ([], 0, "0x0.0p+0")
    assert cpoly.from_roots([]).root_set.roots == ()


# --- Newton corrector ------------------------------------------------------

CUBE_ONE = (-1 + 0j, 0j, 0j, 1 + 0j)  # z^3 - 1


def test_correct_settles_guesses_near_simple_roots():
    # Each root lands at the rounding floor next to its own guess; the guesses are left as they were.
    want = [cmath.rect(1.0, 2 * math.pi * k / 3) for k in range(3)]
    guesses = tuple(w + 1e-5 * (1 - 2j) for w in want)
    got = cpoly._correct(CUBE_ONE, guesses)
    assert guesses == tuple(w + 1e-5 * (1 - 2j) for w in want)
    assert len(got) == 3
    for x, w in zip(got, want):
        assert abs(x - w) < 1e-15
        assert abs(naive_eval(CUBE_ONE, x)) <= 8 * sys.float_info.epsilon * eval_scale(CUBE_ONE, x)


def test_correct_spends_at_most_two_newton_steps(monkeypatch):
    # Newton squares the error at the simple root 1 of z^3 - 1 (p'' / 2p' = 1 there):
    # from 1e-4 off it takes two steps to the floor, from 0.1 off more than two.
    def settled(guess):
        got = cpoly._correct(CUBE_ONE, [guess])
        return got is not None and abs(got[0] - 1) < 1e-15

    assert settled(1 + 1e-4) and not settled(1.1)
    monkeypatch.setattr(cpoly, "_NEWTON_STEPS", 1)
    assert settled(1 + 1e-12) and not settled(1 + 1e-4)


@pytest.mark.parametrize(
    "coeffs, guesses",
    [
        (CUBE_ONE, [1 + 0j, 0j]),  # p'(0) = 0
        ((1 + 0j, 0j, 1 + 0j), [complex(1.5e-309, -1.5e-309)]),  # the Newton step's modulus overflows
        (CUBE_ONE, [complex(1.5e308, 1.5e308)]),  # the guess's modulus overflows
        ((complex(1.5e308, 1.5e308), 1 + 0j), [complex(-1.5e308, -1.5e308)]),  # a coefficient's modulus overflows
        ((-3e307 + 0j, 0j, 0j, 1 + 0j), [complex(3e307 ** (1 / 3))]),  # sum_j |c_j| at or past _correct's cap
        (CUBE_ONE, [1 + 0j, complex(math.nan, 0.0)]),
        (CUBE_ONE, [complex(math.inf, 0.0)]),
    ],
    ids=["zero-derivative", "newton-overflow", "guess-overflow", "coefficient-overflow", "cap", "nan", "inf"],
)
def test_correct_declines_without_raising(coeffs, guesses):
    assert cpoly._correct(coeffs, guesses) is None


# --- memoized root solve ---------------------------------------------------


def _counting_roots(monkeypatch):
    calls = []
    solve = cpoly.roots

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cpoly, "roots", counted)
    return calls


def test_root_set_is_solved_once(monkeypatch):
    calls = _counting_roots(monkeypatch)
    p = cpoly.ComplexPoly.from_coefficients([2, -3j, 0.5, 1])
    first = p.root_set
    assert p.root_set is first
    assert len(calls) == 1


def test_root_set_of_a_coefficient_twin_is_the_plain_solve():
    for degree in (1, 5, 12, 20):
        p = cpoly.from_roots(separated_points(random.Random(degree), degree, radius=2.0, min_sep=0.25))
        twin = cpoly.ComplexPoly.from_coefficients(p.coeffs)
        plain = cpoly.roots(cpoly.ComplexPoly(p.coeffs))
        assert twin.root_set.roots == plain.roots
        assert (twin.root_set.sweeps, twin.root_set.worst_residual) == (plain.sweeps, plain.worst_residual)


def test_from_roots_equals_and_hashes_like_its_coefficients():
    rs = [1.5, -0.5 + 1j, 2j, -1 - 1j]
    p = cpoly.from_roots(rs)
    twin = cpoly.ComplexPoly(p.coeffs)
    assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)
    p.root_set
    assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)


def test_memoized_polynomial_pickles(monkeypatch):
    p = cpoly.from_roots([1, -2j, 0.5 + 0.5j])
    solved = p.root_set
    q = pickle.loads(pickle.dumps(p))
    calls = _counting_roots(monkeypatch)
    assert q == p
    assert q.root_set.roots == solved.roots
    assert calls == []


def test_a_memo_read_on_the_class_is_the_descriptor():
    memo = cpoly.ComplexPoly.__dict__["root_set"]
    assert cpoly.ComplexPoly.root_set is memo
    assert memo.__doc__.startswith("All roots by :func:`roots`")


def test_repeated_roots_take_the_cold_fallback():
    c = 0.3 - 0.7j
    p = cpoly.from_roots([c, c, c])
    cold = cpoly.roots(cpoly.ComplexPoly(p.coeffs))
    assert p.root_set == cold
    assert p.root_set.sweeps == cold.sweeps
    assert p.root_set.worst_residual < cpoly.ROOT_TOL


def test_near_coincident_roots_pass_the_gate():
    c = 0.3 - 0.7j
    for rs in ([c, c * (1 + 2**-52)], [c, c + 1e-9, c - 1e-9j], [1, 1 + 1e-12, 2]):
        got = cpoly.from_roots(rs).root_set
        assert got.worst_residual < cpoly.ROOT_TOL
        assert len(got) == len(rs)


# --- separation ------------------------------------------------------------


def test_min_root_separation_hand_cases():
    assert cpoly.min_root_separation([0, 1, 5]) == 1.0
    assert cpoly.min_root_separation([0, 0]) == 0.0


def test_min_root_separation_matches_pair_scan():
    rng = random.Random(9)
    for _ in range(10):
        pts = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(3)]
        brute = min(
            abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]
        )
        assert cpoly.min_root_separation(pts) == brute


def test_min_root_separation_accepts_rootset():
    rs = cpoly.roots(cpoly.from_roots([0, 3]))
    assert cpoly.min_root_separation(rs) == pytest.approx(3.0, abs=1e-10)


def test_min_root_separation_needs_two():
    with pytest.raises(InsufficientRoots):
        cpoly.min_root_separation([1.0])


@pytest.mark.parametrize("bad", [complex("nan"), float("nan"), complex(0, math.inf)])
def test_min_root_separation_names_a_non_finite_root(bad):
    # [0, nan, 1] used to return nan, and [0, 1, nan] the finite 1.0
    for pts in ([0, bad, 1], [0, 1, bad]):
        with pytest.raises(NonFinite, match="separation needs finite roots") as exc:
            cpoly.min_root_separation(pts)
        assert repr(exc.value.details["root"]) == repr(bad)


def test_min_root_separation_overflow_is_non_finite():
    # Finite roots whose every distance overflows used to give inf.
    with pytest.raises(NonFinite, match="minimum root separation overflows"):
        cpoly.min_root_separation([1e308, -1e308])
    assert cpoly.min_root_separation([1e308, -1e308, 0]) == 1e308


def test_min_root_separation_modulus_overflow_is_non_finite():
    # A distance with finite components whose modulus overflows used to raise
    # an untyped OverflowError from abs().
    with pytest.raises(NonFinite, match="minimum root separation overflows"):
        cpoly.min_root_separation([1.5e308, -1.5e308j])
    with pytest.raises(NonFinite, match="minimum root separation overflows"):
        cpoly.min_root_separation([1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j])


@pytest.mark.parametrize("pts", [[1.5e308 + 1.5e308j, 0, 1e-3], [0, 1e-3, 1.5e308 + 1.5e308j]])
def test_min_root_separation_counts_an_overflowing_modulus_as_inf(pts):
    # abs() of 1.5e308(1 + i) raises OverflowError; that pair used to abort
    # the whole minimum, whether it came before or after the closest pair.
    assert cpoly.min_root_separation(pts) == 1e-3


def test_root_solve_modulus_overflow_is_non_finite():
    # abs() of the coefficient -r overflows in the cold seed and in _aberth;
    # both solves used to end in an untyped OverflowError.
    r = complex(1.7e308, 1.7e308)
    for solve in (lambda: cpoly.roots(cpoly.ComplexPoly((-r, 1))), lambda: cpoly.from_roots([r]).root_set):
        with pytest.raises(NonFinite, match="modulus overflows in the degree-1 root solve") as exc:
            solve()
        assert exc.value.details == {"degree": 1}
