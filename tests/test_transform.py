"""Transform-layer tests: delta potentials, eigenfunctions, residual checks.

Independent references used here:
  * single-center eigenfunction: P = z - z1 reduces the closed form to
    e^{lambda z} (1 - 2 / (lambda (z - z1))).
  * single-center coefficient identity: Q = P - 2/lambda gives
    Q' + lambda Q = lambda(z - z1) - 1 = lambda P - P', residual exactly 0.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import sys

import pytest
from helpers import bits, separated_points, time_limit

from moutard import cpoly, flow, scattering, transform, verdict
from moutard.errors import InsufficientRoots, MoutardError, NearPole, NonFinite, ZeroLambda
from moutard.transform import (
    RING_POINTS,
    DeltaPotential,
    FaddeevParams,
    harmonicity_check,
    moutard_residual,
    residual_checks,
    residual_sample_points,
    transformed_potential,
    verify_eigenfunction_identity,
)
from moutard.wirtinger import d_zbar, ring


def planewave(lam):
    return lambda z: cmath.exp(lam * z)


def rotated_phi(lam):
    return lambda z: 1j * cmath.exp(lam * z)


# --- delta potentials ------------------------------------------------------


def test_single_center():
    pot = transformed_potential(cpoly.from_roots([0.5 - 2j]))
    assert len(pot.centers) == 1
    assert abs(pot.centers[0] - (0.5 - 2j)) < 1e-12
    assert pot.weight == -8.0 * math.pi


def test_degree_zero_gives_empty_potential():
    assert transformed_potential(cpoly.from_roots([])).centers == ()


def test_symmetric_pair_centers():
    pot = transformed_potential(cpoly.from_roots([1, -1]))
    assert sorted(c.real for c in pot.centers) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert all(abs(c.imag) < 1e-12 for c in pot.centers)


def test_weight_cannot_be_overridden():
    with pytest.raises(TypeError):
        DeltaPotential((0j,), weight=-25.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_delta_potential_rejects_non_finite_centres(bad):
    with pytest.raises(NonFinite) as exc:
        DeltaPotential((1j, bad, math.nan))
    assert str(exc.value).endswith(f"got {complex(bad)!r}")  # the first non-finite centre
    assert repr(exc.value.details["center"]) == repr(complex(bad))


# --- closed-form eigenfunction ---------------------------------------------


def test_psi_single_center_closed_form():
    rng = random.Random(21)
    for _ in range(10):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z - z1) < 0.3:
            continue
        fp = FaddeevParams(cpoly.from_roots([z1]), lam)
        want = cmath.exp(lam * z) * (1 - 2.0 / (lam * (z - z1)))
        assert abs(fp.psi(z) - want) <= 1e-13 * max(1.0, abs(want))


def test_psi_degree_zero_is_plane_wave():
    fp = FaddeevParams(cpoly.from_roots([]), 1.5 - 2j)
    for z in (0j, 1 + 1j, -3 + 0.25j):
        assert fp.psi(z) == cmath.exp((1.5 - 2j) * z)
        assert fp.mu(z) == 0j


def test_psi_vanishes_at_hand_computed_zero():
    # P = z, lambda = 1: psi(2) = e^2 (1 - 2/2) = 0, exactly in doubles.
    fp = FaddeevParams(cpoly.from_roots([0]), 1.0)
    assert fp.psi(2.0) == 0j


def test_near_pole_guard():
    fp = FaddeevParams(cpoly.from_roots([1.0]), 2.0)
    with pytest.raises(NearPole) as exc:
        fp.psi(1.0 + 1e-9)
    assert exc.value.nearest_root == 1.0
    # just outside the guard evaluates fine
    assert cmath.isfinite(fp.psi(1.0 + 1e-3))


def test_zero_lambda_rejected():
    with pytest.raises(ZeroLambda):
        FaddeevParams(cpoly.from_roots([1.0]), 0)


# The last has finite parts, but every |lambda| raised OverflowError.
@pytest.mark.parametrize(
    "lam", [math.nan, math.inf, complex(math.inf, 0), complex(0, -math.inf), complex(1.5e308, 1.5e308)]
)
def test_non_finite_lambda_rejected(lam):
    with pytest.raises(NonFinite):
        FaddeevParams(cpoly.from_roots([1, 2]), lam)


@pytest.mark.parametrize("lam", [1e-200, 5e-324])
def test_tiny_lambda_mu_raises_non_finite(lam):
    # T's coefficients overflow to inf; mu raises instead of returning nan.
    fp = FaddeevParams(cpoly.from_roots([1, 2]), lam)
    with pytest.raises(NonFinite):
        fp.mu(3 + 1j)


def test_mu_overflow_far_out_raises_non_finite():
    # T is finite at lambda = 1e-150, but T(z) and P(z) overflow at 1e200.
    fp = FaddeevParams(cpoly.from_roots([1, 2]), 1e-150)
    assert cmath.isfinite(fp.mu(3 + 1j))
    with pytest.raises(NonFinite):
        fp.mu(1e200)


@pytest.mark.parametrize(
    "lam, z", [(1.0, 1e300), (1e300 + 1e300j, 1e10), (1 + 1j, complex("nan")), (1 + 1j, complex(math.inf, 0))]
)
def test_psi_overflow_raises_non_finite_naming_point_and_lambda(lam, z):
    # e^{lambda z} overflows (OverflowError) or lambda z itself does
    # (ValueError).  At every degree mu and psi both name a nan or inf point
    # as not finite, rather than as an overflow or as a non-finite 2 T / P.
    if cmath.isfinite(z):
        with pytest.raises(NonFinite, match="psi overflows") as exc:
            FaddeevParams(cpoly.from_roots([1, 2]), lam).psi(z)
        assert exc.value.details == {"point": z, "lam": lam}
        return
    for roots in ([], [1, 2]):
        fp = FaddeevParams(cpoly.from_roots(roots), lam)
        for call in (fp.psi, fp.mu):
            with pytest.raises(NonFinite, match="^the evaluation point .* is not finite$") as exc:
                call(z)
            assert exc.value.details == {"point": z, "lam": lam}  # the same nan object


def test_mu_where_the_modulus_of_p_overflows():
    # P(z) = z is finite at 1.5e308(1 + i), but |P(z)| is not; the pole guard
    # raised OverflowError computing it.  mu is -2 / z, and psi overflows.
    z = complex(1.5e308, 1.5e308)
    fp = FaddeevParams(cpoly.from_roots([0]), 1)
    assert fp.mu(z) == -2.0 / z
    with pytest.raises(NonFinite, match="psi overflows"):
        fp.psi(z)


def test_params_expose_roots():
    fp = FaddeevParams(cpoly.from_roots([2j, -1]), 1.0)
    got = sorted(fp.roots, key=lambda r: r.real)
    assert abs(got[0] - (-1)) < 1e-10
    assert abs(got[1] - 2j) < 1e-10
    assert abs(fp.nearest_root(1.8j) - 2j) < 1e-9


def test_nearest_root_of_a_generator_without_roots_is_a_typed_error():
    with pytest.raises(InsufficientRoots):
        FaddeevParams(cpoly.ComplexPoly((1,)), 1).nearest_root(0)


def test_params_at_four_lambdas_share_one_root_solve(monkeypatch):
    calls = []
    solve = cpoly.roots

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cpoly, "roots", counted)
    p = cpoly.from_roots([1, -1, 0.5j, 2 - 1j, -1.5 + 0.5j])
    fps = [FaddeevParams(p, lam) for lam in (2.0, -1j, 0.5 + 0.5j, 3.0)]
    transformed_potential(p)
    assert len(calls) == 1
    assert all(fp.roots == fps[0].roots for fp in fps)


def test_params_at_four_lambdas_share_one_derivative_chain(monkeypatch):
    calls = []
    memo = vars(cpoly.ComplexPoly)["derivatives"]
    form = memo.method

    def counted(poly):
        calls.append(poly)
        return form(poly)

    monkeypatch.setattr(memo, "method", counted)
    p = cpoly.from_roots([1, -1, 0.5j, 2 - 1j, -1.5 + 0.5j])
    for lam in (2.0, -1j, 0.5 + 0.5j, 3.0):
        FaddeevParams(p, lam)._t
    assert len(calls) == 1 and calls[0] is p  # P', ..., P^(5) formed once, for all four
    assert len(p.derivatives) == p.degree


def test_params_where_a_derivative_overflows_are_non_finite_at_every_lambda():
    # P' = 3z^2 + 2e308 z overflows, so nothing is kept and every lambda
    # raises; the flow reads only D^3 P = 6 and still moves P.
    p = cpoly.ComplexPoly((0j, 0j, 1e308 + 0j, 1 + 0j))
    for lam in (2.0, -1j, 0.5 + 0.5j, 1e-300):
        with pytest.raises(NonFinite, match="order-1 derivative is not finite"):
            FaddeevParams(p, lam)
    assert "derivatives" not in p.__dict__
    assert flow.evolve(p, 1.0).coeffs[1:] == p.coeffs[1:]


def test_params_return_roots_exactly_as_given():
    for rs in ([1, 2], [1, -1, 0.5j], [2j, -1]):
        assert FaddeevParams(cpoly.from_roots(rs), 2.0).roots == tuple(complex(r) for r in rs)


@pytest.mark.parametrize("degree", range(1, 21))
def test_params_keep_the_given_roots_in_order(degree):
    # A given root at the rounding floor of the stored coefficients comes
    # back bitwise; one off it (degree 20 here has one) is refined in place.
    rs = separated_points(random.Random(degree), degree, radius=2.0, min_sep=0.25)
    p = cpoly.from_roots(rs)
    got = FaddeevParams(p, 1.5 - 0.5j).roots
    assert len(got) == degree
    for i, (r, g) in enumerate(zip(rs, got)):
        value = cpoly.horner(p.coeffs, r)
        scale = cpoly.horner([abs(c) for c in p.coeffs], abs(r)).real
        if abs(value) <= 2.0 * sys.float_info.epsilon * scale:
            assert g == r
        else:
            assert abs(g - r) < 1e-11 * (1 + abs(r))
        assert min(range(degree), key=lambda j: abs(g - rs[j])) == i


def _derivative_sum_mu(fp, z):
    # mu as one Horner pass per derivative of P, combined by Horner in 1/lambda.
    acc = 0j
    for k in range(fp.p.degree, 0, -1):
        term = cpoly.horner(cpoly.differentiate(fp.p.coeffs, k), z)
        acc = (acc - term if k % 2 else acc + term) / fp.lam
    return 2.0 * acc / cpoly.horner(fp.p.coeffs, z)


def _mu_rounding_scale(fp, z):
    # 2 sum_k |P^(k)|(|z|) / |lambda|^k / |P(z)|, |P^(k)| with absolute
    # coefficients: the yardstick of the rounding error of either form.
    total = sum(
        cpoly.horner([abs(c) for c in cpoly.differentiate(fp.p.coeffs, k)], abs(z)).real / abs(fp.lam) ** k
        for k in range(1, fp.p.degree + 1)
    )
    return 2.0 * total / abs(cpoly.horner(fp.p.coeffs, z))


def test_mu_matches_derivative_sum_form():
    # The precomputed T regroups the same double sum, so the two forms agree
    # to rounding: within 1.1e-15 of the scale here.  Relative to |mu| the
    # gap has no fixed bound (2.0e-12 here, 2.9e-11 at points where T(z)
    # cancels, where each form is off by up to ~1e-11 from 80-digit values).
    rng = random.Random(8)
    for deg in range(1, 21):
        rts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg)]
        lam = cmath.rect(math.exp(rng.uniform(math.log(0.05), math.log(20.0))), rng.uniform(0, 2 * math.pi))
        fp = FaddeevParams(cpoly.from_roots(rts), lam)
        rho = 1.0 + max(abs(r) for r in fp.roots)
        for radius in (2.0 * rho, 10.0 * rho, 1e4 * rho):
            for j in range(8):
                z = cmath.rect(radius, 2.0 * math.pi * (j + 0.3) / 8)
                want = _derivative_sum_mu(fp, z)
                assert abs(fp.mu(z) - want) <= 1e-12 * _mu_rounding_scale(fp, z)
        with pytest.raises(NearPole):
            fp.mu(fp.roots[0])


# --- coefficient identity (exact arithmetic) --------------------------------


def test_identity_single_center_hand_case():
    fp = FaddeevParams(cpoly.from_roots([0.75 - 0.5j]), 2 + 1j)
    assert verify_eigenfunction_identity(fp) == 0.0


def test_identity_degree_zero():
    fp = FaddeevParams(cpoly.from_roots([]), 3j)
    assert verify_eigenfunction_identity(fp) == 0.0


def test_identity_random_degree_five():
    # The residual is assembled over exact Gaussian integers, so the
    # documented 1e-12 ceiling is met with exact zeros.
    rng = random.Random(31)
    lam = 0.7 - 1.3j
    for _ in range(10):
        rts = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(5)]
        fp = FaddeevParams(cpoly.from_roots(rts), lam)
        assert verify_eigenfunction_identity(fp) < 1e-12


def _random_params(rng, deg, lam):
    rts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg)]
    return FaddeevParams(cpoly.from_roots(rts), lam)


@pytest.mark.parametrize("lam", [5e-324, 1e-300j, 1e300])
def test_identity_exact_at_extreme_lambda(lam):
    # The scale s = 2^E reaches 2^1074 for a subnormal lambda.
    assert verify_eigenfunction_identity(_random_params(random.Random(33), 10, lam)) == 0.0


def _subnormal_params():
    coeffs = [complex(5e-320, 0.5)] + [0.25 * (-1) ** j for j in range(9)] + [1]
    return FaddeevParams(cpoly.ComplexPoly(tuple(coeffs)), 0.7 - 1.3j)


def test_identity_exact_with_subnormal_coefficient_and_degree_40():
    assert verify_eigenfunction_identity(_subnormal_params()) == 0.0
    assert verify_eigenfunction_identity(_random_params(random.Random(34), 40, 1.2 + 0.4j)) == 0.0


def _deriv(poly):
    return [(j * a, j * b) for j, (a, b) in enumerate(poly)][1:]


def _horner_scaled(fp):
    """(s, l, P~, W, l^N): W = sum_{k=1..N} (-s)^k l^{N-k} D^k P~ by Horner's rule in l, l^N by its own products."""
    ratios = [(x.real.as_integer_ratio(), x.imag.as_integer_ratio()) for x in (fp.lam, *fp.p.coeffs)]
    s = max(d for pair in ratios for _, d in pair)
    (lr, li), *p = [tuple(n * (s // d) for n, d in pair) for pair in ratios]
    w, dk, (nr, ni) = [], p, (1, 0)
    for k in range(1, len(p)):
        dk, c = _deriv(dk), (-s) ** k
        w = [(lr * x - li * y + c * a, lr * y + li * x + c * b)
             for (x, y), (a, b) in itertools.zip_longest(w, dk, fillvalue=(0, 0))]
        nr, ni = nr * lr - ni * li, nr * li + ni * lr
    return s, (lr, li), p, w, (nr, ni)


def test_horner_in_minus_s_gives_the_integers_of_horner_in_l():
    # _scaled runs Horner's rule in -s, _horner_scaled Horner's rule in l over whole derivatives.
    # Degrees 0-20 and 40 at one random and three extreme lambdas, and a subnormal coefficient:
    rng = random.Random(36)
    for degree in (*range(21), 40):
        for lam in (cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(-math.pi, math.pi)), 5e-324, 1e-300j, 1e300):
            fp = _random_params(rng, degree, lam)
            assert transform._scaled(fp) == _horner_scaled(fp), (degree, lam)
    fp = _subnormal_params()
    assert transform._scaled(fp) == _horner_scaled(fp)
    # Degrees 41-64, with the extremes at every eighth degree:
    rng = random.Random(46)
    for degree in range(41, 65):
        fp = _random_params(rng, degree, cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(-math.pi, math.pi)))
        assert transform._scaled(fp) == _horner_scaled(fp), (degree, fp.lam)
        for lam in (5e-324, 1e300, -1e-300j) if degree % 8 == 0 else ():
            fp = FaddeevParams(fp.p, lam)
            assert transform._scaled(fp) == _horner_scaled(fp), (degree, lam)
    # As the certify workload draws them: odd degrees evolved to t in [-1, 1], four lambdas each.
    for degree in (11, 13, 15) * 3:
        rts = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(degree)]
        p = flow.evolve(cpoly.from_roots(rts), rng.uniform(-1.0, 1.0))
        for _ in range(4):
            fp = FaddeevParams(p, cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi)))
            assert transform._scaled(fp) == _horner_scaled(fp), (degree, fp.lam)


@pytest.mark.parametrize("degree", [0, 1, 2, 10, 12])
def test_one_kept_gaussian_form_serves_every_lambda_in_either_order(degree):
    # 1e-20 has dyadic denominator 2^119, finer than any coefficient's, so s
    # comes from lambda, from either of its parts, and P's kept integers are
    # rescaled; at the Gaussian integer 3 - i, s is P's own.  In either order
    # of the lambdas, the kept form is P's and the integers are the Horner ones.
    fine, coarse = (1.5 + 1e-20j, 1e-20 + 1.5j), 3 - 1j
    roots = [complex(x, y) for x, y in ((0.3, -1.1), (1.7, 0.2), (-0.9, 0.6))] * 4
    for lams in ((*fine, coarse), (coarse, *fine)):
        p = cpoly.from_roots(roots[:degree])
        assert p._gaussian[0] < 2**119
        for lam in lams:
            fp = FaddeevParams(p, lam)
            scaled = transform._scaled(fp)
            assert scaled == _horner_scaled(fp), (degree, lam)
            assert p._gaussian == cpoly.ComplexPoly(p.coeffs)._gaussian
            assert scaled[0] == (2**119 if lam in fine else p._gaussian[0]), (degree, lam)


def _eager_t(fp):
    """T's coefficients by Horner's rule in 1/lambda, each derivative of P formed anew by cpoly.differentiate."""
    t = []
    for k in range(fp.p.degree, 0, -1):
        t = [(a - c if k % 2 else a + c) / fp.lam for a, c in zip(t + [0j], cpoly.differentiate(fp.p.coeffs, k))]
    return tuple(t)


def test_t_is_formed_on_first_evaluation_bit_for_bit():
    rng = random.Random(37)
    for degree in (0, 1, 5, 16):
        fp = _random_params(rng, degree, cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi)))
        assert "_t" not in vars(fp)
        verify_eigenfunction_identity(fp)
        assert "_t" not in vars(fp)  # the certificate never reads T
        fp.mu(5.0 + 5.0j)
        assert bits(vars(fp)["_t"]) == bits(_eager_t(fp)), degree
    # Lambda over six decades, at degrees 0-24:
    rng = random.Random(3038)
    for j in range(20):
        lam = cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        fp = _random_params(rng, (0, 1, 2, 3, 7, 24)[j % 6] if j < 12 else rng.randrange(25), lam)
        assert bits(fp._t) == bits(_eager_t(fp)), (fp.p.degree, lam)


def test_identity_negative_controls_read_the_analytic_defect(monkeypatch):
    # |lambda| = 2.5 exactly, so each expected value below is rounded once.
    # Adding 1 to W_j moves D_{j-1} by s j and D_j by l, so the defect is
    # 2 delta max(j, |lambda|) with delta = 1 / (s^{N+1} |lambda|^N).
    # Negating P~ flips the s l^N P~' term: D = -2 s l^N P~', which reads
    # 4 max_j |P'_j|.
    lam = 1.5 + 2j
    fp = _random_params(random.Random(35), 10, lam)
    s, l, p, w, ln = transform._scaled(fp)
    assert transform._defect(s, l, p, w, ln) == 0.0
    for j in range(len(w)):
        bumped = w[:j] + [(w[j][0] + 1, w[j][1])] + w[j + 1 :]
        want = 2 * max(j, 2.5) / (s ** 11 * 2.5**10)
        assert transform._defect(s, l, p, bumped, ln) == pytest.approx(want, rel=1e-15, abs=0)
    flipped = transform._defect(s, l, [(-a, -b) for a, b in p], w, ln)
    want = 4 * max(abs(j * c) for j, c in enumerate(fp.p.coeffs))
    assert flipped == pytest.approx(want, rel=1e-15, abs=0)
    # A unit change at lambda = 1e300 is far below the float range and
    # still reads nonzero.
    s, l, p, w, ln = transform._scaled(_random_params(random.Random(35), 10, 1e300))
    assert transform._defect(s, l, p, [(w[0][0] + 1, w[0][1])] + w[1:], ln) == 5e-324
    # The public certificate reports what the defect step computes.
    monkeypatch.setattr(transform, "_scaled", lambda fp: (s, l, p, [(w[0][0] + 1, w[0][1])] + w[1:], ln))
    assert verify_eigenfunction_identity(fp) == 5e-324


def test_identity_across_degree_and_lambda_annulus():
    rng = random.Random(32)
    for deg in range(1, 11):
        lam = cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0 * math.pi))
        rts = [
            cmath.rect(rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(deg)
        ]
        fp = FaddeevParams(cpoly.from_roots(rts), lam)
        assert verify_eigenfunction_identity(fp) < 1e-12


# --- stencil residuals of the transform system ------------------------------


def test_residual_certified_triple_small_off_roots():
    # omega = P, phi = i e^{lambda z}, theta = psi is the certified solution
    # triple; residuals at points > 0.5 away from every root stay below
    # 1e-6 for degree <= 6 on the verify ring (measured worst 3.9e-10).
    rng = random.Random(41)
    for trial in range(3):
        deg = 4 + trial
        rts = []
        while len(rts) < deg:
            c = cmath.rect(rng.uniform(0.0, 1.2), rng.uniform(0, 2 * math.pi))
            if all(abs(c - r) > 0.35 for r in rts):
                rts.append(c)
        lam = 1 + 0j
        fp = FaddeevParams(cpoly.from_roots(rts), lam)
        for r in rts:
            for d in (0.55, 0.8, 1.5):
                for ang in (0.9, 3.7):
                    z = r + cmath.rect(d, ang)
                    if min(abs(z - rr) for rr in rts) <= 0.5:
                        continue
                    rho = transform._ring_radius(fp, z)
                    r1, r2 = moutard_residual(lambda w: cpoly.horner(fp.p.coeffs, w), rotated_phi(lam), fp.psi, z, rho)
                    assert abs(r1) < 1e-6
                    assert abs(r2) < 1e-6


def test_residual_samples_theta_once_per_ring_point():
    # Both Wirtinger derivatives of omega * theta come from one ring of
    # RING_POINTS samples; theta is not needed at the centre.
    calls = []

    def theta(w: complex) -> complex:
        calls.append(w)
        return cmath.exp(w)

    moutard_residual(lambda w: w, rotated_phi(1.0), theta, 2 + 1j, 0.5)
    assert len(calls) == RING_POINTS
    assert len(set(calls)) == RING_POINTS
    assert all(abs(abs(w - (2 + 1j)) - 0.5) < 1e-15 for w in calls)


def test_residual_constant_shift_with_unit_omega():
    # With omega = 1 the pair phi = i e^{lambda z}, theta = e^{lambda z} + c
    # solves the system for every constant c: theta_z = -i phi_z pointwise,
    # and c is exactly the modulo-1/omega freedom.  (Note theta carries no
    # leading i: it is -i times phi, plus the free constant.)
    lam = 1 + 1j
    one = lambda z: 1.0
    for c in (0.0, 1.0, -2.5 + 0.5j):
        theta = lambda z, c=c: cmath.exp(lam * z) + c
        for z in (0.3, -0.2 + 0.7j, 1 - 1j):
            r1, r2 = moutard_residual(one, rotated_phi(lam), theta, z, 0.25)
            assert abs(r1) < 1e-9
            assert abs(r2) < 1e-9


def test_residual_second_equation_with_antiholomorphic_pair():
    # With omega = 1 and phi = conj(e^{lambda z}), theta = i phi solves
    # theta_zbar = +i phi_zbar (both z-derivatives vanish); theta = -i phi
    # leaves r2 = -2i phi_zbar, which a sign slip in r2 would hide.
    lam = 1 - 0.5j
    phi = lambda w: cmath.exp(lam * w).conjugate()
    for z in (0.3, -0.2 + 0.7j):
        r1, r2 = moutard_residual(lambda w: 1.0, phi, lambda w: 1j * phi(w), z, 0.25)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12
        _, r2 = moutard_residual(lambda w: 1.0, phi, lambda w: -1j * phi(w), z, 0.25)
        assert abs(r2 + 2j * (lam * cmath.exp(lam * z)).conjugate()) < 1e-12


@pytest.mark.parametrize("z", [complex("nan"), complex(0, math.inf), math.nan])
def test_residual_rejects_a_non_finite_centre(z):
    # With omega = 1 and theta = phi = 0 a nan centre read (0j, 0j), which
    # certifies the triple.
    with pytest.raises(NonFinite, match="ring centre must be finite"):
        moutard_residual(lambda w: 1 + 0j, lambda w: 0j, lambda w: 0j, z, 0.1)


@pytest.mark.parametrize("z", [1e308 + 1e308j, -1e300])
def test_residual_rejects_an_overflowing_omega_square(z):
    # omega(z)**2 overflowed: times a zero moment it read (nan+nanj) at the
    # first centre and raised an untyped OverflowError at the second.
    with pytest.raises(NonFinite, match="Moutard residual is not finite") as exc:
        moutard_residual(lambda w: w, lambda w: 0j, lambda w: 0j, z, 0.1)
    assert exc.value.details["point"] == z


def test_residual_rejects_omega_zero_on_the_ring():
    with pytest.raises(NonFinite):
        moutard_residual(lambda z: z.real, rotated_phi(1.0), planewave(1.0), -1.0, 1.0)


@pytest.mark.parametrize("radius", [0.0, -0.25, math.nan, math.inf])
def test_residual_rejects_a_radius_that_is_not_finite_and_positive(radius):
    # Radius 0 divided by zero and a negative radius returned a value.
    with pytest.raises(ValueError, match="ring radius must be finite and positive"):
        moutard_residual(lambda w: 1.0, rotated_phi(1.0), planewave(1.0), 0.5, radius)


def test_residual_gauge_invariance():
    # theta -> theta + c/omega leaves both residuals unchanged to 1e-10
    # even for |c| = 1e3 (the shift enters (omega theta) as an additive
    # constant, which differentiation removes).
    rts = [0.9, -1.2 + 0.8j, 0.1 - 1.4j]
    lam = 2 + 0j
    fp = FaddeevParams(cpoly.from_roots(rts), lam)
    omega = lambda w: cpoly.horner(fp.p.coeffs, w)
    pts = residual_sample_points(fp.roots, lam)
    for c in (1.0, 1e3, (0.6 + 0.8j) * 1e3):
        shifted = lambda w, c=c: fp.psi(w) + c / omega(w)
        for z in pts:
            rho = transform._ring_radius(fp, z)
            r1, r2 = moutard_residual(omega, rotated_phi(lam), fp.psi, z, rho)
            s1, s2 = moutard_residual(omega, rotated_phi(lam), shifted, z, rho)
            assert abs(s1 - r1) < 1e-10
            assert abs(s2 - r2) < 1e-10


def test_product_with_generator_is_holomorphic():
    # P(z) psi(z) = e^{lambda z} Q(z) has no zbar dependence, so d_zbar of
    # it vanishes relative to the plane-wave magnitude.
    rts = [0.9, -1.2 + 0.8j, 0.1 - 1.4j]
    lam = 2 + 0j
    fp = FaddeevParams(cpoly.from_roots(rts), lam)
    for z in residual_sample_points(fp.roots, lam):
        value = d_zbar(lambda w: cpoly.horner(fp.p.coeffs, w) * fp.psi(w), z)
        assert abs(value) < 1e-8 * abs(cmath.exp(lam * z))


def _unmemoized_residual_checks(fp):
    # residual_checks as a plain loop over the public functions at the same
    # ring radius: every ring sample evaluates psi, P and phi afresh.
    omega = lambda w: cpoly.horner(fp.p.coeffs, w)
    phi = rotated_phi(fp.lam)
    points = residual_sample_points(fp.roots, fp.lam)
    res = gauge = harm = 0.0
    for z in points:
        scale = math.exp((fp.lam * z).real)
        rho = 0.25 * min(0.5 * min(abs(z - r) for r in fp.roots), 1.0 / abs(fp.lam))
        r1, r2 = moutard_residual(omega, phi, fp.psi, z, rho)
        res = max(res, abs(r1) / scale, abs(r2) / scale)
        for c in transform.GAUGE_SHIFTS:
            # the residual of the mode theta = c / omega, phi = 0
            g1, g2 = moutard_residual(omega, lambda w: 0j, lambda w, c=c: c / omega(w), z, rho)
            gauge = max(gauge, abs(g1) / scale, abs(g2) / scale)
        harm = max(harm, harmonicity_check(fp, z))
    return len(points), res, gauge, harm


def test_residual_checks_equal_unmemoized_loop():
    rng = random.Random(62)
    for deg in range(1, 11):
        rts = []
        while len(rts) < deg:
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(c - r) > 0.3 for r in rts):
                rts.append(c)
        lam = cmath.rect(rng.uniform(1.0, 3.0), rng.uniform(0, 2 * math.pi))
        fp = FaddeevParams(cpoly.from_roots(rts), lam)
        assert residual_checks(fp) == _unmemoized_residual_checks(fp), deg
    # Real lambda and real roots: P has real coefficients, so signed zeros
    # can reach the samples and the batch lists.
    for rts, lam in [([-1.0, 0.5, 2.0], 1.5), ([0.0, 1.0, -1.25, 2.5], -0.75)]:
        fp = FaddeevParams(cpoly.from_roots(rts), lam)
        assert residual_checks(fp) == _unmemoized_residual_checks(fp), (rts, lam)


def test_residual_checks_take_only_the_ring_moments_they_read(monkeypatch):
    # Four ring_moments calls per sample point, each on that point's ring:
    # omega psi and phi / omega for the residual, then the two gauge modes.
    # The Laplacian reads the ring mean of psi, which ring_moments no longer
    # forms.
    calls = []
    moments = transform.ring_moments

    def counted(samples, radius):
        calls.append((len(samples), radius))
        return moments(samples, radius)

    monkeypatch.setattr(transform, "ring_moments", counted)
    fp = FaddeevParams(cpoly.from_roots([1, -1, 0.5j]), 2.0)
    points = residual_sample_points(fp.roots, fp.lam)
    assert residual_checks(fp)[0] == len(points) == 25
    assert len(calls) == 4 * len(points)
    radii = [transform._ring_radius(fp, z) for z in points]
    assert calls == [(RING_POINTS, rho) for rho in radii for _ in range(4)]
    calls.clear()
    harmonicity_check(fp, points[0])
    assert calls == []


def test_residual_checks_evaluate_mu_once_per_centre_and_ring_point(monkeypatch):
    # RING_POINTS + 1 distinct points per sample point: the centre and the
    # ring, shared by the residual and the Laplacian (the gauge modes need no
    # mu), all in one batch.  P is evaluated once per point too, in that
    # batch's list Horner pass, and never point by point.
    batches = []
    evaluate = FaddeevParams._evaluate

    def counted(self, points, with_psi=True):
        batches.append(list(points))
        return evaluate(self, points, with_psi)

    monkeypatch.setattr(FaddeevParams, "_evaluate", counted)
    fp = FaddeevParams(cpoly.from_roots([1, -1, 0.5j]), 2.0)
    p_points, scalar = [], []
    horner_list, horner = cpoly._horner_list, cpoly.horner

    def listed(coeffs, points):
        if coeffs == fp.p.coeffs:
            p_points.extend(points)
        return horner_list(coeffs, points)

    monkeypatch.setattr(cpoly, "_horner_list", listed)
    monkeypatch.setattr(cpoly, "horner", lambda coeffs, z: scalar.append(z) or horner(coeffs, z))
    points = residual_checks(fp)[0]
    assert points == 25
    assert len(batches) == 1
    (seen,) = batches
    assert len(seen) == 25 * (RING_POINTS + 1)
    assert len(set(seen)) == len(seen)
    assert p_points == seen
    assert scalar == []


# Inputs on which the h = 6e-3 cross stencil gave false FAILs: the triple
# 1, -1, 0.5i at small and large |lambda|, and degree-8 generators with
# roots in [-1, 1]^2 and 1 <= |lambda| <= 3; all 45 cases failed.
FIXED_LAMBDAS = (0.1, 20, 100, 20j, 14 + 14j)


def _box_draws(rng, degree, count=40):
    # roots in [-1, 1]^2, 1 <= |lambda| <= 3 with uniform argument
    cases = []
    for _ in range(count):
        rts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)]
        lam = cmath.rect(rng.uniform(1.0, 3.0), rng.uniform(0, 2 * math.pi))
        cases.append(FaddeevParams(cpoly.from_roots(rts), lam))
    return cases


def _fixed_cases():
    cases = [FaddeevParams(cpoly.from_roots([1, -1, 0.5j]), lam) for lam in FIXED_LAMBDAS]
    return cases + _box_draws(random.Random(8), 8)


def test_residual_checks_pass_former_false_fails():
    bounds = verdict.VERIFY_THRESHOLDS
    for fp in _fixed_cases():
        _, res, gauge, harm = residual_checks(fp)
        assert res < bounds["moutard_residual"], (fp.lam, res)
        assert gauge < bounds["gauge_change"], (fp.lam, gauge)
        assert harm < bounds["harmonicity"], (fp.lam, harm)
    # Degrees 10 and 12: the gauge change taken as residual(psi + c / omega)
    # minus residual(psi) cancels against omega psi and crossed the bound on
    # 5 and 14 of these draws.
    for degree in (10, 12):
        for fp in _box_draws(random.Random(100 + degree), degree):
            gauge = residual_checks(fp)[2]
            assert gauge < bounds["gauge_change"], (degree, fp.lam, gauge)


def test_residual_checks_fail_a_perturbed_mu(monkeypatch):
    # Negative control: psi with mu scaled by 1 + 1e-3 is no solution, and
    # the residual must say so on every case above.  Every psi the checks
    # read comes from _evaluate.
    evaluate = FaddeevParams._evaluate

    def perturbed(self, points, with_psi=True):
        ps, mus, es, _ = evaluate(self, points, with_psi)
        mus = [mu * (1 + 1e-3) for mu in mus]
        return ps, mus, es, [e * (1.0 + mu) for e, mu in zip(es, mus)]

    monkeypatch.setattr(FaddeevParams, "_evaluate", perturbed)
    for fp in _fixed_cases():
        assert residual_checks(fp)[1] >= verdict.VERIFY_THRESHOLDS["moutard_residual"], fp.lam


# --- batched evaluation ------------------------------------------------------
# A scalar reference: one Horner pass per point and the per-point checks in
# order (pole guard, finite mu, finite psi), with mu = 0 and no guard at
# degree 0.


def _scalar_horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _reference_mu(fp, z):
    pz = _scalar_horner(fp.p.coeffs, z)
    if fp.p.degree == 0:
        return 0j
    if abs(pz) < transform.POLE_GUARD * math.prod(1.0 + abs(r) for r in fp.roots):
        raise NearPole(z, fp.nearest_root(z))
    mu = 2.0 * _scalar_horner(fp._t, z) / pz
    if not cmath.isfinite(mu):
        raise NonFinite(f"mu = 2 T / P is not finite at {z!r}", point=z, lam=fp.lam)
    return mu


def _reference_psi(fp, z):
    mu = _reference_mu(fp, z)
    try:
        value = cmath.exp(fp.lam * z) * (1.0 + mu)
    except (OverflowError, ValueError):
        value = math.inf
    if not cmath.isfinite(value):
        raise NonFinite(f"psi overflows at {z!r} for lambda = {fp.lam!r}", point=z, lam=fp.lam)
    return value


def _outcome(f, *args):
    # repr tells signed zeros apart; an error by type, message and details
    try:
        return repr(f(*args))
    except MoutardError as e:
        return type(e).__name__, str(e), repr(e.details)


def _first_sample_error(fp, centres):
    # the error the scalar reference meets first over each centre and its ring
    for z in centres:
        rho = transform._ring_radius(fp, z)
        for w in (z, *ring(z, rho, RING_POINTS)):
            try:
                _reference_psi(fp, w)
            except MoutardError as e:
                return type(e).__name__, str(e), repr(e.details)
    return None


def _default_circle(fp):
    radius = scattering.DEFAULT_RADIUS_FACTOR * max(1.0, max((abs(r) for r in fp.roots), default=0.0))
    return [cmath.rect(radius, 2.0 * math.pi * j / scattering.DEFAULT_SAMPLE_COUNT)
            for j in range(scattering.DEFAULT_SAMPLE_COUNT)]


@pytest.mark.parametrize("degree", range(21))
def test_batched_mu_psi_and_sample_mu_equal_a_scalar_reference_bitwise(degree):
    rng = random.Random(500 + degree)
    rts = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(degree)]
    lam = cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi))
    fp = FaddeevParams(cpoly.from_roots(rts), lam)
    points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(40)] + [r + 1e-9 for r in fp.roots[:2]]
    for z in points:
        assert _outcome(fp.mu, z) == _outcome(_reference_mu, fp, z), z
        assert _outcome(fp.psi, z) == _outcome(_reference_psi, fp, z), z
    assert repr(scattering.sample_mu(fp)) == repr([(z, _reference_mu(fp, z)) for z in _default_circle(fp)])


def test_batch_raises_at_the_first_failing_point():
    # Near pole at index 2, overflowing psi at index 1: the psi error comes
    # first, as in a point-by-point loop; without psi the pole guard does.
    fp = FaddeevParams(cpoly.from_roots([1, 2]), 1.0)
    points = [3 + 1j, 800 + 0j, 1 + 1e-12j, 900 + 0j]
    with pytest.raises(NonFinite, match=r"psi overflows at \(800\+0j\)"):
        fp._evaluate(points)
    with pytest.raises(NearPole) as exc:
        fp._evaluate(points, with_psi=False)
    assert exc.value.z == 1 + 1e-12j


def test_harmonicity_check_names_the_ring_sample_inside_the_pole_guard():
    # A root cluster: the centre clears the pole guard and the ring-radius
    # guard, but the ring sample nearest the cluster does not.
    fp = FaddeevParams(cpoly.from_roots([0, 1e-4, 1e-4j]), 1.0)
    z = 2.3e-3
    expected = _first_sample_error(fp, [z])
    assert expected[0] == "NearPole"
    assert f"evaluation point {z} " not in expected[1]
    assert _outcome(harmonicity_check, fp, z) == expected


@pytest.mark.parametrize("roots", [[1, 2, 3], [0.5j, -1, 1 + 1j, 2]])
def test_tiny_lambda_errors_name_the_first_sample(roots):
    # lambda = 1e-200: T's coefficients are inf, so mu fails at the first
    # sample of residual_checks, harmonicity_check and sample_mu.
    fp = FaddeevParams(cpoly.from_roots(roots), 1e-200)
    centres = residual_sample_points(fp.roots, fp.lam)
    expected = _first_sample_error(fp, centres)
    assert expected[0] == "NonFinite" and expected[1].startswith("mu = 2 T / P is not finite")
    assert _outcome(residual_checks, fp) == expected
    assert _outcome(harmonicity_check, fp, centres[3]) == _first_sample_error(fp, centres[3:4])
    assert _outcome(scattering.sample_mu, fp) == _outcome(_reference_mu, fp, _default_circle(fp)[0])


def test_residual_checks_psi_overflow_names_the_first_sample():
    # lambda = 600i: Re(lambda z) = -600 Im z crosses the exp range partway
    # through the sample points.  lambda = 355 + 355i: psi overflows only at
    # a later point, while the ring sums of an earlier point overflow on
    # finite samples; every sample is evaluated before any check runs, so the
    # overflowing sample is named.
    for lam, z in [(600j, -1.1042366664488286 - 1.5008648576140524j),
                   (355 + 355j, 0.21209562258131479 - 1.8220553970923303j)]:
        fp = FaddeevParams(cpoly.from_roots([1, -1, 0.5j]), lam)
        expected = _first_sample_error(fp, residual_sample_points(fp.roots, fp.lam))
        assert expected == ("NonFinite", f"psi overflows at {z!r} for lambda = {lam!r}",
                            repr({"point": z, "lam": lam}))
        assert _outcome(residual_checks, fp) == expected


def test_residual_checks_raise_an_earlier_points_error_before_a_later_overflow():
    # lambda = 600i: psi overflows at every one of the 25 sample points.  The
    # order of the points decides which overflow is named: residual_checks
    # names the first point's, and the batch over the reversed points the last
    # point's.
    fp = FaddeevParams(cpoly.from_roots([1, -1, 0.5j]), 600j)
    points = residual_sample_points(fp.roots, fp.lam)
    errors = [_first_sample_error(fp, [z]) for z in points]
    assert all(e is not None and e[1].startswith("psi overflows at") for e in errors)
    assert len(set(errors)) == len(points)
    assert _outcome(residual_checks, fp) == errors[0]
    assert _outcome(transform._ring_samples, fp, points[::-1]) == errors[-1]


# --- harmonicity off the centers --------------------------------------------


def test_harmonicity_single_center_example():
    fp = FaddeevParams(cpoly.from_roots([1.0]), 1.0)
    assert harmonicity_check(fp, 3 + 2j) < 1e-5


def test_harmonicity_plane_wave_everywhere():
    fp = FaddeevParams(cpoly.from_roots([]), 1 + 1j)
    for z in (0j, 1 + 1j, -2 + 0.5j, 3 - 2j):
        assert harmonicity_check(fp, z) < 1e-7


def test_harmonicity_random_quartic():
    rng = random.Random(3)
    rts = []
    while len(rts) < 4:
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(c - r) > 0.7 for r in rts):
            rts.append(c)
    fp = FaddeevParams(cpoly.from_roots(rts), 1.5 - 0.5j)
    kept = 0
    while kept < 20:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if min(abs(z - r) for r in rts) <= 0.5:
            continue
        kept += 1
        assert harmonicity_check(fp, z) < 1e-5


def test_harmonicity_guards_near_roots():
    fp = FaddeevParams(cpoly.from_roots([1.0]), 1.0)
    with pytest.raises(NearPole):
        harmonicity_check(fp, 1.0 + 1e-4)
    # The guard distance is absolute: 2.0 from a root at 2000 is no nearer
    # than 2.0 from a root at 1 (it raised NearPole, relative to |z|).
    far = FaddeevParams(cpoly.from_roots([2000.0]), 1j)
    assert harmonicity_check(far, 2002.0) < verdict.VERIFY_THRESHOLDS["harmonicity"]


@pytest.mark.parametrize("z", [-746.0, -800.0 + 3j, -1e20])
def test_harmonicity_where_the_plane_wave_underflows_is_non_finite(z):
    # psi and the Laplacian read 0 there, and the check divided 0 by 0.
    fp = FaddeevParams(cpoly.from_roots([1.0]), 1.0)
    with pytest.raises(NonFinite, match="underflows") as exc:
        harmonicity_check(fp, z)
    assert exc.value.details == {"point": z, "lam": 1.0}


@pytest.mark.parametrize("lam", [1e155, 1e200j, 1e300])
def test_harmonicity_where_lambda_squared_overflows_is_non_finite(lam):
    # The normaliser's |lambda|^2 raised OverflowError, and beyond ~1e161 the
    # ring radius squared underflowed to 0 first (ZeroDivisionError).
    for roots in ([], [5j]):
        with pytest.raises(NonFinite, match=r"^\|lambda\|\^2 overflows"):
            harmonicity_check(FaddeevParams(cpoly.from_roots(roots), lam), 1j / lam * abs(lam))


def test_harmonicity_where_the_laplacian_modulus_overflows_is_non_finite():
    # Both parts of the Laplacian are finite, 1.6e308, but its modulus is not.
    with pytest.raises(NonFinite, match="^non-finite ring moments on radius"):
        transform._harmonicity(1.0, 1.0, 1.0, 0j, [complex(4e307, 4e307)] * 4)


def test_a_point_whose_distance_to_every_root_overflows_is_typed():
    # |z - r| overflowed in nearest_root and in the ring radius.
    fp = FaddeevParams(cpoly.from_roots([0]), 1)
    z = complex(1.7e308, -1.7e308)
    assert fp.nearest_root(z) == 0
    with pytest.raises(NonFinite, match="^psi overflows"):
        harmonicity_check(fp, z)


@pytest.mark.parametrize(
    "roots, lam",
    [
        ([1e308, 1.7e308], 1),  # the centroid sum overflows: the points were inf+nanj
        ([complex(1.7e308, 1.7e308), complex(-1.7e308, -1.7e308)], 1),  # the spread overflowed
        ([0, 1.7e308, 1.7e308j], -1),  # the first ring index overflowed in math.ceil
    ],
)
def test_sample_rings_beyond_the_float_range_are_non_finite(roots, lam):
    with pytest.raises(NonFinite, match="^the sample rings around the centroid .* leave the float range"):
        transform.residual_sample_points(roots, lam)


def test_sample_points_where_lambda_times_the_centroid_overflows_are_non_finite():
    # Re(lambda c) is inf - inf = nan, and the walk stepped 0.25 at a time towards 1e306.
    roots = [complex(-2.4467907955769916e305, -1.9577467320720497e306),
             complex(4.1090944897228524e303, 8.217366591531723e300)]
    with pytest.raises(NonFinite, match="^no sample ring around the centroid"):
        transform.residual_sample_points(roots, complex(1.7976931348623157e308, -5.66098727851906e304))


@pytest.mark.parametrize("lam, z", [(1e20, 6.56e-18), (1e40, 6e-38), (1e100, 7e-98)])
def test_harmonicity_where_the_laplacian_overflows_is_non_finite(lam, z):
    # psi = e^{lambda z} above 1e280 on a ring of radius 0.25 / lambda: the
    # Laplacian 4 (mean - psi(z)) / rho^2 of the rounding overflows, and so
    # does the normaliser; the check returned inf / inf = nan.
    fp = FaddeevParams(cpoly.from_roots([]), lam)
    with pytest.raises(NonFinite, match="^non-finite ring moments on radius"):
        harmonicity_check(fp, z)


# --- sample-point selection --------------------------------------------------


def test_sample_points_are_deterministic():
    roots = (0.5 + 0.5j, -1j)
    assert residual_sample_points(roots, 2.0) == residual_sample_points(roots, 2.0)


def test_sample_points_respect_count_and_distance():
    roots = (1.0, -1.0, 0.8j)
    pts = residual_sample_points(roots, 2.0)
    assert len(pts) == 25
    assert all(min(abs(z - r) for r in roots) >= 1.5 for z in pts)


def test_sample_points_respect_phase_constraint_when_possible():
    # One rule for every returned point: Re(lambda z) >= -0.3.
    faced = 0
    for roots, lam in [((0.3, -0.4 + 0.2j), 2 + 0j), *_walk_cases(), *_far_walk_cases()]:
        try:
            pts = residual_sample_points(roots, lam)
        except NonFinite:
            continue
        faced += 1
        assert all((lam * z).real >= -0.3 for z in pts), (roots, lam)
    assert faced > 80


@pytest.mark.parametrize(
    "roots, lam",
    [((1.0, complex("nan")), 2.0), ((complex(0, math.inf),), 2.0), ((0.3, -1j), complex("nan")), ((0.3,), math.inf)],
)
def test_sample_points_reject_a_non_finite_root_or_lambda(roots, lam):
    # A nan root used to end in an untyped "no admissible sample ring", and a
    # nan lambda dropped the phase constraint without a word.
    with pytest.raises(NonFinite, match="sample points need finite roots and lambda"):
        residual_sample_points(roots, lam)


@pytest.mark.parametrize("lam", [1.0])
def test_sample_points_near_1e200_are_a_near_pole(lam):
    # Every candidate centre + rect(rho, theta) rounds back onto the root, so
    # none is admissible; this used to be an untyped "no admissible sample ring".
    root = complex(1e200, 1e200)
    with pytest.raises(NearPole) as exc:
        residual_sample_points((root,), lam)
    assert exc.value.nearest_root == root
    assert abs(exc.value.z - root) < transform.SAMPLE_MIN_DIST
    with pytest.raises(NearPole):
        residual_checks(FaddeevParams(cpoly.from_roots([root]), lam))


# 4.5 behind lambda = 1, two roots 0.1 apart: the first ring that can face
# lambda, rho = 4.52, lies within the walk's reach, spread + 4.5 = 4.55, but
# the walk's last ring, 4.5, is narrower, so none holds 25 facing points.
_NARROW = -(0.3 + 4.52 * math.cos(24 * math.pi / 200))


@pytest.mark.parametrize(
    "roots, lam",
    [((complex(1e200, 1e200),), 1j), ((-8.0,), 1.0), ((-800.0,), 1.0), ((1e20, 0.0), -1.0),
     ((_NARROW - 0.05, _NARROW + 0.05), 1.0)],
)
def test_sample_points_far_behind_lambda_cannot_face_it(roots, lam):
    # Each centroid lies so far behind lambda that no ring of the walk holds
    # 25 points facing it.  The walk used to drop the phase rule there and
    # sample where Re(lambda z) << 0, so that the ring checks, divided by
    # e^{Re(lambda z)}, read rounding as a failure (-8 at lambda = 1:
    # gauge_change 3.1e-10) or underflowed (-800).
    with pytest.raises(NonFinite, match="^no sample ring around the centroid") as exc:
        residual_sample_points(roots, lam)
    assert exc.value.details == {"center": sum(roots) / len(roots), "lam": lam}
    with pytest.raises(NonFinite, match="^no sample ring"):
        residual_checks(FaddeevParams(cpoly.from_roots(roots), lam))


def _unbounded_walk(roots, lam, start=2.0):
    """The first 25 admissible points of the 200-point rings about the roots' centroid, from radius ``start`` out by 0.25.

    Admissible: at least 1.5 from every root and Re(lambda z) >= -0.3.  None if no ring up to spread + 4.5 has 25.
    """
    center = sum(roots) / len(roots) if roots else 0j
    spread = max((abs(r - center) for r in roots), default=0.0)
    rho = start
    while rho <= spread + 4.5:
        chosen = []
        for k in range(200):
            z = center + cmath.rect(rho, 2.0 * math.pi * (k + 0.381966) / 200)
            if roots and min(abs(z - r) for r in roots) < 1.5 or (lam * z).real < -0.3:
                continue
            chosen.append(z)
            if len(chosen) == 25:
                return chosen
        rho += 0.25
    return None


def _walk_cases():
    rng = random.Random(2026)
    cases = [((300.0, 0.0), -1.0), ((-800.0,), 1.0), ((-40.0, 0.0), 1j), ((3.0, -2j), 0j)]
    # The first ring that can face lambda already holds 25 facing candidates.
    cases += [((cmath.rect(2.4 + 0.1 * k, 2.0 + k),), cmath.rect(1.0, math.pi - 2.0 - k)) for k in range(12)]
    for _ in range(60):
        centre = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        roots = tuple(centre + complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(1, 6)))
        cases.append((roots, cmath.rect(rng.choice([1e-3, 0.1, 1.0, 3.0]), rng.uniform(-math.pi, math.pi))))
    return cases


@pytest.mark.parametrize("roots, lam", _walk_cases())
def test_sample_walk_skips_only_rings_that_cannot_face_lambda(roots, lam):
    # The walk starts near the first ring that can face lambda; the points are
    # those of the walk from radius 2, bit for bit, and where that walk finds
    # none, no ring faces lambda (it used to drop the phase rule there).
    expected = _unbounded_walk(roots, lam)
    if expected is None:
        with pytest.raises(NonFinite, match="^no sample ring around the centroid"):
            residual_sample_points(roots, lam)
    else:
        assert residual_sample_points(roots, lam) == expected


def _facing_ring(roots, lam):
    """The ring of the walk from radius 2 just inside the first with rho >= facing, the least radius facing lambda."""
    facing = (-0.3 - (lam * sum(roots) / len(roots)).real) / abs(lam)
    return 2.0 + 0.25 * max(0, math.ceil((facing - 2.0) / 0.25) - 1)


def _far_walk_cases():
    rng = random.Random(2027)
    cases = [((1e4j, 0j), 0.5 + 0.5j)]
    # The arc facing lambda on the ring rho_j is 24 grid steps wide to within
    # 1e-15 and centred on 25 grid points, so rho_j is the first ring that
    # returns; the two roots lie off that arc.
    half = 24 * math.pi / 200
    for j in range(40, 60):
        lam = cmath.rect(1.0, -2.0 * math.pi * (j + 12.381966) / 200)  # arc centred on grid points j..j+24
        rho = 2.0 + 0.25 * j
        centre = -(0.3 + rho * math.cos(half) * (1 - 1e-15)) * lam.conjugate()
        cases.append(((centre + 1j * rho * lam.conjugate(), centre - 1j * rho * lam.conjugate()), lam))
    # Roots spread over a disc of radius 20-300, so the walk reaches well past
    # the facing line and pass 1 runs.
    for _ in range(30):
        size = rng.uniform(20, 300)
        roots = tuple(cmath.rect(rng.uniform(0, size), rng.uniform(-math.pi, math.pi)) for _ in range(rng.randint(2, 4)))
        cases.append((roots, cmath.rect(rng.choice([0.1, 1.0, 3.0]), rng.uniform(-math.pi, math.pi))))
    return cases


@pytest.mark.parametrize("roots, lam", _far_walk_cases())
def test_sample_walk_skips_only_rings_too_narrow_to_return(roots, lam):
    # Pass 1 now starts where the arc facing lambda can hold 25 grid points,
    # near 1.076 facing instead of facing, and returns the same points.
    assert residual_sample_points(roots, lam) == _unbounded_walk(roots, lam, _facing_ring(roots, lam))


def _offset_walk_cases():
    rng = random.Random(2028)
    cases = []
    for _ in range(24):
        lam = cmath.rect(rng.choice([0.1, 1.0, 3.0]), rng.uniform(-math.pi, math.pi))
        facing = rng.uniform(300, 3000)
        centre = -(0.3 + facing * abs(lam)) * lam.conjugate() / abs(lam) ** 2
        # The walk's last ring lies inside the window the grid offset opens, or past it.
        side = 1j * (facing * rng.choice([1.0765, 1.08, 1.5]) - 4.5) * lam.conjugate() / abs(lam)
        cases.append(((centre + side, centre - side), lam))
    return cases


@pytest.mark.parametrize("roots, lam", _offset_walk_cases())
def test_sample_walk_skips_only_rings_the_grid_offset_leaves_short(roots, lam):
    # The grid sits offset rad off conj(lambda), so a ring holds 25 facing grid
    # points only from facing / cos(24 pi / 200 + offset) on.  The walk starts
    # there, and returns what the walk from facing / cos(24 pi / 200) returns,
    # or the error of its last ring where that finds none.
    facing = (-0.3 - (lam * sum(roots) / len(roots)).real) / abs(lam)
    start = 2.0 + 0.25 * (math.ceil((facing / math.cos(24 * math.pi / 200) - 2.0) / 0.25) - 1)
    expected = _unbounded_walk(roots, lam, start)
    if expected is None:
        with pytest.raises(NonFinite, match="^no sample ring around the centroid .* has 25 points facing"):
            residual_sample_points(roots, lam)
    else:
        assert residual_sample_points(roots, lam) == expected


@pytest.mark.parametrize("roots, lam", [((1e20, 0.0), -1.0), ((1e150, 1.0), -1.0), ((-1e20, 0.0), 1e300)])
def test_sample_walk_ends_where_rho_stops_growing(roots, lam):
    # The walk went to spread + 4.5 in steps of 0.25, and rho += 0.25 stops
    # changing rho near 2^51, so these never returned.  The centroid sits far
    # behind lambda, so no ring of the walk can face it, and the walk ends
    # before its first ring.
    with time_limit(5, "the sample walk took over 5 s"), pytest.raises(
            NonFinite, match="^no sample ring around the centroid .* faces lambda") as exc:
        residual_sample_points(roots, lam)
    assert exc.value.details == {"center": sum(roots) / len(roots), "lam": lam}



def test_sample_walk_that_would_start_just_below_two_to_the_51_ends():
    # The first ring that can face lambda lies 1e12 below 2^51, and the first
    # that holds 25 facing grid points lies past it: the walk went on in steps
    # of 0.25 from the one to the other.  It now starts one ring before 2^51,
    # where rho += 0.25 stops changing rho.
    facing = (2.0**51 - 1e12) * math.cos(24 * math.pi / 200)
    centre = -(0.3 + facing)
    roots = (complex(centre, 2.0**52), complex(centre, -2.0**52))
    with time_limit(5, "the sample walk took over 5 s"), pytest.raises(
            NonFinite, match="^no sample ring around the centroid .* has 25 points facing") as exc:
        residual_sample_points(roots, 1.0)
    assert exc.value.details == {"center": centre, "lam": 1.0}
