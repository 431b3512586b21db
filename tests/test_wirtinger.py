"""Stencil derivative tests against hand-differentiated references.

The references: for holomorphic f, d/dz f is the complex derivative and
d/dzbar f = 0; for f = conj(z) the roles swap; for f = |z|^2 = z zbar the
two Wirtinger derivatives are zbar and z and the Laplacian is 4.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import pytest

from moutard import cpoly, transform, wirtinger
from moutard.errors import NonFinite
from moutard.wirtinger import (
    FIRST_ORDER_STEP_SCALE,
    LAPLACIAN_STEP_SCALE,
    d_z,
    d_zbar,
    gradient,
    laplacian,
    ring,
    ring_moments,
)

EPS = sys.float_info.epsilon
LAM = 1 + 1j


def expwave(z: complex) -> complex:
    return cmath.exp(LAM * z)


# --- d_z -------------------------------------------------------------------


def test_dz_holomorphic_exponential():
    z = 0.3
    assert abs(d_z(expwave, z) - LAM * cmath.exp(LAM * z)) < 1e-8


def test_dz_kills_antiholomorphic():
    assert abs(d_z(lambda z: z.conjugate(), 0.4 - 1.1j)) < 1e-10


def test_dz_modulus_squared():
    z = 2 + 1j
    assert abs(d_z(lambda w: abs(w) ** 2, z) - z.conjugate()) < 1e-8


# --- d_zbar ----------------------------------------------------------------


def test_dzbar_kills_holomorphic():
    assert abs(d_zbar(expwave, 0.3)) < 1e-10


def test_dzbar_conjugate_is_one():
    assert abs(d_zbar(lambda z: z.conjugate(), 0.4 - 1.1j) - 1) < 1e-10


def test_dzbar_modulus_squared():
    z = 2 + 1j
    assert abs(d_zbar(lambda w: abs(w) ** 2, z) - z) < 1e-8


def test_dzbar_annihilates_polynomial_evaluations():
    rng = random.Random(99)
    for _ in range(30):
        deg = rng.randrange(1, 7)
        p = cpoly.ComplexPoly(
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg))
            + (1 + 0j,)
        )
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        dp = cpoly.horner(cpoly.differentiate(p.coeffs, 1), z)
        assert abs(d_zbar(lambda w: cpoly.horner(p.coeffs, w), z)) < 1e-9 * (1.0 + abs(dp))


# --- gradient --------------------------------------------------------------


def test_gradient_is_the_pair_from_one_sample_set():
    seen = []

    def f(w: complex) -> complex:
        seen.append(w)
        return abs(w) ** 2 + expwave(w)

    z = 0.7 - 1.3j
    pair = gradient(f, z)
    assert len(seen) == 8
    assert pair == (d_z(f, z), d_zbar(f, z))


def test_cross_samples_lie_exactly_on_the_axes(monkeypatch):
    # The generic stencil is z +- s, z +- i s exactly: at z = 0 every sample
    # has a zero real or imaginary part (rotated units would leave ~1e-17).
    monkeypatch.setattr(wirtinger, "FIRST_ORDER_STEP_SCALE", 0.1)
    monkeypatch.setattr(wirtinger, "LAPLACIAN_STEP_SCALE", 0.1)
    seen = []

    def f(w: complex) -> complex:
        seen.append(w)
        return abs(w) ** 2

    gradient(f, 0j)
    laplacian(f, 0j)
    assert len(seen) == 17
    assert all(w.real == 0.0 or w.imag == 0.0 for w in seen)
    assert {abs(w) for w in seen} == {0.0, 0.1, 0.05}


# --- ring ------------------------------------------------------------------


def test_ring_moments_of_modulus_squared():
    # On the ring, |w|^2 = |z|^2 + r (u zbar + conj(u) z) + r^2 exactly, so
    # the moments are zbar and z up to rounding.
    z, r = 0.7 - 1.3j, 0.3
    dz, dzbar = ring_moments([abs(w) ** 2 for w in ring(z, r, 24)], r)
    assert abs(dz - z.conjugate()) < 1e-14
    assert abs(dzbar - z) < 1e-14


def test_ring_moments_are_spectrally_accurate_for_holomorphic_f():
    # 24 points at |lambda| r = 0.7: the aliased Taylor terms are ~0.7^23/23!.
    z, r = 0.4 + 0.2j, 0.5
    dz, dzbar = ring_moments([expwave(w) for w in ring(z, r, 24)], r)
    scale = abs(expwave(z))
    assert abs(dz - LAM * expwave(z)) < 1e-14 * scale
    assert abs(dzbar) < 1e-14 * scale


def test_ring_laplacian_of_modulus_squared_and_holomorphic_f():
    # transform._harmonicity reads the ring mean: 4 |mean - centre| / r^2 over
    # scale (1 + |lambda|^2).  For |w|^2 the mean is |z|^2 + r^2, so the
    # Laplacian is 4, and measured from |z|^2 + r^2 it is 0; for e^{lambda w}
    # the mean is f(z) to within 1e-14 |f(z)|.
    z, r = 0.7 - 1.3j, 0.3
    samples = [abs(w) ** 2 for w in ring(z, r, 24)]
    assert abs(transform._harmonicity(0j, 1.0, r, abs(z) ** 2, samples) - 4.0) < 1e-12
    assert transform._harmonicity(0j, 1.0, r, abs(z) ** 2 + r * r, samples) < 1e-12
    z, r = 0.4 + 0.2j, 0.5
    scale = abs(expwave(z))
    harm = transform._harmonicity(LAM, scale, r, expwave(z), [expwave(w) for w in ring(z, r, 24)])
    assert harm < 4.0 * 1e-14 / (r * r * (1.0 + abs(LAM) ** 2))


def test_ring_moments_reject_non_finite():
    with pytest.raises(NonFinite):
        ring_moments([1.0, complex("nan"), 1.0, 1.0], 0.1)


@pytest.mark.parametrize("z, radius", [(1.7e308 + 0j, 1e307), (-1.7e308j, 1e307), (0j, math.inf), (complex("nan"), 1.0)])
def test_ring_that_leaves_the_float_range_is_non_finite(z, radius):
    # ring(1.7e308, 1e307, 4) returned inf as its first point.
    with pytest.raises(NonFinite, match="leaves the float range"):
        ring(z, radius, 4)
    assert all(map(cmath.isfinite, ring(1.6e308 + 1.6e308j, 1e307, 4)))


def test_ring_moments_reject_an_empty_ring():
    # used to divide by zero
    with pytest.raises(ValueError, match="at least one sample"):
        ring_moments([], 0.1)


def test_ring_moments_reject_a_zero_radius():
    # used to divide by zero
    with pytest.raises(ValueError, match="a nonzero radius, got 4 and 0.0"):
        ring_moments([1.0] * 4, 0.0)


# --- laplacian -------------------------------------------------------------


def test_laplacian_exponential_is_harmonic():
    assert abs(laplacian(expwave, 0.5 - 0.2j)) < 1e-7


def test_laplacian_log_abs_away_from_origin():
    assert abs(laplacian(lambda z: math.log(abs(z)), 1 + 2j)) < 1e-7


def test_laplacian_modulus_squared_is_four():
    assert abs(laplacian(lambda w: abs(w) ** 2, 0.7 + 0.4j) - 4) < 1e-8


def test_laplacian_agrees_with_nested_wirtinger(monkeypatch):
    # Delta f = 4 d_zbar(d_z f).  At step 1e-3 both estimates carry O(h^4)
    # truncation plus eps/h^2-scale rounding; 1e-6 covers the combined
    # error for these smooth test functions with a wide margin (measured
    # worst 4.2e-9).
    monkeypatch.setattr(wirtinger, "FIRST_ORDER_STEP_SCALE", 1e-3)
    monkeypatch.setattr(wirtinger, "LAPLACIAN_STEP_SCALE", 1e-3)
    for f in (expwave, cmath.sin, lambda z: abs(z) ** 2):
        for z in (0.3 + 0.2j, 0.6 - 0.7j, -0.5 + 0.8j):
            lap = laplacian(f, z)
            nested = 4.0 * d_zbar(lambda w: d_z(f, w), z)
            assert abs(lap - nested) < 1e-6 * max(1.0, abs(f(z)))


# --- step handling ---------------------------------------------------------


def test_step_halving_is_noise_stable(monkeypatch):
    # A first derivative estimated from eps-perturbed samples carries
    # rounding noise of scale eps * |f| / h; halving the step must not move
    # a Richardson-extrapolated result by more than 10x that scale for
    # entire functions on |z| < 1 (measured worst 1.2x).
    for f in (expwave, cmath.sin, lambda z: z * z * z - 2j * z):
        for z in (0.3, 0.5 - 0.7j, -0.4 + 0.5j, 0.7 + 0.6j, -0.6 - 0.7j, 0.9j):
            monkeypatch.setattr(wirtinger, "FIRST_ORDER_STEP_SCALE", 1e-3)
            coarse = d_z(f, z)
            monkeypatch.setattr(wirtinger, "FIRST_ORDER_STEP_SCALE", 5e-4)
            fine = d_z(f, z)
            noise = EPS * max(1.0, abs(f(z))) / 5e-4
            assert abs(coarse - fine) < 10.0 * noise


def step_used(op, z: complex) -> float:
    # The coarse cross puts its east sample at z + s; for Re z = 0 its real
    # part is s exactly, and no other sample lies farther east.
    seen = []

    def f(w: complex) -> complex:
        seen.append(w)
        return 0j

    op(f, z)
    return max(w.real for w in seen)


def test_adaptive_steps_scale_with_z():
    assert step_used(gradient, 0.5j) == FIRST_ORDER_STEP_SCALE
    assert step_used(gradient, 10j) == FIRST_ORDER_STEP_SCALE * 10
    assert step_used(laplacian, 0j) == LAPLACIAN_STEP_SCALE
    assert step_used(laplacian, -4j) == LAPLACIAN_STEP_SCALE * 4


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0.0, -math.inf), math.nan])
@pytest.mark.parametrize("op", [gradient, d_z, d_zbar, laplacian])
def test_non_finite_centre_raises(op, z):
    # A constant f samples finitely everywhere, so only the centre check can catch z.
    with pytest.raises(NonFinite) as exc:
        op(lambda w: 2.0, z)
    assert repr(exc.value.details["point"]) == repr(z)


def test_dz_error_is_fourth_order(monkeypatch):
    # For holomorphic f the cross stencil's h^2 terms cancel in d_z, and the
    # h, h/2 extrapolation leaves h^4 |f^(5)| / 480 (measured 1/480.0 at
    # h = 1e-2, 2e-2 and 5e-2); a single step h would leave 1/120.
    h = 1e-2
    monkeypatch.setattr(wirtinger, "FIRST_ORDER_STEP_SCALE", h)
    z = 0.7 - 0.6j
    err = abs(d_z(expwave, z) - LAM * expwave(z))
    assert err < h**4 * abs(LAM**5 * expwave(z)) / 400


# --- failure reporting -----------------------------------------------------


def test_non_finite_sample_raises():
    with pytest.raises(NonFinite):
        d_z(lambda z: complex("nan"), 0)
    with pytest.raises(NonFinite):
        laplacian(lambda z: complex(math.inf, 0.0), 1 + 1j)


def test_a_centre_whose_modulus_overflows_is_typed():
    # abs(z) raised OverflowError in the step; the step is now inf, and so is the first sample.
    with pytest.raises(NonFinite, match="^non-finite sample"):
        d_z(lambda w: w, complex(1.7e308, 1.7e308))


def test_an_estimate_that_overflows_is_non_finite():
    # |w|^2 is 8.8e307 at the centre, and 4 f(z) overflows: the Laplacian was nan.
    z = complex(1.666788648039634, -9.386764316126998e153)
    with pytest.raises(NonFinite, match="^the stencil estimate at .* is not finite") as exc:
        laplacian(lambda w: w * w.conjugate(), z)
    assert exc.value.details == {"point": z}
    with pytest.raises(NonFinite, match="^the stencil estimate"):
        gradient(lambda w: 1e308 if w.real > 0 else -1e308, 0j)


def test_non_finite_reports_sample_point():
    def pole_like(z: complex) -> complex:
        return complex(math.inf, 0.0) if z.real > 1.0 else 1.0

    with pytest.raises(NonFinite) as exc:
        d_z(pole_like, 1.0)
    assert exc.value.details["point"].real > 1.0
