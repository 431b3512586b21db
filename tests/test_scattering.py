"""Circle sampling and scattering-data fit tests.

References: the forward amplitude for a degree-n generator is -2n/lambda
(hand inversion gives the count gate), a single center gives
mu = -2/(lambda z) in closed form, and synthetic data mu = a/z with no
conjugate-phase part must be reproduced exactly by the fit.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import sys

import pytest
from helpers import separated_points

from moutard import cpoly, scattering, transform
from moutard.errors import (
    DegenerateDesign,
    InconsistentData,
    MoutardError,
    NonFinite,
    RadiusTooSmall,
    ZeroLambda,
)
from moutard.scattering import (
    count_deltas,
    expected_a,
    fit_scattering,
    sample_mu,
)


def params(roots, lam):
    return transform.FaddeevParams(cpoly.from_roots(roots), lam)


def circle_samples(radius, count, fn):
    return [
        (z, fn(z))
        for z in (cmath.rect(radius, 2.0 * math.pi * j / count) for j in range(count))
    ]


# --- sampling ---------------------------------------------------------------


def test_sample_mu_plane_wave_is_zero():
    for _, mu in sample_mu(params([], 1 + 1j), radius=100.0, count=16):
        assert mu == 0j


def test_sample_mu_single_center_closed_form():
    for z, mu in sample_mu(params([0], 1.0), radius=1e3, count=16):
        assert mu == -2.0 / z


def test_sample_mu_degree_three_magnitude():
    # Leading behaviour is 2*degree/(lambda z); on the circle the maximum
    # modulus should sit within a factor 2 of 6/(|lambda| radius).
    lam = 1 + 0.5j
    pairs = sample_mu(params([1, -0.5 + 1j, 2 - 1j], lam), radius=1e4)
    top = max(abs(mu) for _, mu in pairs)
    lead = 6.0 / (abs(lam) * 1e4)
    assert lead / 2 <= top <= lead * 2


def test_sample_mu_default_radius_scales_with_roots():
    pairs = sample_mu(params([5.0], 1.0))
    assert abs(abs(pairs[0][0]) - 5e4) < 1e-6 * 5e4


def test_sample_mu_rejects_small_radius():
    with pytest.raises(RadiusTooSmall):
        sample_mu(params([3.0], 1.0), radius=4.0)


def test_sample_mu_radius_must_exceed_twice_the_largest_root():
    # Equal to twice the largest |root| is not enough; the next float up is.
    fp = params([3.0, 1j], 1.0)
    with pytest.raises(RadiusTooSmall):
        sample_mu(fp, radius=6.0)
    assert len(sample_mu(fp, radius=math.nextafter(6.0, 7.0))) == scattering.DEFAULT_SAMPLE_COUNT


@pytest.mark.parametrize("radius", [5e-324, 1e-315, 1e-310])
def test_sample_mu_rejects_a_subnormal_radius(radius):
    # Rounded to so few bits the circle points are not equispaced, and the fit
    # rejected them with the ValueError meant for a caller's points.
    with pytest.raises(RadiusTooSmall, match="is subnormal"):
        sample_mu(params([], 2.5), radius=radius)


def test_sample_mu_accepts_the_smallest_normal_radius():
    pairs = sample_mu(params([], 2.5), radius=sys.float_info.min)
    assert len(pairs) == scattering.DEFAULT_SAMPLE_COUNT and all(mu == 0j for _, mu in pairs)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_sample_mu_names_a_non_finite_radius(radius):
    with pytest.raises(NonFinite) as info:
        sample_mu(params([3.0], 1.0), radius=radius)
    assert info.value.record()["details"] == {"radius": repr(radius)}


def test_sample_mu_rejects_tiny_count():
    with pytest.raises(ValueError):
        sample_mu(params([], 1.0), radius=10.0, count=4)


# --- fitting ----------------------------------------------------------------


def test_fit_synthetic_pure_pole():
    samples = circle_samples(50.0, 32, lambda z: 5.0 / z)
    est = fit_scattering(samples, 1.0)
    assert abs(est.a - 5.0) < 1e-12
    assert abs(est.b) < 1e-12
    assert est.fit_residual < 1e-12
    assert est.radius == pytest.approx(50.0)
    assert est.samples == 32


def test_fit_zero_data():
    est = fit_scattering(sample_mu(params([], 2.0), radius=100.0, count=16), 2.0)
    assert est.a == 0j
    assert est.b == 0j
    assert est.fit_residual == 0.0


def test_fit_degree_three_reflectionless():
    lam = 2.0
    est = fit_scattering(sample_mu(params([1, -1, 0.5j], lam)), lam)
    assert abs(est.a - (-3.0)) < 1e-3 * 3.0
    assert abs(est.b) < 1e-8


def test_fit_is_input_order_insensitive():
    lam = 1 + 1j
    samples = sample_mu(params([1, -1], lam))
    shuffled = list(samples)
    random.Random(17).shuffle(shuffled)
    assert fit_scattering(shuffled, lam) == fit_scattering(samples, lam)


def test_fit_requires_common_circle():
    bad = [(1.0 + 0j, 0j), (-1.0 + 0j, 0j), (2j, 0j), (-2j, 0j)]
    with pytest.raises(ValueError):
        fit_scattering(bad, 1.0)


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_scattering([(1 + 0j, 0j)] * 3, 1.0)
    with pytest.raises(ZeroLambda):
        fit_scattering([(1 + 0j, 0j)] * 8, 0.0)


@pytest.mark.parametrize("k, z, mu", [(2, 2j, complex("nan")), (1, complex("nan"), 0j), (3, -2j, complex(math.inf, 0))])
def test_fit_names_the_first_non_finite_sample(k, z, mu):
    # A nan mu was reported as an overflowing misfit, a nan z as an
    # overflowing conjugate phase at (nan+0j).
    samples = [(2.0 + 0j, 0.1j), (-2.0 + 0j, 0.2j), (2j, 0.3j), (-2j, 0.4j)]
    samples[k] = (z, mu)
    samples.append((-2.0 + 0j, complex("nan")))  # a later one is not named
    with pytest.raises(NonFinite, match=r"the sample \(z, mu\) = .* is not finite") as exc:
        fit_scattering(samples, 1.0)
    assert repr(exc.value.details) == repr({"point": complex(z), "mu": complex(mu)})


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(math.inf, 0), complex(0, -math.inf)])
def test_fit_names_a_non_finite_lambda(lam):
    # It was blamed on the first sample: "the conjugate phase 2 Im(lambda z) overflows at (-10000+...j)".
    with pytest.raises(NonFinite, match="the spectral parameter lambda must be finite") as exc:
        fit_scattering(sample_mu(params([1, -1], 1.0)), lam)
    assert repr(exc.value.details) == repr({"lam": complex(lam)})


def test_fit_degenerate_design():
    # At lambda = pi/2 the conjugate-phase column on the four points i^k is
    # e^{-i pi Im z} / conj(z) = 1/z: both design columns are the same vector.
    samples = [(z, 1.0 / z) for z in (1 + 0j, 1j, -1 + 0j, -1j)]
    with pytest.raises(DegenerateDesign) as exc:
        fit_scattering(samples, math.pi / 2)
    assert exc.value.details["collinearity"] == pytest.approx(1.0)


RING = circle_samples(10.0, 8, lambda z: 1.0 / z)


@pytest.mark.parametrize(
    "samples",
    [
        [(cmath.rect(10.0, 0.7), 0.1 + 0j)] * 8,  # eight copies of one point
        [(z * cmath.rect(1.0, 1e-9 * (j == 3)), mu) for j, (z, mu) in enumerate(RING)],
        [(z * (1.0 + 1e-9 * (j % 2)), mu) for j, (z, mu) in enumerate(RING)],
    ],
    ids=["eight-copies", "one-turned-1e-9", "two-radii"],
)
def test_fit_rejects_samples_not_equispaced(samples):
    # A 1e-9 turn or radius step lies far above the 1e-12 bound.
    with pytest.raises(ValueError, match="equispaced on a common circle"):
        fit_scattering(samples, 1.0)


def test_fit_makes_fifteen_inner_products_at_64_samples(monkeypatch):
    # Two per nuisance mode 1/z^2 .. 1/z^6 and five for the 2x2 solve.
    calls = []
    dot = scattering._dot
    monkeypatch.setattr(scattering, "_dot", lambda x, y: calls.append(1) or dot(x, y))
    fit_scattering(sample_mu(params([1, -1, 0.5j], 2.0)), 2.0)
    assert len(calls) == 15


def _reference_fit(samples, lam):
    """(a, b) of the full augmented least squares for points on any common circle.

    The general algorithm: modified Gram-Schmidt over the nuisance columns,
    then 1/z, the conjugate-phase column and the data all deflated by them
    and the 2x2 normal equations solved.  Every column is scaled by s^k, as
    fit_scattering scales its own, so no mode underflows at huge radii.
    """
    ordered = sorted(samples, key=lambda t: (t[0].real, t[0].imag))
    zs = [z for z, _ in ordered]
    data = [mu for _, mu in ordered]
    n = len(zs)
    radius = sum(abs(z) for z in zs) / n
    s = math.ldexp(1.0, math.frexp(radius)[1])
    u = [s / z for z in zs]
    v = [s * cmath.exp(complex(0.0, -2.0 * (lam * z).imag)) / z.conjugate() for z in zs]

    def dot(x, y):
        return sum((xi.conjugate() * yi for xi, yi in zip(x, y)), 0j)

    nuisance = []
    for mode in range(2, min(scattering.MAX_NUISANCE_MODE, n // 4) + 1):
        w = [x**mode for x in u]
        for q in nuisance:
            coef = dot(q, w)
            w = [wi - coef * qi for wi, qi in zip(w, q)]
        nrm = math.sqrt(dot(w, w).real)
        if nrm > 1e-14 * (s / radius) ** mode * math.sqrt(n):
            nuisance.append([wi / nrm for wi in w])

    def deflate(x):
        for q in nuisance:
            coef = dot(q, x)
            x = [xi - coef * qi for xi, qi in zip(x, q)]
        return x

    ud, vd, md = deflate(u), deflate(v), deflate(data)
    guu, gvv, guv = dot(ud, ud).real, dot(vd, vd).real, dot(ud, vd)
    det = guu * gvv - abs(guv) ** 2
    bu, bv = dot(ud, md), dot(vd, md)
    return (gvv * bu - guv * bv) / det * s, (guu * bv - guv.conjugate() * bu) / det * s


def _mu_in_inverse_powers(fp, z):
    # 2 T(z) / P(z) as 2 w T~(w) / P~(w) with w = 1/z and the reversed
    # coefficients: finite at radii where P(z) itself overflows.
    w = 1.0 / z
    return 2.0 * w * cpoly.horner(fp._t[::-1], w) / cpoly.horner(fp.p.coeffs[::-1], w)


@pytest.mark.parametrize("degree", range(21))
def test_fit_equals_the_general_augmented_least_squares(degree):
    # On equispaced points, rotated and shuffled, projecting the nuisance
    # modes out of the conjugate-phase column alone gives the (a, b) of the
    # general algorithm that also deflates 1/z and the data.
    rng = random.Random(600 + degree)
    rts = []
    while len(rts) < degree:
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(c - r) > 0.25 for r in rts):
            rts.append(c)
    lam = cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi))
    fp = params(rts, lam)
    default = scattering.DEFAULT_RADIUS_FACTOR * max([1.0] + [abs(r) for r in rts])
    for count in (8, 9, 16, 64):
        for radius in (200.0, default, 1e100):
            theta0 = rng.uniform(0.1, 3.0)
            zs = [cmath.rect(radius, theta0 + 2.0 * math.pi * j / count) for j in range(count)]
            samples = [(z, _mu_in_inverse_powers(fp, z)) for z in zs]
            rng.shuffle(samples)
            est = fit_scattering(samples, lam)
            a_ref, b_ref = _reference_fit(samples, lam)
            tol = 1e-12 * (1.0 + abs(a_ref))
            assert abs(est.a - a_ref) <= tol, (count, radius)
            assert abs(est.b - b_ref) <= tol, (count, radius)


def _seeded_fit_reprs():
    """repr of 200 seeded fits: degrees 0-20, five counts, three radii, rotated and shuffled samples."""
    rng = random.Random(2037)
    out = []
    for j in range(200):
        degree = j % 21
        rts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(degree)]
        lam = cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi))
        fp = params(rts, lam)
        count = (8, 9, 16, 64, 100)[j % 5]
        radius = (200.0, scattering.DEFAULT_RADIUS_FACTOR * max([1.0] + [abs(r) for r in rts]), 1e100)[j // 5 % 3]
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        zs = [cmath.rect(radius, theta0 + 2.0 * math.pi * k / count) for k in range(count)]
        samples = [(z, _mu_in_inverse_powers(fp, z)) for z in zs]
        rng.shuffle(samples)
        out.append(repr(fit_scattering(samples, lam)))
    return out


def test_fit_is_frozen_bit_for_bit_on_200_seeded_circles():
    # The digest was taken before the fit's inner products moved to map/sum;
    # every float of a, b, the misfit and the radius is kept since.
    digest = hashlib.sha256("\n".join(_seeded_fit_reprs()).encode()).hexdigest()
    assert digest == "fccde94f211718d059d1d7c7fbb582e4fcf28d2a679b5970bf9f02eb40ff6b4f"


def test_fit_residual_shrinks_with_radius():
    # the unmodelled remainder is O(1/radius^2), so doubling the radius
    # should cut the RMS misfit by at least 3x (measured exactly 4x)
    lam = 2.0
    fp = params([1, -1, 1j], lam)
    near = fit_scattering(sample_mu(fp, radius=200.0), lam).fit_residual
    far = fit_scattering(sample_mu(fp, radius=400.0), lam).fit_residual
    assert near >= 3.0 * far


def test_fit_at_huge_radii():
    # Unscaled, the Gram products of the 1/z and conjugate-phase columns
    # (about n / r^2 each) underflowed and the fit divided by zero.  At 1e200
    # P(z) = z^2 itself overflows, which mu reports as a typed error.
    fp = params([1, 2], 1.0)
    for radius in (1e100, 1e140, 1e150):
        est = fit_scattering(sample_mu(fp, radius=radius), fp.lam)
        assert abs(est.a - expected_a(2, fp.lam)) < 1e-9, radius
    with pytest.raises(MoutardError):
        fit_scattering(sample_mu(fp, radius=1e200), fp.lam)


@pytest.mark.parametrize("k", [-40, -1, 1, 9, 1017])
def test_fit_is_exactly_equivariant_under_powers_of_two(k):
    # z -> 2^k z with lambda -> lambda / 2^k keeps lambda z and mu, so a, b and
    # the radius scale by 2^k and the misfit stays, bit for bit.  At k = 1017
    # the 64 moduli of 2^1020 sum past the float range, which made the fit
    # divide by zero when it summed them unscaled.
    def times(c, e):
        return complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))

    lam = 0.75 - 0.5j
    samples = sample_mu(params([1, -0.5j, 0.25 + 1j], lam), radius=8.0)
    est = fit_scattering(samples, lam)
    scaled = fit_scattering([(times(z, k), mu) for z, mu in samples], times(lam, -k))
    assert (scaled.a, scaled.b, scaled.fit_residual) == (times(est.a, k), times(est.b, k), est.fit_residual)
    assert scaled.radius == math.ldexp(est.radius, k)


@pytest.mark.parametrize("size", [1e154, 1e160])
def test_a_misfit_whose_squares_overflow_is_finite(size):
    # mu = size z^3 lies outside the model, so each residual is about size.
    # At 1e160 each square passes the float range, at 1e154 their sum does;
    # both read as an overflowing misfit, which is now summed again on the
    # residuals scaled by a power of two.
    zs = [cmath.rect(1.0, 2.0 * math.pi * k / 16) for k in range(16)]
    est = fit_scattering([(z, size * z**3) for z in zs], 1.0)
    unit = fit_scattering([(z, z**3) for z in zs], 1.0)
    assert abs(est.fit_residual / (size * unit.fit_residual) - 1.0) < 1e-12


def test_a_fit_whose_sums_overflow_is_non_finite():
    # mu = +-1.8e308 in turn: the fit's inner products overflow, and the misfit reads nan.
    zs = [cmath.rect(1.0, 2.0 * math.pi * k / 8) for k in range(8)]
    samples = [(z, (-1) ** k * sys.float_info.max) for k, z in enumerate(zs)]
    with pytest.raises(NonFinite, match="^the fit misfit or amplitudes overflow at lambda"):
        fit_scattering(samples, 1.0)


def test_amplitudes_that_overflow_at_the_radius_are_non_finite():
    # a = 1e300 * 2^256 passes the float range only when the fit on z / 2^256
    # is scaled back; the estimate carried a = inf - inf j beside a finite misfit.
    zs = [cmath.rect(2.0**256, 2.0 * math.pi * k / 8) for k in range(8)]
    with pytest.raises(NonFinite, match="^the fit misfit or amplitudes overflow") as info:
        fit_scattering([(z, (1e300 / z) * 2.0**256) for z in zs], 1.0)
    assert info.value.details == {"lam": 1.0, "radius": 2.0**256}


def test_a_sample_angle_that_underflows_is_read():
    # atan2(1e-30, 1e300) underflows, which cmath.phase raised as OverflowError.
    samples = [(complex(1e300, 1e-30), 0j)] + [(cmath.rect(1e300, 2 * math.pi * j / 8), 0j) for j in range(1, 8)]
    est = fit_scattering(samples, 1.0)
    assert (est.a, est.b, est.fit_residual, est.radius) == (0j, 0j, 0.0, 1e300)


# --- prediction and inversion -------------------------------------------------


def test_expected_a_values():
    assert expected_a(3, 2.0) == -3.0
    assert expected_a(0, 5j) == 0j
    assert abs(expected_a(2, 1j) - 4j) < 1e-15


def test_expected_a_validation():
    with pytest.raises(ZeroLambda):
        expected_a(3, 0.0)
    with pytest.raises(ValueError):
        expected_a(-1, 1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(math.inf, 0), complex(0, -math.inf)])
def test_expected_a_rejects_non_finite_lambda(lam):
    with pytest.raises(NonFinite):
        expected_a(2, lam)


def test_expected_a_rejects_overflow():
    # lambda is finite, but -2n/lambda overflows for a subnormal lambda.
    with pytest.raises(NonFinite):
        expected_a(2, 5e-324)
    assert math.isfinite(abs(expected_a(2, 1e-300)))


def test_count_deltas_hand_cases():
    assert count_deltas(-3.0, 2.0) == 3
    assert count_deltas(0.0, 1.0) == 0
    assert count_deltas(-2.998, 2.0) == 3  # within the 0.1 rounding gate


def test_count_deltas_rejects_inconsistent_input():
    with pytest.raises(InconsistentData):
        count_deltas(-3 + 0.3j, 2.0)  # imaginary excess
    with pytest.raises(InconsistentData):
        count_deltas(-2.7, 2.0)  # implied count 2.7 is 0.3 off an integer
    with pytest.raises(InconsistentData):
        count_deltas(3.0, 2.0)  # negative count
    with pytest.raises(ZeroLambda):
        count_deltas(-3.0, 0.0)


# With lambda = -2, -lambda a / 2 is a itself, so a is the implied count.
# "Within 0.1" takes 0.1 itself, in either part, and not the next float above it.
TENTH_UP = math.nextafter(0.1, 1.0)


@pytest.mark.parametrize("a", [0.1, 0.1j, 5 - 0.1j])
def test_count_deltas_accepts_a_count_exactly_a_tenth_off(a):
    assert count_deltas(a, -2.0) == round(a.real)


@pytest.mark.parametrize("a", [complex(TENTH_UP, 0), complex(0, TENTH_UP), complex(5, -TENTH_UP)])
def test_count_deltas_rejects_a_count_just_over_a_tenth_off(a):
    with pytest.raises(InconsistentData):
        count_deltas(a, -2.0)


@pytest.mark.parametrize(
    "a, lam",
    [(complex("nan"), 1), (complex("inf"), 1), (complex(0, math.inf), 1), (-3.0, complex("nan")), (0.0, math.inf)],
)
def test_count_deltas_rejects_non_finite_input(a, lam):
    # Unguarded, a non-finite -lambda*a/2 reaches round() and raises a bare
    # ValueError instead of a typed error.
    with pytest.raises(InconsistentData):
        count_deltas(a, lam)


# --- end-to-end property -----------------------------------------------------


@pytest.mark.parametrize(
    "seed, degrees, lams, radius",
    [
        (52, [8], [1 + 1j], 200.0),
        pytest.param(51, range(1, 9), [2.0, 1 + 1j, 0.5j], 1e4, id="test_recovery_suite_degrees_one_to_eight"),
    ],
)
def test_recovery_at_modest_radius(seed, degrees, lams, radius):
    # For well-separated roots in |z| <= 5 the fitted amplitude matches
    # -2N/lambda to better than 10/radius relative, the conjugate-phase
    # coefficient stays below 1e-8, and the center count is recovered.
    rng = random.Random(seed)
    for deg in degrees:
        rts = separated_points(rng, deg, 5.0, 0.6)
        for lam in lams:
            est = fit_scattering(sample_mu(params(rts, lam), radius=radius), lam)
            want = expected_a(deg, lam)
            assert abs(est.a - want) < (10.0 / radius) * abs(want)
            assert abs(est.b) < 1e-8
            assert count_deltas(est.a, lam) == deg


def test_estimate_validates_fields():
    with pytest.raises(ValueError):
        scattering.ScatteringEstimate(a=0j, b=0j, fit_residual=-1.0, radius=10.0, samples=8)
    with pytest.raises(ValueError):
        scattering.ScatteringEstimate(a=0j, b=0j, fit_residual=0.0, radius=10.0, samples=3)
