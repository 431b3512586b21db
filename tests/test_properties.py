"""One seeded property test of the "finite result or typed error" contract.

The public callables of cpoly, transform, scattering, flow and wirtinger
that ``_calls`` names are called on arguments drawn over the whole float
range: 0 and finite values from 5e-324 to 1.7976931348623157e308 in either
part of a root, coefficient, lambda, point, radius or time, and nan or inf
only where a callable documents NonFinite for them.  The draws meet each
callable's documented ValueError preconditions, so every call must return
finite floats only or raise a MoutardError.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
import random

from moutard import cpoly, flow, scattering, transform, wirtinger
from moutard.errors import MoutardError

SEED = 20130719
DRAWS = 400
EXTREMES = (0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308)
NON_FINITE = (math.nan, math.inf, -math.inf)
# Binary exponent ranges of one draw: the whole float range, or one end of it, or near 1.
SCALES = ((-1074, 1024), (-1074, 1024), (-3, 3), (-60, 60), (-1074, -1000), (1000, 1024))


class _Draw:
    """Values for one draw, all at one scale of binary exponents."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lo, self.hi = rng.choice(SCALES)

    def real(self) -> float:
        rng = self.rng
        if rng.random() < 0.15:
            x = rng.choice(EXTREMES)
        else:
            x = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(self.lo, self.hi))
        return -x if rng.random() < 0.5 else x

    def complex(self) -> complex:
        return complex(self.real(), self.real() if self.rng.random() < 0.8 else 0.0)

    def maybe_non_finite(self) -> complex:
        """A complex value, one part of which is nan or inf one time in eight."""
        z = self.complex()
        if self.rng.random() < 0.125:
            bad = self.rng.choice(NON_FINITE)
            z = complex(bad, z.imag) if self.rng.random() < 0.5 else complex(z.real, bad)
        return z

    def roots(self) -> list[complex]:
        return [self.complex() for _ in range(self.rng.randint(0, 5))]

    def poly(self, least: int = 0) -> cpoly.ComplexPoly:
        degree = self.rng.randint(least, 5)
        if self.rng.random() < 0.5:
            return cpoly.from_roots([self.complex() for _ in range(degree)])
        return cpoly.ComplexPoly([self.complex() for _ in range(degree)] + [1.0])

    def times(self) -> tuple[float, float]:
        """t0 < t1, as trajectory requires; two equal draws end at inf, a documented NonFinite."""
        t0, t1 = sorted((self.real(), self.real()))
        return (t0, t1) if t0 < t1 else (t0, math.inf)


def _calls(d: _Draw):
    """(name, thunk) of one call of each public callable; a thunk may raise while it builds its arguments."""
    rng = d.rng
    roots, lam, z, radius = d.roots(), d.complex(), d.complex(), abs(d.real()) or 1.0  # radius > 0
    coeffs = [d.complex() for _ in range(rng.randint(1, 6))]

    p = functools.cache(lambda: cpoly.from_roots(roots))  # one root solve per draw, kept on p

    def fp() -> transform.FaddeevParams:
        return transform.FaddeevParams(p(), lam)

    def circle() -> list[tuple[complex, complex]]:
        count = rng.choice((4, 8, 9, 16))
        zs = [cmath.rect(radius, 2.0 * math.pi * j / count) for j in range(count)]
        return list(zip(zs, [d.complex() for _ in zs]))

    def samples_meet_the_precondition(samples) -> bool:
        # fit_scattering's ValueError: each |z| within 1e-12 of the mean in
        # ratio, each sorted angle within 1e-12 rad of the grid through the first.
        e = math.frexp(radius)[1]  # on z / 2^e, whose moduli are normal floats
        zs = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z, _ in samples]
        mean = sum(map(abs, zs)) / len(zs)
        angles = sorted(math.atan2(z.imag, z.real) for z in zs)
        return all(abs(abs(z) - mean) <= 1e-12 * mean for z in zs) and all(
            abs(a - angles[0] - 2.0 * math.pi * j / len(zs)) <= 1e-12 for j, a in enumerate(angles))

    def fit():
        samples = circle()
        if not samples_meet_the_precondition(samples):
            return None
        return scattering.fit_scattering(samples, d.maybe_non_finite())

    t0, t1 = d.times()
    if rng.random() < 0.125:
        t0 = rng.choice(NON_FINITE)
    t = d.real() if rng.random() < 0.875 else rng.choice(NON_FINITE)
    sign = rng.choice((1, -1))
    f = rng.choice((lambda w: w, lambda w: w * w.conjugate(), lambda w, c=d.complex(): c * w * w))
    ring_samples = [d.complex() for _ in range(rng.randint(1, 8))]
    yield "cpoly.roots", lambda: cpoly.roots(d.poly())
    yield "ComplexPoly.from_coefficients", lambda: cpoly.ComplexPoly.from_coefficients(
        coeffs + [1.0] * (not any(coeffs)))  # ValueError for the zero polynomial
    yield "cpoly.differentiate", lambda: cpoly.differentiate(coeffs, rng.randint(0, 6))
    yield "cpoly.horner", lambda: cpoly.horner(coeffs, d.maybe_non_finite())
    yield "cpoly.min_root_separation", lambda: cpoly.min_root_separation(
        [d.maybe_non_finite() for _ in range(rng.randint(2, 6))])
    yield "FaddeevParams", lambda: transform.FaddeevParams(d.poly(), d.maybe_non_finite()).roots
    yield "FaddeevParams.mu", lambda: fp().mu(d.maybe_non_finite())
    yield "FaddeevParams.psi", lambda: fp().psi(d.maybe_non_finite())
    yield "FaddeevParams.nearest_root", lambda: fp().nearest_root(z)
    yield "transform.residual_sample_points", lambda: transform.residual_sample_points(
        [d.maybe_non_finite() for _ in roots], d.maybe_non_finite())
    yield "transform.transformed_potential", lambda: transform.transformed_potential(d.poly())
    yield "transform.moutard_residual", lambda: transform.moutard_residual(
        lambda w: cpoly.horner(coeffs, w), f, lambda w: fp().psi(w), d.maybe_non_finite(), radius)
    yield "transform.residual_checks", lambda: transform.residual_checks(fp())
    yield "transform.harmonicity_check", lambda: transform.harmonicity_check(fp(), z)
    yield "transform.verify_eigenfunction_identity", lambda: transform.verify_eigenfunction_identity(fp())
    yield "scattering.sample_mu", lambda: scattering.sample_mu(
        fp(), rng.choice((None, d.real(), rng.choice(NON_FINITE))), rng.choice((8, 9, 16)))
    yield "scattering.fit_scattering", fit
    yield "scattering.expected_a", lambda: scattering.expected_a(rng.randint(0, 40), d.maybe_non_finite())
    yield "scattering.count_deltas", lambda: scattering.count_deltas(d.maybe_non_finite(), lam)
    yield "flow.evolve", lambda: flow.evolve(d.poly(), t, sign)
    yield "flow.verify_flow", lambda: flow.verify_flow(d.poly(), t, radius, sign)
    yield "flow.trajectory", lambda: flow.trajectory(d.poly(1), t0, t1, rng.randint(1, 8), radius, sign)
    yield "wirtinger.ring_moments", lambda: wirtinger.ring_moments(ring_samples, d.real() or 1.0)
    yield "wirtinger.gradient", lambda: wirtinger.gradient(f, d.maybe_non_finite())
    yield "wirtinger.d_z", lambda: wirtinger.d_z(f, d.maybe_non_finite())
    yield "wirtinger.d_zbar", lambda: wirtinger.d_zbar(f, d.maybe_non_finite())
    yield "wirtinger.laplacian", lambda: wirtinger.laplacian(f, d.maybe_non_finite())


def _floats(x):
    """Every float in a result: in numbers, containers and the fields of records."""
    if isinstance(x, float):
        yield x
    elif isinstance(x, complex):
        yield from (x.real, x.imag)
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _floats(item)
    elif isinstance(x, cpoly._Record):
        for name in x.__match_args__:
            yield from _floats(getattr(x, name))


def test_every_call_gives_finite_floats_or_a_typed_error():
    rng = random.Random(SEED)
    breaches, finite = [], collections.Counter()
    for _ in range(DRAWS):
        for name, call in _calls(_Draw(rng)):
            try:
                result = call()
            except MoutardError:
                continue
            except Exception as e:  # noqa: BLE001  (the contract is what is tested)
                breaches.append(f"{name}: {type(e).__name__}: {e}")
                continue
            if not all(map(math.isfinite, _floats(result))):
                breaches.append(f"{name}: {result!r}")
            elif result is not None:  # None: the fit's draw missed its precondition
                finite[name] += 1
    assert not breaches, f"{len(breaches)} breaches:\n" + "\n".join(breaches)
    # Every callable gets past its argument checks often.
    assert len(finite) == 27 and min(finite.values()) >= 40
