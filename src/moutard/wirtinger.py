"""Finite-difference Wirtinger calculus: d/dz, d/dzbar, and the Laplacian.

With z = x + iy the Wirtinger derivatives are

    d_z    = (f_x - i f_y) / 2        d_zbar = (f_x + i f_y) / 2

and the Laplacian factors as 4 * d_zbar(d_z f).  On a ring of M points and
radius r around z, ``ring_moments`` returns the pair (d_z f, d_zbar f), the
+1 and -1 Fourier coefficients of f over r; the Laplacian is 4 (mean - f(z))
/ r^2 from the ring mean, which transform's harmonicity check forms itself.
What the verification rings differentiate is
holomorphic within 8r (transform.RING_POINTS), so the truncation error is
C 8^-M, with a C that grows with the generator's degree: two degree-10
generators read 5.1e-9 and 1.6e-9 at M = 24, and 3.1e-6 and 1.1e-6 on rings
twice as wide.
No package code calls, or re-exports, the generic stencil: ``gradient`` and
``laplacian`` difference the M = 4 ring (a plus-shaped stencil) at s and s/2
with one Richardson step, O(s^4) for any smooth f; the step s balances
truncation against rounding noise.  First derivatives divide by s, so s near
eps**(1/3) is right; the Laplacian divides by s**2 and needs a larger step.
Each takes its step as its module scale times max(1, |z|), which keeps z + s
representable: FIRST_ORDER_STEP_SCALE for ``gradient``, ``d_z`` and ``d_zbar``,
LAPLACIAN_STEP_SCALE for ``laplacian``, both read at call time.  A non-finite z,
sample or estimate raises NonFinite.
"""

from __future__ import annotations

import cmath
import operator

from .cpoly import _modulus_or_inf
from .errors import NonFinite

ComplexFunc = "Callable[[complex], complex]"  # read only in annotations, which stay unevaluated

FIRST_ORDER_STEP_SCALE = 1e-5
LAPLACIAN_STEP_SCALE = 5e-4


def _step(scale: float, z: complex) -> float:
    """The stencil step scale * max(1, |z|) at a finite centre z."""
    if not cmath.isfinite(z):
        raise NonFinite(f"stencil centre must be finite, got {z!r}", point=z)
    return scale * max(1.0, _modulus_or_inf(z))


def _sample(f: ComplexFunc, w: complex) -> complex:
    value = complex(f(w))
    if not cmath.isfinite(value):
        raise NonFinite(f"non-finite sample {value!r} at {w!r}", point=w)
    return value


class _Units(dict):
    """The m-th roots of unity e^{2 pi i k / m}, k = 0..m-1, by m: formed on the first lookup of m, then kept."""

    def __missing__(self, m: int) -> tuple[complex, ...]:
        units = self[m] = tuple(cmath.rect(1.0, 2.0 * cmath.pi * k / m) for k in range(m))
        return units


_units = _Units()


def ring(z: complex, radius: float, m: int) -> list[complex]:
    """The m points z + radius e^{2 pi i k / m}, k = 0..m-1, each finite; NonFinite where one could overflow."""
    if not cmath.isfinite(complex(abs(z.real) + abs(radius), abs(z.imag) + abs(radius))):  # bounds every point's parts
        raise NonFinite(f"the ring of radius {radius!r} around {z!r} leaves the float range", point=z, radius=radius)
    return [z + radius * u for u in _units[m]]


def ring_moments(samples: Sequence[complex], radius: float) -> tuple[complex, complex]:
    """(d_z f, d_zbar f) from f at ``ring(z, radius, len(samples))``; ValueError for no samples or radius 0."""
    m = len(samples)
    if not (m and radius):
        raise ValueError(f"ring moments need at least one sample and a nonzero radius, got {m} and {radius!r}")
    units = _units[m]
    dz = sum(map(operator.truediv, samples, units)) / (m * radius)
    dzbar = sum(map(operator.mul, samples, units)) / (m * radius)
    if not (cmath.isfinite(dz) and cmath.isfinite(dzbar)):
        raise NonFinite(f"non-finite ring moments on radius {radius!r}", radius=radius)
    return dz, dzbar


def _cross(f: ComplexFunc, z: complex, s: float) -> tuple[complex, complex, complex]:
    """(d_z f, d_zbar f, sum of the samples) on the 4-point cross at step s."""
    east, west = _sample(f, z + s), _sample(f, z - s)
    north, south = _sample(f, z + 1j * s), _sample(f, z - 1j * s)
    fx, fy = east - west, north - south
    return (fx - 1j * fy) / (4.0 * s), (fx + 1j * fy) / (4.0 * s), east + west + north + south


def gradient(f: ComplexFunc, z: complex) -> tuple[complex, complex]:
    """(d_z f, d_zbar f) at z from one cross stencil at s and s/2: 8 samples."""
    s = _step(FIRST_ORDER_STEP_SCALE, z)
    (cz, czbar, _), (fz, fzbar, _) = _cross(f, z, s), _cross(f, z, s / 2.0)
    dz, dzbar = (4.0 * fz - cz) / 3.0, (4.0 * fzbar - czbar) / 3.0
    if not (cmath.isfinite(dz) and cmath.isfinite(dzbar)):
        raise NonFinite(f"the stencil estimate at {z!r} is not finite", point=z)
    return dz, dzbar


def d_z(f: ComplexFunc, z: complex) -> complex:
    """Central-difference estimate of (f_x - i f_y)/2 at z."""
    return gradient(f, z)[0]


def d_zbar(f: ComplexFunc, z: complex) -> complex:
    """Central-difference estimate of (f_x + i f_y)/2 at z."""
    return gradient(f, z)[1]


def laplacian(f: ComplexFunc, z: complex) -> complex:
    """Five-point estimate of f_xx + f_yy at z, at s and s/2 (9 samples); agrees with 4 * d_zbar(d_z f)."""
    s = _step(LAPLACIAN_STEP_SCALE, z)
    centre = 4.0 * _sample(f, z)
    coarse, fine = ((_cross(f, z, r)[2] - centre) / (r * r) for r in (s, s / 2.0))
    lap = (4.0 * fine - coarse) / 3.0
    if not cmath.isfinite(lap):
        raise NonFinite(f"the stencil estimate at {z!r} is not finite", point=z)
    return lap
