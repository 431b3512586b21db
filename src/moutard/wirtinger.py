"""Finite-difference Wirtinger calculus: d/dz, d/dzbar, and the Laplacian.

With z = x + iy the Wirtinger derivatives are

    d_z    = (f_x - i f_y) / 2        d_zbar = (f_x + i f_y) / 2

and the Laplacian factors as 4 * d_zbar(d_z f).  On a ring of M points and
radius r around z, d_z and d_zbar are the +1 and -1 Fourier coefficients of
f over r and the Laplacian is 4 (mean - f(z)) / r^2 (``ring_moments``), with
error ~ (r/R)^M for f holomorphic within R.  ``gradient`` and ``laplacian``
difference the M = 4 ring (a plus-shaped stencil) at h and h/2 with one
Richardson step, O(h^4) for any smooth f.  Step sizes balance truncation
against rounding noise.  First derivatives divide by h, so h near eps**(1/3)
is right; the Laplacian divides by h**2 and needs a larger step and its own
default scale.  Both defaults grow with |z| to keep z + h representable.
``gradient``, ``d_z``, ``d_zbar`` and ``laplacian`` take an optional step h,
used verbatim when given (it must be finite and positive, with (h/2)**k > 0
for a derivative of order k; ValueError otherwise) and left None for the
adaptive default scale * max(1, |z|).  A non-finite z raises NonFinite.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Callable, Sequence

from .errors import NonFinite

ComplexFunc = Callable[[complex], complex]

FIRST_ORDER_STEP_SCALE = 1e-5
LAPLACIAN_STEP_SCALE = 5e-4


def _step(h: float | None, scale: float, z: complex, order: int) -> float:
    """h when given, else the adaptive scale * max(1, |z|); checks both z and h.

    A derivative of this order divides by (h/2)**order, which must not be 0;
    the check caps h/2 at 1 so that a large h does not overflow it.
    """
    if not cmath.isfinite(z):
        raise NonFinite(f"stencil centre must be finite, got {z!r}", point=z)
    if h is None:
        return scale * max(1.0, abs(z))
    if not (math.isfinite(h) and h > 0 and min(h / 2.0, 1.0) ** order > 0):
        raise ValueError(f"stencil step must be finite and positive with (h/2)**{order} > 0, got {h!r}")
    return h


def _sample(f: ComplexFunc, w: complex) -> complex:
    value = complex(f(w))
    if not cmath.isfinite(value):
        raise NonFinite(f"non-finite sample {value!r} at {w!r}", point=w)
    return value


@functools.cache
def _units(m: int) -> tuple[complex, ...]:
    return tuple(cmath.rect(1.0, 2.0 * cmath.pi * k / m) for k in range(m))


def ring(z: complex, radius: float, m: int) -> list[complex]:
    """The m points z + radius e^{2 pi i k / m}, k = 0..m-1."""
    return [z + radius * u for u in _units(m)]


def ring_moments(samples: Sequence[complex], radius: float) -> tuple[complex, complex, complex]:
    """(d_z f, d_zbar f, mean of f) from f at ``ring(z, radius, len(samples))``; ValueError for no samples."""
    m = len(samples)
    if not m:
        raise ValueError("ring moments need at least one sample")
    units = _units(m)
    dz = sum(map(operator.truediv, samples, units)) / (m * radius)
    dzbar = sum(map(operator.mul, samples, units)) / (m * radius)
    mean = sum(samples) / m
    if not all(map(cmath.isfinite, (dz, dzbar, mean))):
        raise NonFinite(f"non-finite ring moments on radius {radius!r}", radius=radius)
    return dz, dzbar, mean


def _cross(f: ComplexFunc, z: complex, s: float) -> tuple[complex, complex, complex]:
    """(d_z f, d_zbar f, sum of the samples) on the 4-point cross at step s."""
    east, west = _sample(f, z + s), _sample(f, z - s)
    north, south = _sample(f, z + 1j * s), _sample(f, z - 1j * s)
    fx, fy = east - west, north - south
    return (fx - 1j * fy) / (4.0 * s), (fx + 1j * fy) / (4.0 * s), east + west + north + south


def gradient(f: ComplexFunc, z: complex, h: float | None = None) -> tuple[complex, complex]:
    """(d_z f, d_zbar f) at z from one cross stencil at h and h/2: 8 samples."""
    s = _step(h, FIRST_ORDER_STEP_SCALE, z, 1)
    (cz, czbar, _), (fz, fzbar, _) = _cross(f, z, s), _cross(f, z, s / 2.0)
    return (4.0 * fz - cz) / 3.0, (4.0 * fzbar - czbar) / 3.0


def d_z(f: ComplexFunc, z: complex, h: float | None = None) -> complex:
    """Central-difference estimate of (f_x - i f_y)/2 at z."""
    return gradient(f, z, h)[0]


def d_zbar(f: ComplexFunc, z: complex, h: float | None = None) -> complex:
    """Central-difference estimate of (f_x + i f_y)/2 at z."""
    return gradient(f, z, h)[1]


def laplacian(f: ComplexFunc, z: complex, h: float | None = None) -> complex:
    """Five-point estimate of f_xx + f_yy at z; agrees with 4 * d_zbar(d_z f)."""
    s = _step(h, LAPLACIAN_STEP_SCALE, z, 2)
    centre = 4.0 * _sample(f, z)
    coarse, fine = ((_cross(f, z, r)[2] - centre) / (r * r) for r in (s, s / 2.0))
    return (4.0 * fine - coarse) / 3.0
