"""Finite-difference Wirtinger calculus: d/dz, d/dzbar, and the Laplacian.

With z = x + iy the Wirtinger derivatives are

    d_z    = (f_x - i f_y) / 2        d_zbar = (f_x + i f_y) / 2

and the Laplacian factors as 4 * d_zbar(d_z f).  All three are estimated from
central differences on a plus-shaped stencil, sharpened to O(h^4) by one
Richardson extrapolation step (h and h/2).  The two first derivatives
share their samples: ``gradient`` returns both from one stencil.

Step sizes balance truncation against rounding noise.  First derivatives
divide by h, so h near eps**(1/3) is right; the Laplacian divides by h**2 and
needs a visibly larger step, so it gets its own default scale.  Both defaults
grow with |z| to keep z + h representable relative to z.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

from .errors import NonFinite

ComplexFunc = Callable[[complex], complex]

FIRST_ORDER_STEP_SCALE = 1e-5
LAPLACIAN_STEP_SCALE = 5e-4


@dataclass(frozen=True)
class StencilConfig:
    """Stencil step.

    ``h`` is the literal step when given; leave it None for the adaptive
    default (scale * max(1, |z|), with the scale chosen per operation as
    described in the module docstring).
    """

    h: float | None = None

    def __post_init__(self) -> None:
        if self.h is not None and not self.h > 0:
            raise ValueError(f"stencil step must be positive, got {self.h!r}")

    def first_order_step(self, z: complex) -> float:
        return self.h if self.h is not None else FIRST_ORDER_STEP_SCALE * max(1.0, abs(z))

    def laplacian_step(self, z: complex) -> float:
        return self.h if self.h is not None else LAPLACIAN_STEP_SCALE * max(1.0, abs(z))


DEFAULT_STENCIL = StencilConfig()


def _sample(f: ComplexFunc, w: complex) -> complex:
    value = complex(f(w))
    if not cmath.isfinite(value):
        raise NonFinite(f"non-finite sample {value!r} at {w!r}", point=w)
    return value


def _gradient_once(f: ComplexFunc, z: complex, s: float) -> tuple[complex, complex]:
    fx = _sample(f, z + s) - _sample(f, z - s)
    fy = _sample(f, z + 1j * s) - _sample(f, z - 1j * s)
    return (fx - 1j * fy) / (4.0 * s), (fx + 1j * fy) / (4.0 * s)


def _laplacian_once(f: ComplexFunc, z: complex, s: float) -> tuple[complex]:
    ring = (
        _sample(f, z + s)
        + _sample(f, z - s)
        + _sample(f, z + 1j * s)
        + _sample(f, z - 1j * s)
    )
    return ((ring - 4.0 * _sample(f, z)) / (s * s),)


def _extrapolate(once, f: ComplexFunc, z: complex, s: float) -> tuple[complex, ...]:
    coarse = once(f, z, s)
    fine = once(f, z, s / 2.0)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(coarse, fine))


def gradient(
    f: ComplexFunc, z: complex, cfg: StencilConfig = DEFAULT_STENCIL
) -> tuple[complex, complex]:
    """(d_z f, d_zbar f) at z from one cross stencil at h and h/2: 8 samples."""
    return _extrapolate(_gradient_once, f, z, cfg.first_order_step(z))


def d_z(f: ComplexFunc, z: complex, cfg: StencilConfig = DEFAULT_STENCIL) -> complex:
    """Central-difference estimate of (f_x - i f_y)/2 at z."""
    return gradient(f, z, cfg)[0]


def d_zbar(f: ComplexFunc, z: complex, cfg: StencilConfig = DEFAULT_STENCIL) -> complex:
    """Central-difference estimate of (f_x + i f_y)/2 at z."""
    return gradient(f, z, cfg)[1]


def laplacian(f: ComplexFunc, z: complex, cfg: StencilConfig = DEFAULT_STENCIL) -> complex:
    """Five-point estimate of f_xx + f_yy at z; agrees with 4 * d_zbar(d_z f)."""
    return _extrapolate(_laplacian_once, f, z, cfg.laplacian_step(z))[0]
