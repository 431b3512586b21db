"""Speed calibration against a fixed pure-Python kernel.

On a shared host the speed of pure-Python code drifts by up to ~35 % over
seconds to minutes, as neighbours load the machine.  Timed over a 10 s run
that drift alone moved ops_per_s by 16 % (interquartile range over five
seeds).  Each timing is therefore scaled by REF_S / k, where k is the best of
three runs of the kernel below, timed right next to the timed work; a time so
scaled reads as the time at the reference speed, at which the kernel takes
REF_S.

The kernel does the kinds of work moutard does: complex Horner evaluation
through a function call (roots, mu), building and sorting small containers,
and Fraction arithmetic on growing integers (the exact certificate).  A
Horner-only kernel tracked the drift less well: over six minutes of fixed
scatter, verify and certify operations, the range of their 20 s window
medians after scaling was 8-10 % with it and 6-7 % with this one, against
10-16 % unscaled.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's typical time on the reference machine (2 vCPUs, Python 3.11).
REF_S = 160e-6

_COEFFS = tuple(complex(0.3 * k, 1.0 - 0.2 * k) for k in range(9))
_POINTS = tuple(complex(0.01 * k, 0.02 * k) for k in range(40))


def _horner(coeffs: tuple[complex, ...], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _kernel() -> Fraction:
    values = [_horner(_COEFFS, z) for z in _POINTS]
    sorted({k: abs(v) for k, v in enumerate(values)}.values())
    q = Fraction(1, 3)
    for k in range(12):
        q = q * Fraction(k + 2, k + 1) + Fraction(1, 7 + k)
    return q


def scale() -> float:
    """Factor turning a time measured now into a time at the reference speed."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return REF_S / best
