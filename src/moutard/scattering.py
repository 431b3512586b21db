"""Generalized scattering data of the closed-form eigenfunctions.

Outside its poles the normalized deviation mu(z) = psi(z) e^{-lambda z} - 1
decays like 1/z, and its leading behaviour on a large circle is

    mu(z) ~ a / z  +  e^{lambda_bar z_bar - lambda z} b / z_bar

with coefficients a ("forward" amplitude) and b ("reflected" amplitude).
For a generating polynomial of degree N the expected values are a = -2N/lambda
and b = 0 identically: mu is a rational function of z alone, holomorphic
outside the roots, so nothing multiplies the conjugate-phase mode.

Extraction is a linear least-squares fit of mu against the two basis
functions above, on points equispaced on one circle as :func:`sample_mu`
gives them.  mu also carries higher holomorphic modes 1/z^2, 1/z^3, ...
whose overlap with the wildly oscillatory b-column does not vanish at any
finite sample count (the phase e^{-2i Im(lambda z)} aliases them in); fitted
naively they leak into b at the 1/radius level and mask the reflectionless
property.  The fit therefore includes a few of those modes as nuisance
columns.  On equispaced points they are exactly orthogonal to 1/z and to each
other (discrete Fourier orthogonality), so only the conjugate-phase column is
projected off them, and the 2x2 solve on it and 1/z with the raw data gives
the (a, b) of the full augmented least squares; the reported misfit is still
measured against the plain two-term model.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import mul

from .cpoly import _Record
from .errors import DegenerateDesign, InconsistentData, NonFinite, RadiusTooSmall, ZeroLambda, _complex, _finite
from .transform import FaddeevParams

DEFAULT_RADIUS_FACTOR = 1e4
DEFAULT_SAMPLE_COUNT = 64

# Highest 1/z^j mode projected out as a nuisance column (given enough samples).
MAX_NUISANCE_MODE = 6

MuSamples = list[tuple[complex, complex]]


class ScatteringEstimate(_Record):
    """Fitted scattering data from one circle of eigenfunction samples."""

    __match_args__ = _compared = ("a", "b", "fit_residual", "radius", "samples")

    def __init__(self, a: complex, b: complex, fit_residual: float, radius: float, samples: int) -> None:
        if not fit_residual >= 0:
            raise ValueError(f"fit_residual must be nonnegative, got {fit_residual!r}")
        if samples < 4:
            raise ValueError(f"need at least 4 samples (two complex unknowns), got {samples}")
        vars(self).update(a=a, b=b, fit_residual=fit_residual, radius=radius, samples=samples)


def sample_mu(fp: FaddeevParams, radius: float | None = None, count: int = DEFAULT_SAMPLE_COUNT) -> MuSamples:
    """mu = psi e^{-lambda z} - 1 at `count` equispaced points on |z| = radius.

    Default radius is 1e4 * max(1, max |root|), far enough out that modes
    beyond the fitted ones sit below double-precision resolution.  mu is
    evaluated in closed form, so the huge circle costs nothing in accuracy;
    all points go through one batched evaluation, bitwise as
    :meth:`FaddeevParams.mu` point by point and raising at the first point
    that fails.
    The output is the equispaced input :func:`fit_scattering` requires.
    Raises NonFinite for a nan or inf radius and RadiusTooSmall for a finite
    one that does not exceed twice the largest root magnitude or is subnormal.
    """
    if count < 8:
        raise ValueError(f"need at least 8 circle samples, got {count}")
    max_root = max((abs(r) for r in fp.roots), default=0.0)
    if radius is None:
        radius = DEFAULT_RADIUS_FACTOR * max(1.0, max_root)
    _finite(radius, "sampling radius must be finite, got {radius!r}", radius=radius)
    if not radius > 2.0 * max_root:
        raise RadiusTooSmall(
            f"sampling radius {radius!r} must exceed twice the largest root magnitude {max_root!r}",
            radius=radius,
            max_root=max_root,
        )
    if radius < sys.float_info.min:  # too few bits to space the points equally
        raise RadiusTooSmall(f"sampling radius {radius!r} is subnormal", radius=radius, max_root=max_root)
    zs = [cmath.rect(radius, 2.0 * math.pi * j / count) for j in range(count)]
    return list(zip(zs, fp._evaluate(zs, with_psi=False)[1]))


def _left_sum(values: Iterable[float]) -> float:
    """values added left to right from 0.0; the builtin ``sum`` compensates float sums from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def _dot(x: Sequence[complex], y: Sequence[complex]) -> complex:
    """sum of conj(x_i) * y_i by the builtin ``sum``, the fit's one inner product; the products are formed in C."""
    return sum(map(mul, map(complex.conjugate, x), y))


def fit_scattering(samples: Sequence[tuple[complex, complex]], lam: complex) -> ScatteringEstimate:
    """Least-squares (a, b) from (z, mu) pairs equispaced on one circle.

    Solves min over (a, b) of sum |mu - a/z - b e^{lambda_bar z_bar - lambda z}/z_bar|^2
    with nuisance modes 1/z^2 .. 1/z^6 (as many as n // 4 allows) in the
    model; only the conjugate-phase column is projected off them, which is
    exact on equispaced points (module docstring).  Any order and rotation
    will do, but each |z| must lie within 1e-12 of the mean in ratio and each
    sorted angle within 1e-12 rad of the equispaced grid through the first,
    else ValueError; within that the neglected overlaps stay at rounding level.
    The samples are sorted first, so the result does not depend on input
    order.  NonFinite for a non-finite lambda, for the first non-finite
    (z, mu) sample in input order, and where the conjugate phase
    2 Im(lambda z) or the misfit itself overflows; a misfit whose squares or
    their sum pass the float range is summed on scaled residuals.  The fit
    runs on z / s, s a power of two near |z|, so nothing overflows with the
    radius and the result is bit for bit that of the fit on z.
    """
    lam = _complex(lam)
    if lam == 0:
        raise ZeroLambda("scattering data is defined for nonzero lambda")
    _finite(lam, "the spectral parameter lambda must be finite", lam=lam)
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    pairs = [(_complex(z), _complex(mu)) for z, mu in samples]
    ordered = sorted(pairs, key=lambda t: (t[0].real, t[0].imag))
    zs = [z for z, _ in ordered]
    data = [mu for _, mu in ordered]
    if not (all(map(cmath.isfinite, zs)) and all(map(cmath.isfinite, data))):
        z, mu = next(t for t in pairs if not (cmath.isfinite(t[0]) and cmath.isfinite(t[1])))
        raise NonFinite(f"the sample (z, mu) = ({z!r}, {mu!r}) is not finite", point=z, mu=mu)
    n = len(zs)
    # The fit runs on w = z / s, s a power of two with |w| near 1, so its sums stay in range at any radius;
    # a power of two scales exactly, so a, b, the misfit and the radius are those of the fit on z.
    s = math.ldexp(1.0, math.frexp(max(abs(zs[0].real), abs(zs[0].imag)))[1] - 1)
    ws = [z / s for z in zs]
    moduli = list(map(abs, ws))
    radius = _left_sum(moduli) / n
    angles = sorted([math.atan2(z.imag, z.real) for z in zs])
    tol, turn, first = 1e-12 * radius, 2.0 * math.pi, angles[0]
    if any([abs(m - radius) > tol for m in moduli]) or any(
        [abs(t - first - turn * j / n) > 1e-12 for j, t in enumerate(angles)]
    ):
        raise ValueError("samples must be equispaced on a common circle of positive radius")

    phases = [-2.0 * (lam * z).imag for z in zs]
    if not all(map(math.isfinite, phases)):
        z = zs[[math.isfinite(p) for p in phases].index(False)]
        raise NonFinite(f"the conjugate phase 2 Im(lambda z) overflows at {z!r}", point=z, lam=lam)
    # The columns s/z and s e^{lambda_bar z_bar - lambda z}/z_bar of a/s and b/s; the nuisance modes are (s/z)^k.
    u = [1.0 / w for w in ws]
    v = [cmath.exp(complex(0.0, p)) / w.conjugate() for p, w in zip(phases, ws)]
    pv = v
    for mode in range(2, min(MAX_NUISANCE_MODE, n // 4) + 1):
        q = [x**mode for x in u]
        coef = _dot(q, pv) / _dot(q, q)
        pv = [vi - coef * qi for vi, qi in zip(pv, q)]

    guu = _dot(u, u).real
    gvv = _dot(pv, pv).real
    guv = _dot(u, pv)
    det = guu * gvv - (guv * guv.conjugate()).real
    if det <= 1e-20 * guu * gvv or guu == 0 or gvv == 0:
        raise DegenerateDesign(
            "the 1/z and conjugate-phase columns are numerically collinear; "
            "change lambda, the radius, or the sample count",
            collinearity=abs(guv) / math.sqrt(guu * gvv) if guu > 0 and gvv > 0 else math.inf,
        )
    bu = _dot(u, data)
    bv = _dot(pv, data)
    a = (gvv * bu - guv * bv) / det
    b = (guu * bv - guv.conjugate() * bu) / det

    try:
        misfit = math.sqrt(_left_sum([abs(m - a * ui - b * vi) ** 2 for m, ui, vi in zip(data, u, v)]) / n)
    except OverflowError:
        misfit = math.inf
    if misfit == math.inf:
        # A square or their sum passed the float range: unless a residual did too, sum again
        # on residuals divided by a power of two near the largest.
        res = [m - a * ui - b * vi for m, ui, vi in zip(data, u, v)]
        if all(map(cmath.isfinite, res)):
            t = math.ldexp(1.0, math.frexp(max(max(abs(r.real), abs(r.imag)) for r in res))[1] - 1)
            misfit = t * math.sqrt(_left_sum(abs(r / t) ** 2 for r in res) / n)
    a, b, radius = a * s, b * s, radius * s
    if not (math.isfinite(misfit) and cmath.isfinite(a) and cmath.isfinite(b)):
        raise NonFinite(f"the fit misfit or amplitudes overflow at lambda = {lam!r} on radius {radius!r}",
                        lam=lam, radius=radius)
    return ScatteringEstimate(a=a, b=b, fit_residual=misfit, radius=radius, samples=n)


def expected_a(n: int, lam: complex) -> complex:
    """Predicted forward amplitude -2n/lambda for a degree-n generator."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    lam = _complex(lam)
    if lam == 0:
        raise ZeroLambda("expected_a requires nonzero lambda")
    a = -2.0 * n / lam
    if not (cmath.isfinite(lam) and cmath.isfinite(a)):
        raise NonFinite(f"expected_a requires finite lambda and -2n/lambda, got lambda = {lam!r}", lam=lam)
    return a


def count_deltas(a: complex, lam: complex) -> int:
    """Number of point masses recovered from a fitted forward amplitude.

    Inverts a = -2N/lambda; InconsistentData when -lambda*a/2 is not finite
    or not within 0.1 of a nonnegative integer (the input cannot then come
    from a monic polynomial generator).
    """
    lam = _complex(lam)
    if lam == 0:
        raise ZeroLambda("count_deltas requires nonzero lambda")
    w = -lam * _complex(a) / 2.0
    if not cmath.isfinite(w):
        raise InconsistentData(f"-lambda*a/2 = {w!r} is not finite", value=w)
    n = round(w.real)
    if abs(w.imag) > 0.1 or abs(w.real - n) > 0.1 or n < 0:
        raise InconsistentData(
            f"-lambda*a/2 = {w!r} is not within 0.1 of a nonnegative integer",
            value=w,
        )
    return int(n)
