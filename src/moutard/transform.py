"""Moutard transforms of the 2D Schrodinger operator H = -4 d_zbar d_z + U.

Given a positive solution w of Hw = 0, the Moutard transform produces a new
operator with potential

    U~ = U - 8 d_zbar d_z log w = U - 2 * laplacian(log w)

and maps solutions theta of the original operator to solutions of the new one
through the first-order system

    (w theta)_z    = -i w^2 (phi / w)_z
    (w theta)_zbar = +i w^2 (phi / w)_zbar

where phi solves H phi = 0; theta is determined modulo c / w (the integration
constant of the system).  The system is linear, so under theta -> theta + c / w
its residual changes by the residual of the mode theta = c / w, phi = 0 alone.

This module covers the degenerate polynomial case: with U = 0 and w = P(z) a
monic polynomial with roots z_k, the transform formally concentrates the new
potential into point masses of weight -8*pi at the roots, and the zero-energy
eigenfunction with Faddeev normalization e^{lambda z}(1 + o(1)) has the closed
form

    psi = e^{lambda z} (1 + (2 / P) sum_{k=1..N} (-1)^k P^(k)(z) / lambda^k).

Writing P psi = e^{lambda z} Q with Q = P + 2 sum_k (-1)^k P^(k) / lambda^k,
the first equation of the system with phi = i e^{lambda z} reduces to the
polynomial identity

    Q' + lambda Q = lambda P - P'

which telescopes exactly, for any coefficients; the second equation holds
because Q is holomorphic.  ``verify_eigenfunction_identity`` checks that
identity in exact Gaussian-integer arithmetic, so its residual is a true certificate
(0.0 means the identity holds exactly for the given inputs, not merely to
rounding).

For a single center (w = z, root at the origin) the eigenfunction carries a
non-integrable 1/z pole, and pairing it with the delta potential requires a
formal bookkeeping convention: the product is assigned the distributional
term 2 pi e^{lambda z} delta(z) / z.  That convention is a statement about
distributions, not an algorithm; it is recorded here for orientation only
and has no executable counterpart.  Delta potentials accordingly stay
symbolic throughout: centers plus the common weight, never grid samples.
"""

from __future__ import annotations

import cmath
import math
from operator import mul

from . import cpoly
from .errors import InsufficientRoots, NearPole, NonFinite, ZeroLambda, _complex, _finite
from .wirtinger import ComplexFunc, ring, ring_moments

POLE_GUARD = 1e-8

# Ring points M per checked point.  What the checks differentiate is holomorphic
# within 8 rho (_ring_radius), but the nearest root may lie on that circle and r1
# multiplies (phi / P)_z by P(z)^2, so the truncation error is C 8^-M with a C
# that grows with degree: two degree-10 generators read 5.1e-9 and 1.6e-9, and
# 3.1e-6 and 1.1e-6 at twice the radius.
RING_POINTS = 24

# Points of residual_sample_points, each at least SAMPLE_MIN_DIST from every root.
SAMPLE_COUNT = 25
SAMPLE_MIN_DIST = 1.5

# Gauge constants c of theta -> theta + c / omega probed by residual_checks.
GAUGE_SHIFTS = (1.0, 1e3)


class DeltaPotential(cpoly._Record):
    """Symbolic multi-point delta potential: centers with common weight -8*pi.

    ``weight`` is a class constant, not a field; NonFinite names the first centre that is not finite.
    """

    centers: tuple[complex, ...]
    weight = -8.0 * math.pi
    __match_args__ = _compared = ("centers",)

    def __init__(self, centers: Iterable[complex]) -> None:
        centers = tuple([_complex(c) for c in centers])
        for c in centers:
            _finite(c, "delta centres must be finite, got {center!r}", center=c)
        object.__setattr__(self, "centers", centers)


class FaddeevParams(cpoly._Record):
    """Generating polynomial P and finite spectral parameter lambda != 0.

    Construction reads P's memoized ``derivatives`` (NonFinite where a
    derivative of P overflows) and ``root_set`` (for pole guarding), and
    forms the pole-guard threshold, so every lambda on one P shares one
    derivative chain and one solve.  The coefficients of
    T = sum_{k=1..N} (-1)^k P^(k) / lambda^k, which make mu = 2 T / P one
    Horner pass, are formed on the first evaluation and then kept; the exact
    certificate never reads them.  Instances are immutable afterwards, so
    they are safe to share across threads.  ZeroLambda for lambda = 0,
    NonFinite for a lambda that is not finite or whose modulus overflows.
    """

    __match_args__ = _compared = ("p", "lam")

    def __init__(self, p: cpoly.ComplexPoly, lam: complex) -> None:
        vars(self).update(p=p, lam=lam)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The step of ``__init__`` after the fields are set: check ``lam``, read P's memos, form the pole guard."""
        lam = _complex(self.lam)
        if lam == 0:
            raise ZeroLambda("the spectral parameter lambda must be nonzero")
        _finite(lam, "the spectral parameter lambda must be finite, got {lam!r}", lam=lam)
        _finite(math.hypot(lam.real, lam.imag), "the modulus of lambda = {lam!r} overflows", lam=lam)
        object.__setattr__(self, "lam", lam)
        self.p.derivatives  # NonFinite here, at construction, where a derivative overflows
        threshold = POLE_GUARD * math.prod(1.0 + abs(r) for r in self.roots)
        object.__setattr__(self, "_pole_threshold", threshold)

    @cpoly._memo
    def _t(self) -> tuple[complex, ...]:
        """T's coefficients by Horner in 1/lambda over P's kept derivative chain, highest order first."""
        derivs, lam = self.p.derivatives, self.lam
        t: list[complex] = []
        for k in range(len(derivs), 0, -1):
            if k % 2:
                t = [(a - c) / lam for a, c in zip(t + [0j], derivs[k - 1])]
            else:
                t = [(a + c) / lam for a, c in zip(t + [0j], derivs[k - 1])]
        return tuple(t)

    @property
    def roots(self) -> tuple[complex, ...]:
        return self.p.root_set.roots

    def nearest_root(self, z: complex) -> complex:
        """The root of P nearest to z; InsufficientRoots where P has none."""
        if not self.roots:
            raise InsufficientRoots("a generator of degree 0 has no root nearest to a point")
        return min(self.roots, key=lambda r: cpoly._modulus_or_inf(z - r))

    def mu(self, z: complex) -> complex:
        """Deviation from the plane wave: psi * e^{-lambda z} - 1.

        Evaluated in closed form as 2 T(z) / P(z) with the kept
        T = sum_k (-1)^k P^(k) / lambda^k, so it stays finite on large circles
        where e^{lambda z} overflows; NearPole where |P(z)| is below the pole
        guard, NonFinite where z or 2 T / P is not finite.
        """
        return self._evaluate([z], with_psi=False)[1][0]

    def psi(self, z: complex) -> complex:
        """Eigenfunction value e^{lambda z} (1 + mu(z)).

        NonFinite for a non-finite z, as :meth:`mu`, and where psi overflows,
        as for strongly positive Re(lambda z); use :meth:`mu` when only the
        normalized deviation is needed.
        """
        return self._evaluate([z])[3][0]

    def _evaluate(self, points: list[complex], with_psi: bool = True) -> tuple[list[complex], ...]:
        """(P, mu, e^{lambda w}, psi) at every point w; the last two stay empty unless ``with_psi``.

        P and T take one list Horner pass each, bitwise as ``cpoly.horner``.
        The points are then checked in order, each as :meth:`psi` (or, without
        ``with_psi``, :meth:`mu`) checks it: a finite point, the pole guard
        (a |P(w)| beyond the float range is no pole), a finite mu, a finite
        psi (an overflowing e^{lambda w} counts as psi overflowing), so an
        error names the first point that fails.  At degree 0, T is empty and P
        is 1, so mu is 0j and the pole guard never fires.
        """
        lam, threshold = self.lam, self._pole_threshold
        ps = cpoly._horner_list(self.p.coeffs, points)
        mus, es, psis = [], [], []
        for z, pz, tz in zip(points, ps, cpoly._horner_list(self._t, points)):
            if not cmath.isfinite(z):
                raise NonFinite(f"the evaluation point {z!r} is not finite", point=z, lam=lam)
            # the parts first: abs(pz) raises OverflowError where |P(z)| leaves the float range
            if abs(pz.real) < threshold and abs(pz.imag) < threshold and abs(pz) < threshold:
                raise NearPole(z, self.nearest_root(z))
            mu = 2.0 * tz / pz
            if not cmath.isfinite(mu):
                raise NonFinite(f"mu = 2 T / P is not finite at {z!r}", point=z, lam=lam)
            mus.append(mu)
            if with_psi:
                try:
                    e = cmath.exp(lam * z)
                    value = e * (1.0 + mu)
                except (OverflowError, ValueError):
                    value = math.inf
                if not cmath.isfinite(value):
                    raise NonFinite(f"psi overflows at {z!r} for lambda = {lam!r}", point=z, lam=lam)
                es.append(e)
                psis.append(value)
        return ps, mus, es, psis


def transformed_potential(p: cpoly.ComplexPoly) -> DeltaPotential:
    """Delta potential generated by P: one -8*pi center per root.

    Degree 0 yields the empty potential.  The roots are P's memoized
    ``root_set``; root-finder NonConvergence propagates.
    """
    return DeltaPotential(p.root_set.roots)


def _residual(z: complex, om0: complex, product: list, quotient: list, radius: float) -> tuple[complex, complex]:
    """(r1, r2) from omega(z) and omega theta and phi / omega on ``ring(z, radius, RING_POINTS)``; NonFinite if not finite."""
    (pz, pzbar), (qz, qzbar) = ring_moments(product, radius), ring_moments(quotient, radius)
    square = om0 * om0  # om0**2 raises OverflowError where this gives inf
    r1, r2 = pz + 1j * square * qz, pzbar - 1j * square * qzbar
    if not (cmath.isfinite(r1) and cmath.isfinite(r2)):
        raise NonFinite(f"Moutard residual is not finite at {z!r}", point=z)
    return r1, r2


def moutard_residual(
    omega: ComplexFunc, phi: ComplexFunc, theta: ComplexFunc, z: complex, radius: float
) -> tuple[complex, complex]:
    """Residuals of the two Moutard equations for an arbitrary triple.

    Returns (r1, r2) with

        r1 = (w theta)_z    + i w(z)^2 (phi / w)_z
        r2 = (w theta)_zbar - i w(z)^2 (phi / w)_zbar

    read from one ring of ``RING_POINTS`` samples at ``radius`` around z;
    (0, 0) certifies the triple.  NonFinite for a non-finite z, where
    omega vanishes on the ring and where r1 or r2 is not finite; ValueError
    unless the radius is finite and positive.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"ring radius must be finite and positive, got {radius!r}")
    _finite(z, "ring centre must be finite, got {point!r}", point=z)
    points = ring(z, radius, RING_POINTS)
    om = [complex(omega(w)) for w in points]
    if 0 in om:
        raise NonFinite(f"omega vanishes on the ring around {z!r}", point=z)
    thetas, phis = [complex(theta(w)) for w in points], [complex(phi(w)) for w in points]
    product, quotient = list(map(mul, om, thetas)), [f / o for o, f in zip(om, phis)]
    return _residual(z, complex(omega(z)), product, quotient, radius)


def residual_sample_points(roots: tuple[complex, ...] | list[complex], lam: complex) -> list[complex]:
    """``SAMPLE_COUNT`` deterministic well-conditioned points for residual checks.

    Walks rings of growing radius around the root centroid and keeps points
    that (a) stay at least ``SAMPLE_MIN_DIST`` from every root, so the check
    rings stay wide, and (b) satisfy Re(lambda z) >= -0.3, so quantities
    normalized by |e^{lambda z}| do not amplify rounding noise.  The rings
    have radius rho = 2 + 0.25 j, up to spread + SAMPLE_MIN_DIST + 3, so the
    outer rings clear every root.  The walk starts one ring inside the first
    whose arc facing lambda is wide enough to hold ``SAMPLE_COUNT`` grid
    points (below 2^51, counting the grid's offset from conj(lambda)), and stops
    once rho + 0.25 rounds back to rho.

    NonFinite where no ring of the walk can face lambda (a centroid far
    behind lambda), and where none holds ``SAMPLE_COUNT`` points facing it;
    NearPole where every candidate rounds back onto a root (roots near
    1e200), naming the last candidate and its nearest root; NonFinite for a
    non-finite root or lambda, and where the centroid or the rings around it
    leave the float range.
    """
    roots = tuple([_complex(r) for r in roots])
    lam = _complex(lam)
    for v in (*roots, lam):
        _finite(v, "sample points need finite roots and lambda, got {value!r}", value=v)
    center = sum(roots) / len(roots) if roots else 0j
    spread = max((cpoly._modulus_or_inf(r - center) for r in roots), default=0.0)
    grid = 8 * SAMPLE_COUNT
    first, limit = SAMPLE_MIN_DIST + 0.5, spread + SAMPLE_MIN_DIST + 3.0
    # Every ring index, candidate and distance of the walk stays below 4 limit + |center|.
    _finite(4.0 * limit + math.hypot(center.real, center.imag),
            "the sample rings around the centroid {center!r} leave the float range", center=center, spread=spread)
    # A candidate at angle phi from the direction of conj(lambda) has Re(lambda z) >= -0.3
    # iff cos(phi) >= facing / rho, and a ring returns only if that arc holds
    # SAMPLE_COUNT grid points, i.e. spans SAMPLE_COUNT - 1 grid steps.  hypot gives
    # inf, not OverflowError, where |lambda| leaves the float range.
    facing = (-0.3 - (lam * center).real) / math.hypot(lam.real, lam.imag) if lam else -math.inf
    start = facing / math.cos((SAMPLE_COUNT - 1) * math.pi / grid)
    if not start <= limit:  # the first ring that can face lambda lies beyond the walk, or lambda z overflows
        raise NonFinite(f"no sample ring around the centroid {center!r} faces lambda = {lam!r}",
                        center=center, lam=lam)
    j = math.ceil((start - first) / 0.25) - 1 if start > first else 0  # one ring early, for the rounding of lambda z
    # The grid sits offset rad off conj(lambda), so a ring holds SAMPLE_COUNT facing points only from
    # facing / cos((SAMPLE_COUNT - 1) pi / grid + offset) on.  Where the walk would start below 2^51, where rings
    # are exactly 0.25 apart, start one ring before that (or before 2^51, where the walk ends), or at the last ring
    # where that lies past the limit: the rings skipped are empty.
    offset = abs(math.remainder(2.0 * math.pi * 0.381966 / grid + math.atan2(lam.imag, lam.real), 2.0 * math.pi / grid))
    exact = facing / math.cos((SAMPLE_COUNT - 1) * math.pi / grid + offset)
    if first < exact and start < 2.0**51:
        top = min(exact, 2.0**51)
        j = math.ceil((top - first) / 0.25) - 1 if top <= limit else math.floor((limit - first) / 0.25)
    while (rho := first + 0.25 * j) <= limit:
        chosen: list[complex] = []
        for k in range(grid):
            z = center + cmath.rect(rho, 2.0 * math.pi * (k + 0.381966) / grid)
            if roots and min(abs(z - r) for r in roots) < SAMPLE_MIN_DIST or (lam * z).real < -0.3:
                continue
            chosen.append(z)
            if len(chosen) == SAMPLE_COUNT:
                return chosen
        if rho + 0.25 == rho:
            break
        j += 1
    nearest = min(roots, key=lambda r: abs(z - r))
    if abs(z - nearest) < SAMPLE_MIN_DIST:
        raise NearPole(z, nearest)
    raise NonFinite(f"no sample ring around the centroid {center!r} has {SAMPLE_COUNT} points facing lambda = {lam!r}",
                    center=center, lam=lam)


def _ring_radius(fp: FaddeevParams, z: complex) -> float:
    """min(d/2, 1/|lambda|) / 4, d = distance to the nearest root; NearPole if d < 1e-3."""
    d = min((cpoly._modulus_or_inf(z - r) for r in fp.roots), default=math.inf)
    if d < 1e-3:
        raise NearPole(z, fp.nearest_root(z))
    return 0.25 * min(0.5 * d, 1.0 / abs(fp.lam))


def _ring_samples(fp: FaddeevParams, points: list[complex]) -> tuple[list[float], list, list, list]:
    """(rhos, P, e^{lambda w}, psi): the ring radius rho of each point z, then the three sample lists.

    Each list holds ``RING_POINTS + 1`` samples per point, in point order: at
    w = z, then on ``ring(z, rho, RING_POINTS)``.  The samples of all points
    go through one :meth:`FaddeevParams._evaluate`.
    """
    rhos = [_ring_radius(fp, z) for z in points]
    om, _, es, psi = fp._evaluate([w for z, rho in zip(points, rhos) for w in (z, *ring(z, rho, RING_POINTS))])
    return rhos, om, es, psi


def _scale(lam: complex, z: complex) -> float:
    """e^{Re(lambda z)}, which normalizes every ring check at z; NonFinite where it underflows to 0."""
    scale = math.exp((lam * z).real)
    if scale == 0.0:
        raise NonFinite(f"e^Re(lambda z) underflows at {z!r} for lambda = {lam!r}", point=z, lam=lam)
    return scale


def _harmonicity(lam: complex, scale: float, radius: float, centre: complex, samples: list[complex]) -> float:
    """|laplacian psi| = 4 |mean - psi(z)| / radius^2 from psi on the ring, over scale (1 + |lambda|^2).

    ``scale`` is :func:`_scale` at z.  NonFinite where |lambda|^2 overflows,
    and where the ring mean of psi, or the Laplacian read from it, is not
    finite (a mean that is not finite gives a result that is not).
    """
    try:
        norm = scale * (1.0 + abs(lam) ** 2)
    except OverflowError:
        raise NonFinite(f"|lambda|^2 overflows for lambda = {lam!r}", lam=lam) from None
    lap = 4.0 * (sum(samples) / len(samples) - centre) / (radius * radius)
    try:
        harm = abs(lap) / norm
    except OverflowError:  # |lap| leaves the float range
        harm = math.inf
    return _finite(harm, "non-finite ring moments on radius {radius!r}", radius=radius)


def harmonicity_check(fp: FaddeevParams, z: complex) -> float:
    """|laplacian psi| at z, normalized by |e^{lambda z}| (1 + |lambda|^2).

    psi is harmonic wherever the transformed potential vanishes, i.e. away
    from the roots of P; a small value certifies that.  psi is sampled as in
    :func:`residual_checks`; NearPole within 1e-3 of a root, an absolute
    distance as ``SAMPLE_MIN_DIST`` is, at any |z|.
    """
    [rho], _, _, (centre, *psi) = _ring_samples(fp, [z])
    return _harmonicity(fp.lam, _scale(fp.lam, z), rho, centre, psi)


def residual_checks(fp: FaddeevParams) -> tuple[int, float, float, float]:
    """Ring checks of omega = P, phi = i e^{lambda z}, theta = psi.

    Returns (points, residual, gauge, harmonicity): the number of
    :func:`residual_sample_points`, and over them the worst
    :func:`moutard_residual`, the worst gauge change (the residual of the
    mode theta = c / omega, phi = 0: the ring moments of omega (c / omega)
    for c in ``GAUGE_SHIFTS``), both normalized by e^{Re(lambda z)}, and the
    worst :func:`harmonicity_check`.  The samples of all points are
    evaluated in one :func:`_ring_samples` batch, before any check runs; over
    that batch four lists are formed once each, bit for bit as the public
    functions form them: omega psi, phi / omega = i e^{lambda w} / omega, and
    omega (c / omega) for each c.  Each point's checks read its ring's slice
    of them and of psi: two ring moments each for the residual and the two
    gauge modes, and the ring mean of psi.  An error is a ring radius's
    NearPole, else the first sample that fails, in sample order, else the
    first point whose check fails.
    """
    lam = fp.lam
    points = residual_sample_points(fp.roots, lam)
    rhos, om, es, psi = _ring_samples(fp, points)
    product, quotient = list(map(mul, om, psi)), [1j * e / o for o, e in zip(om, es)]
    gauges = [[o * (c / o) for o in om] for c in GAUGE_SHIFTS]
    worst_res = worst_gauge = worst_harm = 0.0
    for z, rho, i in zip(points, rhos, range(0, len(om), RING_POINTS + 1)):
        on_ring = slice(i + 1, i + 1 + RING_POINTS)
        r1, r2 = _residual(z, om[i], product[on_ring], quotient[on_ring], rho)
        scale = _scale(lam, z)
        worst_res = max(worst_res, abs(r1) / scale, abs(r2) / scale)
        for gauge in gauges:
            g1, g2 = ring_moments(gauge[on_ring], rho)
            worst_gauge = max(worst_gauge, abs(g1) / scale, abs(g2) / scale)
        worst_harm = max(worst_harm, _harmonicity(lam, scale, rho, psi[i], psi[on_ring]))
    return len(points), worst_res, worst_gauge, worst_harm


# --- exact certificate -----------------------------------------------------
# Q' + lambda Q = lambda P - P' is T' + lambda T + P' = 0.  Floats are dyadic
# rationals: with one power of two s = 2^e, P~ = s P and l = s lambda are Gaussian
# integers ((re, im) int pairs) and s^{N+2} lambda^N times the identity is
# D = s W' + l W + s l^N P~' = 0, W = sum_k (-s)^k l^{N-k} P~^(k) = s^{N+1} lambda^N T,
# exact in ints; a float assembly's rounding grows like N! |lambda|^-N max|coeff|.
# P's Gaussian integers over its own power of two are kept on P
# (``ComplexPoly._gaussian``), so each lambda only rescales them where its
# denominators are finer.  P~^(k)'s coefficients are (j+k)!/j! P~_{j+k}, so with
# q_m = m! P~_m, j! W_j = l^j U_j for U_j = sum_{m>j} (-s)^{m-j} l^{N-m} q_m, which
# Horner's rule in -s builds as U_N = 0, U_{m-1} = -s (U_m + l^{N-m} q_m).  The one
# division, by j!, is exact, as j! divides every m! with m > j; taken a factor at
# a time it is no division at all: V_j = U_j / j! has V_N = 0,
# V_{m-1} = -s m (V_m + l^{N-m} P~_m) and W_j = l^j V_j.  One power chain
# l^0..l^N serves both, so W costs 3N Gaussian products and D another 2N.  W comes
# from P~, l and s alone, never from D or the float T; in the unknowns V the
# recurrence is D = 0 read from j + 1 down to j, so the tests also compare W with
# the closed form summed another way, by Horner's rule in l over whole derivatives.

_GInt = tuple[int, int]


def _scaled(fp: FaddeevParams) -> tuple[int, _GInt, list[_GInt], list[_GInt], _GInt]:
    """(s, l, P~, W, l^N) for fp; W_j = l^j V_j by Horner's rule in -s, with no division."""
    sp, p = fp.p._gaussian
    (lr, dr), (li, di) = fp.lam.real.as_integer_ratio(), fp.lam.imag.as_integer_ratio()
    s = max(sp, dr, di)  # every denominator is a power of two
    lr, li, f = lr * (s // dr), li * (s // di), s // sp
    p = [(a * f, b * f) for a, b in p]
    n, xs = len(p) - 1, [(1, 0)]  # l^0 .. l^N
    for _ in range(n):
        xr, xi = xs[-1]
        xs.append((xr * lr - xi * li, xr * li + xi * lr))
    w, vr, vi = [], 0, 0
    for m in range(n, 0, -1):  # V_{m-1} = -s m (V_m + l^{N-m} P~_m), then W_{m-1} = l^{m-1} V_{m-1}
        (a, b), (xr, xi), k = p[m], xs[n - m], -s * m
        vr, vi = k * (vr + xr * a - xi * b), k * (vi + xr * b + xi * a)
        xr, xi = xs[m - 1]
        w.append((xr * vr - xi * vi, xr * vi + xi * vr))
    w.reverse()
    return s, (lr, li), p, w, xs[n]


def _defect(s: int, l: _GInt, p: list[_GInt], w: list[_GInt], ln: _GInt) -> float:
    """max_j 2 |D_j| / (s^2 |l^N|) for (s, l, P~, W, l^N); a nonzero defect below the float range reads 5e-324.

    D_j = s (j+1) (W_{j+1} + l^N P~_{j+1}) + l W_j with W_N = 0, read by index.
    """
    (lr, li), (nr, ni), worst, u, v = l, ln, 0, 0, 0
    for j in range(len(w) - 1, -1, -1):  # (u, v) is W_{j+1}
        (x, y), (a, b), k = w[j], p[j + 1], s * (j + 1)
        dr, di = k * (u + nr * a - ni * b) + lr * x - li * y, k * (v + nr * b + ni * a) + lr * y + li * x
        worst, u, v = max(worst, dr * dr + di * di), x, y
    if not worst:
        return 0.0
    den = s**4 * (nr * nr + ni * ni)
    e = (den.bit_length() - worst.bit_length()) // 2  # one correctly rounded division, in float range
    return max(math.ldexp(2.0 * math.sqrt((worst << max(0, 2 * e)) / (den << max(0, -2 * e))), -e), 5e-324)


def verify_eigenfunction_identity(fp: FaddeevParams) -> float:
    """Exact residual of Q' + lambda Q = lambda P - P' for Q = P + 2 sum.

    Computed over the Gaussian integers; returns the largest coefficient
    magnitude of the difference, which is exactly 0.0 when the closed-form
    eigenfunction solves the first Moutard equation for this P and lambda.
    """
    return _defect(*_scaled(fp))
