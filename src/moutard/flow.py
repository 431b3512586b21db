"""Exact time evolution of the generating polynomial and its roots.

The generating polynomial is carried by the linear flow

    dP/dt = d^3 P / dz^3

(optionally with the opposite sign; see ``flow_sign``).  Triple
differentiation is nilpotent on polynomials, so the solution operator is the
finite exponential sum

    P(., t) = sum_{m >= 0} (t^m / m!) (d^3/dz^3)^m P0,

which terminates after at most ceil(degree/3) + 1 terms: the evolution is
exact (up to floating-point rounding in the t^m/m! weights), monic stays
monic, and the degree never changes.  Each coefficient is a polynomial in t,
so root trajectories are algebraic curves; this module samples them, labels
roots across consecutive times (certified from each step's displacement, else
by greedy nearest-neighbour matching), and annotates close encounters instead
of pretending labels survive a collision.
"""

from __future__ import annotations

import cmath
import math
import operator

from . import cpoly
from .errors import AmbiguousMatching, NonFinite


class CollisionEvent(cpoly._Record):
    """A time-window where some roots came closer than the collision tolerance."""

    __match_args__ = _compared = ("t_approx", "roots_involved", "min_separation")

    def __init__(self, t_approx: float, roots_involved: tuple[int, ...], min_separation: float) -> None:
        vars(self).update(t_approx=t_approx, roots_involved=roots_involved, min_separation=min_separation)


class RootTrajectory(cpoly._Record):
    """Root paths sampled on a uniform time grid.

    ``paths[i][k]`` is the position of root i at ``times[k]``; path labels are
    only meaningful between collision events.
    """

    __match_args__ = _compared = ("times", "paths", "events")

    def __init__(
        self, times: tuple[float, ...], paths: tuple[tuple[complex, ...], ...], events: tuple[CollisionEvent, ...]
    ) -> None:
        vars(self).update(times=times, paths=paths, events=events)


def _check_sign(flow_sign: int) -> int:
    if flow_sign not in (1, -1):
        raise ValueError(f"flow_sign must be +1 or -1, got {flow_sign!r}")
    return flow_sign


def _series(p0: cpoly.ComplexPoly) -> list[tuple[complex, ...]]:
    """The nonzero terms D^3 P0, D^6 P0, ... of the flow series, which do not depend on t."""
    terms = []
    term = cpoly.differentiate(p0.coeffs, 3)
    while term != (0j,):
        terms.append(term)
        term = cpoly.differentiate(term, 3)
    return terms


def _at(p0: cpoly.ComplexPoly, terms: list[tuple[complex, ...]], t: float, sign: int) -> tuple[complex, ...]:
    """Coefficients of P0 + sum_m (s^m / m!) terms[m-1] with s = sign * t.

    They are monic by construction: every term is at least three
    coefficients shorter than P0, so the leading 1 is never touched.  Raises
    NonFinite when t is not finite or a coefficient of P(t) overflows.
    """
    s = float(t) * sign
    if not math.isfinite(s):
        raise NonFinite(f"flow time must be finite, got {t!r}", t=t)
    out = list(p0.coeffs)
    weight = 1.0
    for m, term in enumerate(terms, start=1):
        weight *= s / m
        out[:len(term)] = [o + weight * c for o, c in zip(out, term)]
    if not all(map(cmath.isfinite, out)):
        raise NonFinite(f"a coefficient of P(t) overflows at t = {t!r}", t=t)
    return tuple(out)


def evolve(p0: cpoly.ComplexPoly, t: float, flow_sign: int = 1) -> cpoly.ComplexPoly:
    """P(., t) by the terminating exponential sum; no time stepping.

    ``flow_sign=-1`` runs dP/dt = -d^3P/dz^3 instead (the two conventions
    differ only by t -> -t).  Where the flow leaves P unchanged (t == 0, or
    degree <= 2, whose series is empty) it returns ``p0`` itself, so its
    memoized roots, and for ``from_roots`` the given ones, carry over.
    Raises NonFinite when t is not finite or a coefficient of P(t) overflows.
    """
    terms = _series(p0)
    coeffs = _at(p0, terms, t, _check_sign(flow_sign))
    return p0 if t == 0 or not terms else cpoly.ComplexPoly(coeffs)


def verify_flow(p0: cpoly.ComplexPoly, t: float, dt: float, flow_sign: int = 1) -> float:
    """Max coefficient defect of the flow ODE at time t.

    Compares sum_{j=1..K} w_j [P(t+j dt) - P(t-j dt)], w_j = (-1)^{j+1} (K!)^2 /
    (j (K-j)! (K+j)! dt), K = max(1, ceil(floor(N/3) / 2)), which is exact for
    P(t) of degree floor(N/3) in t, against the configured sign times the third
    derivative of P(t).  Every P(t) is read from evolve itself, so a small
    value certifies that evolve integrates the flow.  Raises NonFinite where
    evolve would, and where the defect overflows.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    sign = _check_sign(flow_sign)
    k = max(1, -(-(p0.degree // 3) // 2))
    diff = [0j] * len(p0.coeffs)
    for j in range(1, k + 1):
        w = (-1) ** (j + 1) * math.factorial(k) ** 2 / (j * math.factorial(k - j) * math.factorial(k + j))
        pairs = zip(evolve(p0, t + j * dt, sign).coeffs, evolve(p0, t - j * dt, sign).coeffs)
        diff = [d + w * (a - b) for d, (a, b) in zip(diff, pairs)]
    rhs = cpoly.differentiate(evolve(p0, t, sign).coeffs, 3) + (0j,) * 3
    defects = [cpoly._modulus_or_inf(d / dt - sign * r) for d, r in zip(diff, rhs)]
    if not all(map(math.isfinite, defects)):
        raise NonFinite(f"the flow defect at t = {t!r} overflows for dt = {dt!r}", t=t, dt=dt)
    return max(defects)


def _near_min_pairs(positions: Sequence[complex], best: float) -> tuple[int, ...]:
    """Indices of the points in some pair at most 2 * best apart."""
    involved = set()
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if abs(positions[i] - positions[j]) <= 2.0 * best:
                involved.update((i, j))
    return tuple(sorted(involved))


def _labels_kept(delta: float, sep: float) -> float:
    """A lower bound on the separation of cur when no root moved 3/8 of ``sep``, else -inf.

    ``sep`` is the minimum separation of ``prev``, or a lower bound on it, and
    delta = max |cur_i - prev_i| the largest move.  Then |prev_i - cur_j| >=
    sep - delta for i != j, so every off-diagonal distance exceeds the
    diagonal one in its row and in its column by at least sep - 2 delta >=
    sep / 4: greedy matching at margin sep / 4 keeps the order of ``cur`` and
    does not raise, and the roots of ``cur`` lie at least sep - 2 delta apart.
    The factor 1 - 2^-40 covers the few-ulp error of the computed
    (normal-range) distances.  A single root has sep = inf and is always kept.
    """
    if delta <= 0.375 * (1 - 2**-40) * sep:
        return (sep - 2.0 * delta) * (1 - 2**-40)
    return -math.inf


def _greedy_match(prev: Sequence[complex], cur: Sequence[complex], margin: float) -> list[complex]:
    """Assign each previous root the nearest unclaimed current root.

    Each pick is the closest pair (i, j) of a still free previous root i and
    current root j, ties broken on (distance, i, j).  If the best conflicting
    alternative in that free row or column is within ``margin`` of the chosen
    pair, the assignment is not trustworthy and AmbiguousMatching is raised;
    margin -inf never raises.
    """
    n = len(prev)
    d = [[abs(p - c) for c in cur] for p in prev]
    rows = set(range(n))
    cols = set(range(n))
    out: list[complex] = [0j] * n
    while rows:
        dist, i, j = min((d[r][c], r, c) for r in rows for c in cols)
        rival = min(
            [d[i][c] for c in cols if c != j] + [d[r][j] for r in rows if r != i],
            default=math.inf,
        )
        if rival - dist < margin:
            raise AmbiguousMatching(
                "root matching between consecutive times is ambiguous "
                f"(competing assignments differ by {rival - dist:.3e} < margin {margin:.3e}); "
                "increase steps",
                distance=dist,
                rival=rival,
                margin=margin,
            )
        out[i] = cur[j]
        rows.remove(i)
        cols.remove(j)
    return out


def trajectory(
    p0: cpoly.ComplexPoly,
    t0: float,
    t1: float,
    steps: int,
    collision_tol: float = 1e-3,
    flow_sign: int = 1,
) -> RootTrajectory:
    """Sampled root paths of the evolving polynomial on [t0, t1].

    Each time's roots are solved on P(t)'s coefficient tuple by the solve
    behind ``cpoly.roots``, warm from the secant prediction
    2 x_{k-1} - x_{k-2} of the two previous labelled columns, or from x_{k-1}
    alone at the first step and whenever either of those two times was
    flagged as a collision (the solve falls back to its cold seed by itself
    when that start fails); the result equals
    ``cpoly.roots(evolve(p0, t), init=...)`` bit for bit.  Roots at the
    first time are ordered by (real, imag).  Each later time keeps the warm
    start's order where :func:`_labels_kept` certifies it with a separation
    bound at or above ``collision_tol``; otherwise its roots take their labels
    from x_{k-1} by greedy nearest-neighbour matching, which keeps that order
    wherever the certificate holds.  The matching raises AmbiguousMatching
    where two assignments differ by less than a quarter of x_{k-1}'s minimum
    separation, unless either end of the step is flagged: a time is flagged
    when its minimum separation drops below ``collision_tol``, and labels may
    genuinely permute there.  A flagged time opens a CollisionEvent, or
    widens the previous time's event when that time was flagged too (keeping
    the first tightest time and the union of the roots involved).  ValueError
    unless collision_tol > 0 (inf is allowed).  Raises NonFinite when a grid
    time is not finite or a coefficient of P(t) overflows there, and before
    any solve when t0, t1 or the span t1 - t0 is not finite.
    """
    sign = _check_sign(flow_sign)
    for t in (t0, t1):
        if not math.isfinite(t):
            raise NonFinite(f"flow time must be finite, got {t!r}", t=t)
    if not math.isfinite(t1 - t0):
        raise NonFinite(f"flow time span t1 - t0 = {t1 - t0!r} overflows", span=t1 - t0, t0=t0, t1=t1)
    if not t1 > t0:
        raise ValueError(f"need t0 < t1, got {t0!r} >= {t1!r}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")
    if not collision_tol > 0:
        raise ValueError(f"collision_tol must be positive, got {collision_tol!r}")
    if p0.degree < 1:
        raise ValueError("trajectory needs a generating polynomial of degree >= 1")
    n = p0.degree
    terms = _series(p0)
    times = tuple(t0 + (t1 - t0) * k / steps for k in range(steps + 1))

    columns: list[list[complex]] = []
    # Minimum separation of each column, or a lower bound on it that is >= collision_tol.
    seps: list[float] = []
    events: list[CollisionEvent] = []
    for k, t in enumerate(times):
        if k >= 2 and min(seps[-2:]) >= collision_tol:
            # Secant prediction from the last two columns, free of Horner passes.
            init = [2 * a - b for a, b in zip(columns[-1], columns[-2])]
        else:
            init = columns[-1] if columns else None
        rts, _, _ = cpoly._solve(_at(p0, terms, t, sign), init)
        if k:
            # A step that keeps its labels with a bound >= collision_tol is not flagged,
            # so it stores the bound and skips the O(n^2) scan.
            least = _labels_kept(max(map(abs, map(operator.sub, rts, columns[-1]))), seps[-1])
            if least >= collision_tol:
                columns.append(rts)
                seps.append(least)
                continue
        # Matching permutes rts, so this is also the separation of cur.
        sep = cpoly.min_root_separation(rts) if n >= 2 else math.inf
        if k == 0:
            cur = sorted(rts, key=lambda r: (r.real, r.imag))
        elif seps[-1] < collision_tol or sep < collision_tol:
            # Either end of the step sits at a collision: labels genuinely permute
            # there, and the CollisionEvent already marks them unreliable.
            cur = _greedy_match(columns[-1], rts, -math.inf)
        else:
            cur = _greedy_match(columns[-1], rts, 0.25 * cpoly.min_root_separation(columns[-1]))
        if sep < collision_tol:
            event = CollisionEvent(t, _near_min_pairs(cur, sep), sep)
            if k and seps[-1] < collision_tol:
                # The previous time was flagged too: widen its event, which
                # keeps the first of its tightest times.
                last = events.pop()
                tightest = last if last.min_separation <= sep else event
                involved = tuple(sorted({*last.roots_involved, *event.roots_involved}))
                event = CollisionEvent(tightest.t_approx, involved, tightest.min_separation)
            events.append(event)
        columns.append(cur)
        seps.append(sep)
    return RootTrajectory(times=times, paths=tuple(zip(*columns)), events=tuple(events))
