"""Complex polynomial arithmetic tuned for verification work.

Polynomials are monic and stored densely in ascending coefficient order,
matching the generating functions P(z) = prod(z - z_k) used throughout the
toolkit.  Evaluation is Horner, differentiation is exact coefficient
arithmetic, and root finding is a deterministic Aberth-Ehrlich simultaneous
iteration so repeated runs give bit-identical output.

Everything here is immutable, with a memoized root solve and derivative
chain that are deterministic, so a race only repeats work; instances are
safe to share across threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys

from .errors import InsufficientRoots, NonConvergence, NonFinite

_EPS = sys.float_info.epsilon
# Fractional part of the golden ratio; used to rotate the initial root guesses
# off any axis of symmetry of the polynomial.
_GOLDEN_FRAC = 0.6180339887498949

# Gate on the scaled residual of every root, and the sweep budget of one
# Aberth run; read at call time.
ROOT_TOL = 1e-12
MAX_SWEEPS = 200


class _Record:
    """Immutable record whose fields ``__match_args__`` names in constructor order.

    The repr shows every field; equality, only between instances of one
    class, and hashing see the fields named in ``_compared``.  Fields are set
    once, at construction, in the instance ``__dict__``, so memoized values
    kept there never take part, and instances pickle as they are.  Assigning
    or deleting an attribute raises AttributeError.
    """

    __match_args__: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _memo:
    """A method read as an attribute, called on first access, whose value is then kept in the instance ``__dict__``.

    Being a non-data descriptor, it is not consulted again once the value is kept there; the value pickles along.
    """

    def __init__(self, method) -> None:
        self.method, self.name, self.__doc__ = method, method.__name__, method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


class ComplexPoly(_Record):
    """Monic complex polynomial, coefficients in ascending degree order.

    ``coeffs[j]`` multiplies z**j and the last entry is exactly 1.  Use
    :func:`from_roots` or :meth:`from_coefficients` instead of spelling out
    coefficient tuples by hand; ValueError unless every coefficient is finite.
    """

    coeffs: tuple[complex, ...]
    __match_args__ = _compared = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]) -> None:
        # From a list, like the package's other coefficient and root tuples: CPython 3.11's tuple(<generator>)
        # grows its tuple by resizing, so it never reuses a freed tuple, and freed ones pile up on the free lists.
        coeffs = tuple([complex(c) for c in coeffs])
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if coeffs[-1] != 1:
            raise ValueError(
                f"leading coefficient must be exactly 1, got {coeffs[-1]!r}"
            )
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[complex]) -> "ComplexPoly":
        """Build from an arbitrary coefficient list, normalizing to monic.

        Trailing (highest-degree) zeros are stripped first; the remaining
        coefficients are divided by the leading one.  NonFinite where that
        division overflows a finite coefficient list.
        """
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial has no monic form")
        lead = cs[-1]
        monic = tuple(c / lead for c in cs[:-1]) + (1 + 0j,)
        if all(map(cmath.isfinite, cs)) and not all(map(cmath.isfinite, monic)):
            raise NonFinite(f"a coefficient overflows when divided by the leading one {lead!r}", lead=lead)
        return cls(monic)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @_memo
    def root_set(self) -> RootSet:
        """All roots by :func:`roots`, solved on first access and then kept.

        A polynomial built by :func:`from_roots` passes the roots it was
        multiplied out from as ``init``: they come back in the given order,
        bitwise where a root sits at the rounding floor of the stored
        coefficients, and repeated ones take the cold seed.  Not compared:
        equality, hashing and repr see only ``coeffs``.
        """
        return roots(self, init=self.__dict__.get("_given_roots"))

    @_memo
    def derivatives(self) -> tuple[tuple[complex, ...], ...]:
        """(P', ..., P^(N)), each the derivative of the one before; formed on first access, then kept.

        Each step multiplies c_j by j as :func:`differentiate` does, so ``derivatives[k - 1]``
        equals ``differentiate(coeffs, k)`` bit for bit; degree 0 gives ().  One finiteness scan
        follows: NonFinite naming the lowest order that overflows, and nothing kept.  Not
        compared: equality, hashing and repr see only ``coeffs``.
        """
        chain, cs = [], self.coeffs
        for _ in range(self.degree):
            cs = tuple([c * j for j, c in enumerate(cs) if j])
            chain.append(cs)
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(chain))):
            k = [all(map(cmath.isfinite, d)) for d in chain].index(False) + 1
            raise NonFinite(f"a coefficient of the order-{k} derivative is not finite", order=k)
        return tuple(chain)

    @_memo
    def _gaussian(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(s, ((re, im), ...)): one power of two s and the Gaussian integers s c_j; formed on first access, then kept.

        s is the largest denominator among the coefficients' parts, all of
        them powers of two, as every float is a dyadic rational.  Not
        compared: equality, hashing and repr see only ``coeffs``.
        """
        ratios = [(c.real.as_integer_ratio(), c.imag.as_integer_ratio()) for c in self.coeffs]
        s = max(d for pair in ratios for _, d in pair)
        return s, tuple(tuple(n * (s // d) for n, d in pair) for pair in ratios)


class RootSet(_Record):
    """All roots of a polynomial, multiplicity by repetition.

    The order is deterministic for a given input but carries no meaning,
    except that a warm-started solve (``roots(p, init=...)``) usually keeps
    each root next to the guess it started from.  ``sweeps`` counts the
    Aberth sweeps spent, including those of a warm run that fell back to the
    cold seed, and ``worst_residual`` is the largest scaled residual
    |p(x)| / max(1, sum_j |c_j||x|^j) over the returned roots.  Neither takes
    part in equality.
    """

    __match_args__ = ("roots", "sweeps", "worst_residual")
    _compared = ("roots",)

    def __init__(self, roots: tuple[complex, ...], sweeps: int = 0, worst_residual: float = 0.0) -> None:
        vars(self).update(roots=roots, sweeps=sweeps, worst_residual=worst_residual)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def from_roots(roots: Sequence[complex]) -> ComplexPoly:
    """Monic polynomial with exactly the given roots; [] gives the constant 1.

    The roots are kept as the starting guesses of its ``root_set`` solve.
    NonFinite where multiplying out finite roots overflows a coefficient.
    """
    given = tuple([complex(r) for r in roots])
    coeffs = [1 + 0j]
    for rc in given:
        coeffs.insert(0, 0j)
        for j in range(len(coeffs) - 1):
            coeffs[j] -= rc * coeffs[j + 1]
    if all(map(cmath.isfinite, given)) and not all(map(cmath.isfinite, coeffs)):
        raise NonFinite(f"a coefficient overflows when the {len(given)} roots are multiplied out", degree=len(given))
    p = ComplexPoly(tuple(coeffs))
    object.__setattr__(p, "_given_roots", given)
    return p


def horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Evaluate an ascending coefficient sequence at z by nested multiplication; NonFinite where the value is not."""
    [acc] = _horner_list(coeffs, (z,))
    if not cmath.isfinite(acc):
        raise NonFinite(f"polynomial value is not finite at {z!r}", point=z)
    return acc


def _horner_list(coeffs: Sequence[complex], points: Sequence[complex]) -> list[complex]:
    """Unchecked Horner values of an ascending coefficient sequence at every z in points.

    The coefficient loop runs outermost, so each coefficient costs one list
    pass instead of one interpreted step per point.  :func:`horner` takes its
    value from here, so the two agree bit for bit.
    """
    acc = [0j] * len(points)
    for c in reversed(coeffs):
        acc = [a * z + c for a, z in zip(acc, points)]
    return acc


def differentiate(coeffs: Sequence[complex], k: int = 1) -> tuple[complex, ...]:
    """k-th derivative of an ascending coefficient sequence, exact factors.

    Dropping below degree 0 yields the zero polynomial, represented as (0j,).
    NonFinite where a result coefficient is not finite.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    cs = tuple([complex(c) for c in coeffs])
    for _ in range(k):
        if len(cs) <= 1:
            return (0j,)
        cs = tuple([cs[j + 1] * (j + 1) for j in range(len(cs) - 1)])
    if not all(map(cmath.isfinite, cs)):
        raise NonFinite(f"a coefficient of the order-{k} derivative is not finite", order=k)
    return cs


def _cold_seed(coeffs: Sequence[complex]) -> list[complex]:
    """n finite, pairwise distinct guesses on the circles of the Newton polygon (Bini 1996).

    Each edge k0 -> k1 of the upper convex hull of the points (k, log|c_k|)
    puts k1 - k0 guesses, equally spaced, on the circle of radius
    (|c_k0| / |c_k1|)^(1/(k1 - k0)): the size of that many roots, so roots of
    scales far apart each start near their own.  The guesses of an edge are
    turned by k0/n of a turn, and all of them by the golden fraction, off any
    axis of symmetry.  Exactly zero low coefficients c_0 .. c_{m-1} stand
    for m roots at 0; those guesses sit on a circle of half the smallest edge
    radius, or on the unit circle for z^n.  A radius that underflows is
    raised to the smallest normal float, and one that rounds onto the radius
    below it just past it.  OverflowError where a modulus or radius overflows.
    """
    n = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        y = math.log(abs(c))
        while len(hull) > 1:
            (ka, ya), (kb, yb) = hull[-2:]
            if (kb - ka) * (y - ya) < (yb - ya) * (k - ka):
                break
            hull.pop()  # on or below the chord from (ka, ya) to (k, y)
        hull.append((k, y))
    guesses, radii = [], [0.0]
    for (k0, y0), (k1, y1) in zip(hull, hull[1:]):
        m = k1 - k0
        radii.append(max(math.exp((y0 - y1) / m), sys.float_info.min, radii[-1] * (1.0 + 2.0**-20)))
        guesses += [radii[-1] * cmath.exp(2j * math.pi * (j / m + k0 / n + _GOLDEN_FRAC)) for j in range(m)]
    zeros = hull[0][0]
    radius = 0.5 * radii[1] if guesses else 1.0
    return [radius * cmath.exp(2j * math.pi * (j / zeros + _GOLDEN_FRAC)) for j in range(zeros)] + guesses


def _aberth(coeffs: Sequence[complex], xs: list[complex]) -> tuple[int, float]:
    """At most ``MAX_SWEEPS`` Aberth-Ehrlich sweeps on the guesses xs, in place.

    Returns the sweeps run and the final worst scaled residual, which is inf
    as soon as an iterate or a Horner value stops being finite.  Each root
    costs one Horner pass per sweep for p(x), p'(x) and the evaluation scale
    sum |c_j||x|^j, the standard backward-error yardstick: a computed value
    with |p(x)| at or below eps * scale is numerically indistinguishable from
    an exact root.  A root at its rounding floor never moves again, so it
    keeps the residual measured there: later sweeps skip it, and the closing
    pass evaluates only the roots that never reached their floor.  The
    repulsion sum_{j != i} 1 / (x_i - x_j) runs over the iterates before i,
    then over those after it, with no test per term; only an iterate that
    coincides exactly with another divides by zero, and then the sum is
    formed again with each zero difference nudged by 2^-50 (1 + |x_i|)(1 + i).
    """
    n = len(xs)
    # (c_j, |c_j|) from j = degree - 1 down to 0; the pass starts at the leading coefficient.
    lower = [(c, abs(c)) for c in coeffs[-2::-1]]
    lead, abs_lead = coeffs[-1], abs(coeffs[-1])
    stagnate = 2.0 ** -50
    floor = 4.0 * _EPS
    big = sys.float_info.max
    sweeps = 0
    # Scaled residual of each root once it is at its rounding floor, else None.
    kept: list[float | None] = [None] * n
    for sweeps in range(1, MAX_SWEEPS + 1):
        finished = True
        for i in range(n):
            if kept[i] is not None:
                continue
            x = xs[i]
            ax = abs(x)
            pv, dv, scale = lead, 0j, abs_lead
            for c, ac in lower:
                dv = dv * x + pv
                pv = pv * x + c
                scale = scale * ax + ac
            apv = abs(pv)
            # Each term on its own: their sum can overflow where none of them does.
            if not (apv <= big and abs(dv) <= big and scale <= big):
                return sweeps, math.inf
            if apv <= floor * scale:
                kept[i] = apv / (scale if scale > 1.0 else 1.0)
                continue  # at the rounding floor; moving would add noise
            if dv == 0:
                # Dead center of a symmetric cluster; nudge deterministically.
                xs[i] = x + (stagnate + stagnate * ax) * (1 + 1j)
                finished = False
                continue
            newton = pv / dv
            try:
                repulse = 0j
                for y in xs[:i]:
                    repulse += 1 / (x - y)
                for y in xs[i + 1:]:
                    repulse += 1 / (x - y)
            except ZeroDivisionError:
                # A coincident iterate: sum again, nudging each zero difference.
                repulse = 0j
                for y in xs[:i] + xs[i + 1:]:
                    diff = x - y
                    if diff == 0:
                        diff = stagnate * (1 + ax) * (1 + 1j)
                    repulse += 1 / diff
            denom = 1 - newton * repulse
            if denom == 0:
                xs[i] = x + (stagnate + stagnate * ax) * (1 + 1j)
                finished = False
                continue
            delta = newton / denom
            xs[i] = new = x - delta
            if not cmath.isfinite(new):
                return sweeps, math.inf
            if abs(delta) > stagnate * (1 + ax):
                finished = False
        if finished:
            break
    worst = 0.0
    for x, r in zip(xs, kept):
        if r is None:
            ax = abs(x)
            pv, scale = lead, abs_lead
            for c, ac in lower:
                pv = pv * x + c
                scale = scale * ax + ac
            r = abs(pv) / (scale if scale > 1.0 else 1.0)
            if not math.isfinite(r):
                return sweeps, math.inf
        if r > worst:
            worst = r
    return sweeps, worst


def roots(p: ComplexPoly, init: Sequence[complex] | None = None) -> RootSet:
    """All roots of p via deterministic Aberth-Ehrlich simultaneous iteration.

    Cold guesses sit on the circles of the Newton polygon of the coefficient
    moduli (see :func:`_cold_seed`), one circle per scale of roots, rotated by
    an irrational fraction of a turn so they never align with axes of
    symmetry.  ``init``, if given, holds one guess per root, e.g. the roots
    of a nearby polynomial, and the iteration starts there instead; it is
    only a hint: guesses that are not pairwise distinct are ignored, and
    when the warm run misses the residual gate, the solve reruns from the
    cold seed before giving up.  Sweeps update the guesses in place until
    every residual reaches its rounding floor or the corrections stagnate at
    machine precision.

    ``ROOT_TOL`` bounds the scaled residual |p(x)| / max(1, sum_j |c_j||x|^j);
    the scaling makes the gate meaningful for polynomials whose coefficients
    are large, where an absolute bound on |p(x)| is unattainable in double
    precision.  Raises NonConvergence if any root misses the gate after
    ``MAX_SWEEPS`` sweeps or any value stops being finite, and NonFinite where
    a modulus of finite components overflows; the result is never NaN.
    """
    xs, sweeps, worst = _solve(p.coeffs, init)
    return RootSet(tuple(xs), sweeps, worst)


def _solve(coeffs: Sequence[complex], init: Sequence[complex] | None = None) -> tuple[list[complex], int, float]:
    """The solve behind :func:`roots` on a monic ascending coefficient sequence.

    Returns (roots, sweeps spent, worst scaled residual) and raises as
    :func:`roots` does.  :func:`moutard.flow.trajectory` calls it on each
    step's coefficients, with no ComplexPoly or RootSet in between.
    """
    n = len(coeffs) - 1
    if n == 0:
        return [], 0, 0.0
    spent = 0
    try:
        if init is not None:
            xs = [complex(x) for x in init]
            if len(xs) != n:
                raise ValueError(f"init needs {n} guesses for degree {n}, got {len(xs)}")
            # Equal guesses would only creep apart through _aberth's 2^-50 nudges.
            if len(set(xs)) == n:
                spent, worst = _aberth(coeffs, xs)
                if worst < ROOT_TOL:
                    return xs, spent, worst
        xs = _cold_seed(coeffs)
        sweeps, worst = _aberth(coeffs, xs)
    except OverflowError:  # abs() of finite components whose modulus overflows
        raise NonFinite(f"a modulus overflows in the degree-{n} root solve", degree=n) from None
    spent += sweeps
    if not worst < ROOT_TOL:
        raise NonConvergence(spent, worst)
    return xs, spent, worst


def _modulus_or_inf(z: complex) -> float:
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def min_root_separation(r: RootSet | Sequence[complex]) -> float:
    """Minimum pairwise distance between at least two roots; NonFinite for a non-finite root or minimum.

    A distance whose modulus overflows counts as inf, so only a minimum
    that overflows raises.
    """
    pts = tuple(r)
    if len(pts) < 2:
        raise InsufficientRoots(
            f"separation needs at least 2 roots, got {len(pts)}"
        )
    for x in pts:
        if not cmath.isfinite(x):
            raise NonFinite(f"separation needs finite roots, got {x!r}", root=x)
    sep = min(_modulus_or_inf(a - b) for a, b in itertools.combinations(pts, 2))
    if sep == math.inf:
        raise NonFinite("minimum root separation overflows")
    return sep
