"""Error types shared across the toolkit.

Every numerical failure mode raises a subclass of :class:`MoutardError`.
Each error carries a ``details`` dict of plain floats/ints/strings so the
command-line layer can emit a machine-parseable record instead of a bare
traceback.
"""

from __future__ import annotations

import cmath
import math


class MoutardError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message: str, **details: object):
        super().__init__(message)
        self.details = details

    def record(self) -> dict[str, object]:
        """Structured, JSON-serializable description of the failure."""
        return {
            "type": type(self).__name__,
            "message": str(self),
            "details": _plain(self.details),
        }


def _plain(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf" / "nan": strict JSON has no such numbers
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if not isinstance(value, (str, int, float)) and value is not None:
        return str(value)  # e.g. a Fraction, which JSON cannot write
    return value


class NonConvergence(MoutardError):
    """Root iteration failed to reach the residual tolerance."""

    def __init__(self, iterations: int, worst_residual: float):
        super().__init__(
            f"root iteration did not converge after {iterations} sweeps "
            f"(worst scaled residual {worst_residual:.3e})",
            iterations=iterations,
            worst_residual=worst_residual,
        )
        self.iterations = iterations
        self.worst_residual = worst_residual


class InsufficientRoots(MoutardError):
    """An operation was given fewer roots than it needs."""


class NonFinite(MoutardError):
    """A value was or came back inf/nan (e.g. a ring sample near a pole), or no sample ring faces lambda."""


def _finite(value: complex, message: str, /, **details: object) -> complex:
    """``value`` if finite, else NonFinite with ``details`` and ``message`` formatted from ``value`` and ``details``.

    A ``details`` key wins a name clash with ``value``. An int or Fraction past the float range is not
    finite; the error names it by its signed inf, as float parsing would, so that its record stays JSON-ready.
    Guard with it outside the inner per-root and per-point loops of solves and evaluations, where a call costs.
    """
    try:
        if cmath.isfinite(value):
            return value
    except OverflowError:
        inf = math.inf if value > 0 else -math.inf
        value, details = inf, {key: inf if v == value else v for key, v in details.items()}
    raise NonFinite(message.format_map({"value": value, **details}), **details)


def _complex(value: complex) -> complex:
    """``complex(value)``, reading an int or Fraction past the float range as its signed inf, as float parsing would."""
    try:
        return complex(value)
    except OverflowError:
        return complex(math.inf if value > 0 else -math.inf)


class ZeroLambda(MoutardError):
    """The spectral parameter must be nonzero."""


class NearPole(MoutardError):
    """Evaluation point too close to a zero of the generating polynomial."""

    def __init__(self, z: complex, nearest_root: complex):
        super().__init__(
            f"evaluation point {z} is too close to the root {nearest_root}",
            z=z,
            nearest_root=nearest_root,
        )
        self.z = z
        self.nearest_root = nearest_root


class RadiusTooSmall(MoutardError):
    """Sampling circle does not enclose the roots with a factor-2 margin."""


class DegenerateDesign(MoutardError):
    """Least-squares basis columns are numerically collinear."""


class InconsistentData(MoutardError):
    """Fitted scattering data is not consistent with any center count."""


class AmbiguousMatching(MoutardError):
    """Root trajectory matching cannot be decided at the current step size."""


class IoFailure(MoutardError):
    """Report/export could not be written."""
