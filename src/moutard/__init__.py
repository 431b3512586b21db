"""Moutard transforms of the 2D Schrodinger operator with polynomial generators.

Monic polynomial generating functions turn the Moutard transform of the free
operator into a finite family of -8*pi point potentials at the polynomial's
roots, with closed-form eigenfunctions, explicitly computable scattering data
(a = -2N/lambda, b = 0), and exact root dynamics under dP/dt = d^3P/dz^3.
This package computes all of those objects and, more importantly, verifies
them: exact-arithmetic identity certificates, stencil residuals for the
defining first-order system, gauge-invariance and harmonicity checks, and
scattering fits whose reflectionless coefficient is measured, not assumed.
"""

from .cpoly import (
    ComplexPoly,
    RootSet,
    differentiate,
    from_roots,
    horner,
    min_root_separation,
    roots,
)
from .errors import (
    AmbiguousMatching,
    DegenerateDesign,
    InconsistentData,
    InsufficientRoots,
    IoFailure,
    MoutardError,
    NearPole,
    NonConvergence,
    NonFinite,
    RadiusTooSmall,
    ZeroLambda,
)
from .flow import (
    CollisionEvent,
    RootTrajectory,
    evolve,
    trajectory,
    verify_flow,
)
from .scattering import (
    ScatteringEstimate,
    count_deltas,
    expected_a,
    fit_scattering,
    sample_mu,
)
from .transform import (
    DeltaPotential,
    FaddeevParams,
    harmonicity_check,
    moutard_residual,
    residual_checks,
    residual_sample_points,
    transformed_potential,
    verify_eigenfunction_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousMatching",
    "CollisionEvent",
    "ComplexPoly",
    "DegenerateDesign",
    "DeltaPotential",
    "FaddeevParams",
    "InconsistentData",
    "InsufficientRoots",
    "IoFailure",
    "MoutardError",
    "NearPole",
    "NonConvergence",
    "NonFinite",
    "RadiusTooSmall",
    "RootSet",
    "RootTrajectory",
    "ScatteringEstimate",
    "ZeroLambda",
    "count_deltas",
    "differentiate",
    "evolve",
    "expected_a",
    "fit_scattering",
    "from_roots",
    "harmonicity_check",
    "horner",
    "min_root_separation",
    "moutard_residual",
    "residual_checks",
    "residual_sample_points",
    "roots",
    "sample_mu",
    "transformed_potential",
    "trajectory",
    "verify_eigenfunction_identity",
    "verify_flow",
]
