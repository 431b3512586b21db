"""The verdict of ``moutard verify``: each check of one generator P and lambda against its bound."""

from __future__ import annotations

import math
import sys

from . import cpoly, flow, scattering, transform
from .errors import NonFinite

VERIFY_THRESHOLDS = {"identity_residual": 1e-12, "moutard_residual": 1e-6, "gauge_change": 1e-10, "harmonicity": 1e-5,
                     "scattering_rel_a": 1e-3, "scattering_abs_b": 1e-8, "flow_residual": 1e-6}


class Verdict(cpoly._Record):
    """What :func:`verify` found; ``checks`` holds (name, value, bound, value < bound) per ``VERIFY_THRESHOLDS`` entry.

    ``count_recovered`` says whether ``recovered_count`` is P's degree, ``all_passed`` whether that and every check do.
    """

    __match_args__ = _compared = ("checks", "recovered_count", "count_recovered", "all_passed",
                                  "roots", "sample_points", "estimate", "expected_a")

    def __init__(self, *fields: object) -> None:
        vars(self).update(zip(self.__match_args__, fields, strict=True))


def verify(p: cpoly.ComplexPoly, lam: complex, radius: float | None = None,
           samples: int = scattering.DEFAULT_SAMPLE_COUNT, flow_sign: int = 1) -> Verdict:
    """The checks of P and lambda, run through their modules; the circle and flow as ``moutard verify`` takes them.

    A check's error propagates, in the order the checks run; NonFinite where the fit's sum of squares overflows.
    """
    fp = transform.FaddeevParams(p, lam)
    identity = transform.verify_eigenfunction_identity(fp)
    sample_points, residual, gauge, harmonicity = transform.residual_checks(fp)
    est = scattering.fit_scattering(scattering.sample_mu(fp, radius=radius, count=samples), fp.lam)
    expected = scattering.expected_a(p.degree, fp.lam)
    # The fit gives a finite misfit where its squares pass the float range, but such data round far above
    # the absolute bounds (at lambda = 1e-300 harmonicity reads 1.9e286), so there is no verdict there.
    if est.fit_residual > math.sqrt(sys.float_info.max / est.samples):
        raise NonFinite(f"the fit misfit's sum of squares overflows at lambda = {fp.lam!r} on radius {est.radius!r}",
                        lam=fp.lam, radius=est.radius)
    rel_a = abs(est.a - expected) / abs(expected) if expected != 0 else abs(est.a)
    results = {"identity_residual": identity, "moutard_residual": residual, "gauge_change": gauge,
               "harmonicity": harmonicity, "scattering_rel_a": rel_a, "scattering_abs_b": abs(est.b),
               "flow_residual": flow.verify_flow(p, 0.3, 0.1, flow_sign)}
    checks = tuple((name, results[name], bound, results[name] < bound) for name, bound in VERIFY_THRESHOLDS.items())
    recovered = scattering.count_deltas(est.a, fp.lam)
    count_recovered = recovered == p.degree
    return Verdict(checks, recovered, count_recovered, count_recovered and all(c[3] for c in checks),
                   fp.roots, sample_points, est, expected)
