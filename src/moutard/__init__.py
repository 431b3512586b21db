"""Moutard transforms of the 2D Schrodinger operator with polynomial generators.

Monic polynomial generating functions turn the Moutard transform of the free
operator into a finite family of -8*pi point potentials at the polynomial's
roots, with closed-form eigenfunctions, explicitly computable scattering data
(a = -2N/lambda, b = 0), and exact root dynamics under dP/dt = d^3P/dz^3.
This package computes all of those objects and, more importantly, verifies
them: exact-arithmetic identity certificates, ring residuals for the
defining first-order system, gauge-invariance and harmonicity checks, and
scattering fits whose reflectionless coefficient is measured, not assumed.

Import from the modules, e.g. ``moutard.cpoly.from_roots``; importing the
package does not load the command line, ``moutard.cli``.
"""

from . import cpoly, errors, flow, scattering, transform, wirtinger

__version__ = "0.1.0"

__all__ = ["cpoly", "errors", "flow", "scattering", "transform", "wirtinger"]
