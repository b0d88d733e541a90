"""Numeric tolerances used across the package.

Double precision with 2-D quadrature headroom; these are contract values
asserted by the test suite, not tuning knobs.
"""

from __future__ import annotations

# Discrete transform self-checks.
IM_TOL = 1e-10          # natural-lattice marginal identity (of max|psi|^2); phase invariance
PARITY_TOL = 1e-8       # even/odd input -> W(-x, xi) = W(x, -xi)
SCALING_TOL = 1e-8      # W^hbar(x, xi) = W^1(x, xi/hbar)/hbar
FIELD_TOL = 1e-9        # slack on the sup-norm bound max|W| <= mass/(pi*hbar)

# Identity tolerances (marginals, mass, overlap, inversion).
MARGINAL_TOL = 1e-6
MASS_TOL = 1e-6
OVERLAP_TOL = 1e-6
INVERSION_TOL = 1e-6
INVERSION_FLOOR = 1e-8  # minimum position-marginal value usable as inversion anchor

# Wavefunction samples used as transform input must decay to this fraction
# of their peak at the two outermost grid nodes.
DECAY_TOL = 1e-12

# Tunneling regime classification tie tolerance.
REPORT_TOL = 1e-12
