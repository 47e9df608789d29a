"""Exact arithmetic for ribbon Schur operators on the Fock space of partitions.

Everything is computed over integer polynomials in q: ribbon addition and
removal on the edge-sequence encoding, horizontal strip operators and the
symmetric functions built from them, ribbon tableau generating functions,
q-Littlewood-Richardson coefficients by two independent routes, positive
monomial formulas for hooks and two-row shapes, and exhaustive desk-scale
verification of the operator identities.

The package namespace holds the quick-start names of README.md; everything
else is imported from its module (ribbonops.partitions, .operators, .qlr,
.verify, ...).
"""

from .fock import FockVec
from .operators import apply_h, apply_word
from .qlr import qlr_table_via_operators

__version__ = "0.1.0"

__all__ = ["FockVec", "apply_h", "apply_word", "qlr_table_via_operators"]
