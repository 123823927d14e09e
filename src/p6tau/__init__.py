"""Exact rational Painleve VI tau functions on the rank-5 root lattice.

The package constructs the tau family from a 3-component polynomial
Grassmannian frame, organizes it on the zero-sum integer 6-vectors, and
verifies - in exact arithmetic, to the literal zero polynomial - the Toda
recursions, the bilinear relations with their calibrated sign table, the
six-point product identities, the second-order quadratic sigma equation,
the sigma-level relation with first-order corrections, and the
correspondence with the F4(1) root lattice.
"""

from .exactalg import LaurentPoly, Scalar
from .grassmann import FrameMatrix, TauT, TauTable
from .lattice import LatticePoint, MoveIJK

__version__ = "0.1.0"

__all__ = [
    "FrameMatrix",
    "LatticePoint",
    "LaurentPoly",
    "MoveIJK",
    "Scalar",
    "TauT",
    "TauTable",
]
