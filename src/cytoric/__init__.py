"""Exact-arithmetic toolkit for reflexive lattice polytopes and the toric
Calabi-Yau hypersurface invariants they determine.

Everything is computed over arbitrary-precision integers and rationals;
there is no floating point anywhere in the package.
"""

from .chern import IntersectionForm, c2_dot, curve_census, intersection_number
from .fan import (
    Cone,
    Fan,
    WeilDivisor,
    face_fan,
    is_nef,
    is_qcartier,
    mpcp_triangulate,
    picard_rank_q,
    singularity_census,
)
from .hodge import classify_boundary, divisor_census, h11, h12
from .lattice import MPoint, NPoint, RationalHyperplane
from .polytope import Face, Polytope, RationalPolytope, hull

__version__ = "0.1.0"

__all__ = [
    "MPoint",
    "NPoint",
    "RationalHyperplane",
    "Face",
    "Polytope",
    "RationalPolytope",
    "hull",
    "classify_boundary",
    "divisor_census",
    "h11",
    "h12",
    "Cone",
    "Fan",
    "WeilDivisor",
    "face_fan",
    "is_nef",
    "is_qcartier",
    "mpcp_triangulate",
    "picard_rank_q",
    "singularity_census",
    "IntersectionForm",
    "c2_dot",
    "curve_census",
    "intersection_number",
    "__version__",
]
