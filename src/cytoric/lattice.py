"""The dual pair of lattices M and N, and exact operations between them.

Points of M and points of N are deliberately distinct types even though
both are integer tuples: the polytope/dual-polytope structure lives across
the M/N boundary and mixing the two silently is the single most damaging
bug class in this kind of code.  The types are enforced where points are
made and where a polytope or a cone is assembled: a point gets its lattice
when a :class:`LatticeVector` is constructed, arithmetic refuses to combine
points of different lattices, ``Polytope._validate`` refuses facet normals
that do not live in the lattice dual to the vertices, and a ``Cone``
refuses rays of two lattices.  A :class:`RationalHyperplane` is the pair
(normal, offset), a primitive lattice normal and an int, checked where it
is made, so a polytope's facets are its plane table.  Every crossing of
the boundary (``Polytope._slacks``, ``hull``, the refinement's pulling
cells and the fan audits) pairs M with N through ``_linalg.dot``, on
points whose types those checks fixed.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .errors import InputError


class LatticeVector(tuple):
    """Immutable integer vector in a named lattice."""

    __slots__ = ()
    lattice = "?"

    def __new__(cls, coords):
        coords = tuple(coords)
        if not coords:
            raise InputError("lattice vectors must have dimension >= 1")
        for x in coords:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"lattice coordinates must be int, got {x!r}")
        return super().__new__(cls, coords)

    @classmethod
    def _from_ints(cls, coords):
        """A point from a tuple of ints, without the per-coordinate check:
        only for coordinates the caller computed as ints itself."""
        return tuple.__new__(cls, coords)

    @property
    def dim(self) -> int:
        return len(self)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self)

    def _check_peer(self, other):
        if type(other) is not type(self):
            raise InputError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}; "
                "M and N points only meet through the pairing"
            )
        if len(other) != len(self):
            raise InputError(f"dimension mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other):
        self._check_peer(other)
        return type(self)(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        self._check_peer(other)
        return type(self)(a - b for a, b in zip(self, other))

    def __neg__(self):
        return type(self)(-a for a in self)

    def __mul__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            raise InputError("lattice vectors only scale by integers")
        return type(self)(k * a for a in self)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(str, self))})"


class MPoint(LatticeVector):
    """Point of the lattice M (where the polytope Delta lives)."""

    __slots__ = ()
    lattice = "M"


class NPoint(LatticeVector):
    """Point of the dual lattice N = Hom(M, Z)."""

    __slots__ = ()
    lattice = "N"


DUAL_LATTICE = {MPoint: NPoint, NPoint: MPoint}


class RationalHyperplane(tuple):
    """Affine hyperplane {x : <x, normal> = offset} generated by its lattice
    points, as the pair (normal, offset): it unpacks, sorts and hashes as
    that pair, so a polytope's facets are its plane table.

    The normal is required to be a primitive lattice vector so the
    hyperplane really is the affine hull of its integral points and
    integral distance is well defined, and the offset an int.  When used
    as a polytope facet the polytope lies on the side <x, normal> >= offset.
    """

    __slots__ = ()

    def __new__(cls, normal, offset):
        if not isinstance(normal, LatticeVector):
            raise InputError(f"hyperplane normal must be a lattice vector, got {normal!r}")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise InputError(f"hyperplane offset must be int, got {offset!r}")
        if normal.is_zero():
            raise InputError("hyperplane normal must be nonzero")
        if gcd(*normal) != 1:
            raise InputError(f"hyperplane normal {normal} is not primitive")
        return super().__new__(cls, (normal, offset))

    def __getnewargs__(self):
        return tuple(self)

    normal = property(itemgetter(0))
    offset = property(itemgetter(1))

    def __repr__(self):
        return f"RationalHyperplane(normal={self[0]!r}, offset={self[1]!r})"
