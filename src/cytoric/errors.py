"""Exception types shared across the toolkit."""


class CytoricError(Exception):
    """Base class for all toolkit errors."""


class InternalInvariantError(AssertionError):
    """An internal consistency check failed: a bug, not a bad input.

    Unlike a bare ``assert`` it is raised under ``python -O`` too.  It is
    deliberately not a CytoricError, so the CLI does not report it as an
    input error."""


class InputError(CytoricError, ValueError):
    """Malformed or out-of-contract input (dimension mismatch, zero vector, ...)."""


class NotFullDimensionalError(InputError):
    """Point set does not affinely span the ambient space.

    Carries the dimension of the affine hull that was actually achieved.
    """

    def __init__(self, affine_dim, ambient_dim):
        self.affine_dim = affine_dim
        self.ambient_dim = ambient_dim
        super().__init__(
            f"points span an affine subspace of dimension {affine_dim} "
            f"inside ambient dimension {ambient_dim}"
        )


class OriginNotInteriorError(InputError):
    """Operation requires the origin strictly inside the polytope."""


class NotReflexiveError(InputError):
    """Operation requires a reflexive polytope."""


class NotSimplicialError(InputError):
    """Operation requires a simplicial cone or fan."""


class PolytopeFileError(CytoricError, ValueError):
    """Parse failure for a polytope file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
