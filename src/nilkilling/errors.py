"""Exception types shared across the package."""


class NilkillingError(Exception):
    """Base class for all package-specific errors."""


class InvalidAlgebra(NilkillingError, ValueError):
    """The algebra is not antisymmetric, not 2-step, or its Gram matrix is
    not symmetric positive definite."""


class NumericalRankFailure(NilkillingError):
    """A rank decision could not be made: the singular value gap is too small."""


class DegreeOverflow(NilkillingError):
    """Result of a wedge product would exceed the dimension of the algebra."""


class NotSkew(NilkillingError):
    """A matrix expected to be skew-symmetric is not."""


class DecompositionAmbiguous(NilkillingError):
    """Eigenvalue clusters in the splitting step are not clearly separated."""


class WorkingSetTooLarge(NilkillingError, MemoryError):
    """The estimated memory of a computation exceeds the package's fixed
    budget; refused before anything is allocated."""


class InternalInvariantViolation(NilkillingError):
    """A structural fact guaranteed by theory failed numerically."""


class NotComplexStructure(NilkillingError):
    """The given endomorphism is not a bi-invariant complex structure."""


class TrivialSubrepresentation(NilkillingError):
    """The representation matrices have a common kernel."""


class NotAdInvariant(NilkillingError):
    """The inner product is not ad-invariant for the given bracket."""


class EmptySum(NilkillingError):
    """A direct sum of zero algebras was requested."""
