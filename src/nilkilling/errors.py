"""The package's refusals; the command line maps each to an exit code."""


class NilkillingError(Exception):
    """Base class for all package-specific errors."""


class InvalidAlgebra(NilkillingError, ValueError):
    """The algebra is not antisymmetric, not 2-step, or its Gram matrix is
    not symmetric positive definite."""


class NumericalRankFailure(NilkillingError):
    """A rank or zero decision could not be made: its gap is too small."""


class DecompositionAmbiguous(NilkillingError):
    """Eigenvalue clusters in the splitting step are not clearly separated."""


class WorkingSetTooLarge(NilkillingError, MemoryError):
    """The estimated memory of a computation exceeds the package's fixed
    budget; refused before anything is allocated."""


class InternalInvariantViolation(NilkillingError):
    """A structural fact guaranteed by theory failed numerically."""
