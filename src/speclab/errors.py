"""Exception types shared across the package."""


class SpeclabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(SpeclabError, ValueError):
    """An argument is outside the values the function accepts."""


class SingularMatrix(SpeclabError):
    """Exact linear solve hit a singular matrix."""


class NotContractive(SpeclabError):
    """The inverse transpose is not a one-step Euclidean contraction."""


class DimensionMismatch(SpeclabError):
    """Operands have incompatible dimensions or cardinalities."""


class VerificationFailed(SpeclabError):
    """A triple that should be unitary failed the numerical check."""


class SizeCap(SpeclabError):
    """A requested enumeration exceeds the configured size cap."""


class InvalidPadding(SpeclabError):
    """Padding parameter collides with the scaling factor (p*N == R)."""


class MismatchedRL(SpeclabError):
    """Triples expected to share R and L do not."""


class NonIntegerElement(SpeclabError):
    """A generated frequency is not an integer vector."""


class NotCompleteResidue(SpeclabError):
    """A digit set expected to be a complete residue system is not."""


class ExactCheckFailed(SpeclabError):
    """An exact re-check of a computed result disagreed with it."""
