"""Exception types shared across the package."""


class HolantError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(HolantError):
    """Raised when an edge-list file or inline graph description is malformed."""


class BudgetExceededError(HolantError):
    """Raised when an enumeration would exceed the configured term budget."""


class OutsideRegionError(HolantError):
    """Raised when a model falls outside the certified zero-free region."""


class DecompositionError(HolantError):
    """Raised when a symmetric matrix admits no usable Gram factorization."""


class RootFindingError(HolantError):
    """Raised when candidate roots fail the residual check.

    The candidates come from one eigenvalue solve; nothing is iterated.
    They are carried in ``partial_roots``.
    """

    def __init__(self, message, partial_roots=()):
        super().__init__(message)
        self.partial_roots = tuple(partial_roots)
