"""Exception types shared across the package."""


class DissipError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DissipError):
    """Operands act on different numbers of sites or different Hilbert spaces."""


class ValidationError(DissipError):
    """A parameter set violates a structural requirement (odd fermionic k, m < 1, ...)."""


class CapacityError(DissipError):
    """A requested object exceeds a size budget (physical memory, term budget)."""


class RefinementError(DissipError):
    """An integration run needs a finer step size to stay within its guards.

    Carries ``suggested_steps`` so callers can retry.
    """

    def __init__(self, message, suggested_steps=None):
        super().__init__(message)
        self.suggested_steps = suggested_steps


class EnumerationBudgetError(DissipError):
    """Exact sign enumeration was requested beyond the 2^m budget."""
