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
    """An evolution drifted past its trace or positivity guard."""


class EnumerationBudgetError(DissipError):
    """Exact sign enumeration was requested beyond the 2^m budget."""
