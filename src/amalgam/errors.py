"""Exception types shared across the package."""

from __future__ import annotations


class InvalidRingError(ValueError):
    """Raised when candidate tables fail the ring axioms at construction time."""

    def __init__(self, violation, message: str = ""):
        self.violation = violation
        super().__init__(message or f"ring axioms violated: {violation}")


class NotAnIdealError(ValueError):
    """Raised when a member set is not a two-sided ideal of its host ring."""


class NotAHomError(ValueError):
    """Raised when a map fails to preserve 1, + or *; carries the first HomViolation."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"not a homomorphism: {violation}")


class HostMismatchError(ValueError):
    """Raised when an operation mixes elements of different host rings."""


class SizeBudgetError(ValueError):
    """Raised when a construction would exceed the configured size budget."""


class SearchBudgetError(RuntimeError):
    """Raised when an enumeration or property search exceeds its node budget."""


class InternalInvariantError(RuntimeError):
    """Raised when a result fails its own re-validation; indicates a bug."""
