"""Exception types shared across the library."""

__all__ = [
    "SpaceMismatchError",
    "DomainError",
    "SureLossError",
    "NotExactError",
    "InfeasibleTotalError",
    "ClosureBudgetError",
]


class SpaceMismatchError(ValueError):
    """Two values that must live on the same possibility space do not."""


class DomainError(ValueError):
    """An assessment domain lacks structure an operation requires."""


class SureLossError(ValueError):
    """An operation that needs a sure-loss-avoiding assessment got one that is not."""


class NotExactError(ValueError):
    """An operation that needs an exact assessment got one that is not."""


class InfeasibleTotalError(ValueError):
    """No mass functional dominating the assessment has the requested total mass."""


class ClosureBudgetError(RuntimeError):
    """A lattice closure exceeded the configured element budget."""
