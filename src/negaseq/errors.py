"""Shared exception types."""


class NegaseqError(Exception):
    """Base class for all errors raised by this package."""


class EnumerationBudgetError(NegaseqError):
    """k^n exceeds the configured enumeration budget."""


class GraphSizeError(NegaseqError):
    """A DOT export or a search exceeds its size budget."""


class NotAnNosError(NegaseqError):
    """A sequence passed where an NOS was required is not one.

    Carries the colliding window indices as (stream, index) pairs, where
    stream is "S" or "-S^R".
    """

    def __init__(self, message, first, second):
        super().__init__(message)
        self.first = first
        self.second = second


class InternalConsistencyError(NegaseqError):
    """A closed-form numerator came out odd, two routes to a bound disagree,
    or the search found a non-NOS walk or a walk longer than the bound."""
