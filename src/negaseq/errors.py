"""Shared exception types.  The CLI exits 3 on every `BudgetError` and 1 on
`NotAnNosError`; an `InternalConsistencyError` reports a bug."""


class NegaseqError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(NegaseqError):
    """An enumeration, a search, a DOT export or a bound table exceeds its
    size budget."""


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
    the search found a non-NOS walk or a walk longer than the bound, or the
    flow bound failed: `flow_bound` met an excess with no path to a deficit,
    or the search found F // 2 above `nos_bound` or below a recorded walk."""
