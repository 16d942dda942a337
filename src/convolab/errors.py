"""Exceptions shared across convolab modules."""


class InconclusiveError(RuntimeError):
    """A quantity cannot be certified from the declared structure.

    Raised e.g. when a symbol lacks a tail declaration and the sampling
    window alone cannot bound a supremum over an unbounded region.
    """
