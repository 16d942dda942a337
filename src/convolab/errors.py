"""Exceptions shared across convolab modules."""


class NoConvergenceError(RuntimeError):
    """An iterative refinement or sweep failed to reach its target.

    Carries the best value achieved, so callers can report partial results.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InconclusiveError(RuntimeError):
    """A quantity cannot be certified from the declared structure.

    Raised e.g. when a symbol lacks a tail declaration and the sampling
    window alone cannot bound a supremum over an unbounded region.
    """
