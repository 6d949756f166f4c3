"""Exception types shared across the package."""


class StripcapError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(StripcapError):
    """Invalid geometry: points outside the domain, degenerate curves, ..."""


class OverlapError(GeometryError):
    """Boundary curves intersect or come too close to each other."""


class MemoryLimitError(StripcapError):
    """A problem size whose dense kernels exceed the machine's memory."""


class ConvergenceError(StripcapError):
    """An iterative solve failed to reach its tolerance.

    Carries the residual/error history so callers can inspect what happened.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
