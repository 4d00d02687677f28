"""Exception types shared across the package."""


class HexflowError(Exception):
    """Base class for errors raised by this package."""


class ParseError(HexflowError):
    """Malformed surface file. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(HexflowError):
    """Conformal factor lies outside the admissible domain (some edge length
    would be non-positive)."""


class QuadratureError(HexflowError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ConvergenceError(HexflowError):
    """An iterative solver failed: iteration cap, step-size underflow, a
    Newton step that is no ascent direction, or boundary lengths that
    underflow to 0 at the flow's start. ``partial`` holds the best result
    so far when one exists."""

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)
