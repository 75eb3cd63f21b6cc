"""Exception types shared across the package."""


class InvtrackError(Exception):
    """Base class for errors raised by this package."""


class DivergenceError(InvtrackError, ArithmeticError):
    """Integration produced a non-finite or unbounded state.

    Carries the time at which the blow-up was detected.
    """

    def __init__(self, time: float, message: str = ""):
        self.time = float(time)
        text = message or "state diverged"
        super().__init__(f"{text} at t={time:.6g}")


class GeometryError(InvtrackError, ValueError):
    """Landmark geometry is degenerate (collinear set or ill-conditioned Gram matrix)."""


class DegenerateReferenceError(InvtrackError, ValueError):
    """Reference input with u_r = 0; the tracking feedback is undefined there."""


class ScenarioError(InvtrackError, ValueError):
    """Scenario document violates the schema; message names the offending field."""
