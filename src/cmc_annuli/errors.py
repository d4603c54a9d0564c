"""Exception types shared across the toolkit."""

from __future__ import annotations


class HoleTooLargeError(ValueError):
    """The inner radius admits no inward-rising profile.

    For mean curvature h < 1/2 the small-branch parameter 2h*cosh(rho) - sinh(rho)
    turns negative once rho reaches artanh(2h), so no profile is vertical on a
    circle that large.
    """

    def __init__(self, h: float, rho: float, threshold: float):
        self.h = h
        self.rho = rho
        self.threshold = threshold
        super().__init__(
            f"hole radius {rho:g} >= artanh(2h) = {threshold:g} for h = {h:g}: "
            "no small-branch profile exists"
        )


class InfeasibleFluxError(ValueError):
    """Flux constant violates the graph condition |2h*cosh(rho) + C| <= sinh(rho)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    Kept in the public API for compatibility: drops, heights and envelopes are
    closed forms now, and nothing in the package raises it.
    """


class InfeasibleBoundaryError(Exception):
    """Radial Dirichlet data whose drop lies outside the achievable interval.

    Carries the requested drop u(a) - u(b) and the achievable interval so
    callers can report a certified non-existence margin.
    """

    def __init__(self, requested_drop: float, d_min: float, d_max: float):
        self.requested_drop = requested_drop
        self.d_min = d_min
        self.d_max = d_max
        super().__init__(
            f"requested drop {requested_drop:g} outside achievable interval "
            f"({d_min:g}, {d_max:g})"
        )


class NonConvergenceError(RuntimeError):
    """Iterative solver failed to reach tolerance.

    For the 2D solver the diagnostic report (and last iterate) is attached;
    steep data violating the a-priori envelopes is the expected trigger.
    """

    def __init__(self, message: str, report=None, field=None):
        self.report = report
        self.field = field
        super().__init__(message)
