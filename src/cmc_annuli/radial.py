"""Radial Dirichlet solver built on the conserved flux.

Integrating the divergence form of the curvature operator once in rho shows
that every rotational graph with constant mean curvature h satisfies

    sinh(rho) * u'(rho) / sqrt(1 + u'(rho)^2) = 2h*cosh(rho) + C

for some flux constant C, so u' = F / sqrt(sinh^2 - F^2) with
F = 2h*cosh + C. Family profiles are the C = -alpha members, and every radial
solution is a vertical translate of a slope field of this form. Solving the
radial Dirichlet problem on an annulus therefore reduces to a one-dimensional
root find in C, and the achievable drops u(a) - u(b) form an open interval
whose endpoints are exactly the envelope drops of the a-priori estimates:
both are the flux graphs at the ends of the flux interval, anchored at
rho = a. A flux is handed to the kernel as its distances to those ends, its
slacks at a: (c_hi - C, C - c_lo) in ``integrate_radial``, (span*cos^2,
span*sin^2) of theta in the root find, exactly (span, 0) and (0, span) at the
ends (``profiles._vertical_slacks``, as for the envelopes). So the
thresholds, ``extremal_drops`` and the interval of an infeasible solve are
one computation and agree bit for bit. The solution is the graph of its
slacks translated to u_b at b by ``profiles._anchored_graph``, which builds
profiles and envelopes too. Each drop is a closed form in Carlson's elliptic
integrals (``profiles._flux_graph``), good to about 1e-15 relative with no
tolerance of its own; the mpmath reference in the test suite checks them
independently. The root find is false position
in theta with the Anderson-Björck weighting, from the two extremal drops to
a drop within tol/10 of the target; that drop is the solution's rise to b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InfeasibleBoundaryError, InfeasibleFluxError, NonConvergenceError
from .estimates import Annulus
from .hyperbolic import RadialFunction
from .profiles import (
    DEFAULT_TOL,
    _anchored_graph,
    _check_tol,
    _drop,
    _flux_interval,
    _vertical_slacks,
    check_curvature,
    height,
)


@dataclass(frozen=True)
class FeasibleDropInterval:
    """Achievable range of u(a) - u(b) over all radial solutions; open interval."""

    d_min: float
    d_max: float


@dataclass(frozen=True)
class RadialSolution:
    """A radial solution: flux constant, vertical shift, and the height function.

    ``shift`` is the vertical translation relative to the zero-anchored family
    profile with parameter -C when C < 0, and simply u(a) otherwise.
    ``evaluator.value(b)`` is the prescribed outer value exactly. Its value
    and derivative take a radius or an array of radii; an array is tabulated
    in one pass.
    """

    C: float
    shift: float
    evaluator: RadialFunction


#: False-position steps before the root find gives up.
_MAXITER = 100


def _false_position(
    f: Callable[[float], float], x0: float, f0: float, x1: float, f1: float, ftol: float
) -> tuple[float, float]:
    """A point x of [x0, x1] with |f(x)| <= ftol, and f(x), by false position.

    f0 and f1 are f at the ends and differ in sign. Each step takes the secant
    point of the bracket; when the same end is kept twice in a row its residual
    is scaled by m = 1 - f_new/f_old, or by 1/2 when m <= 0 (N. Anderson and
    Å. Björck, BIT 13, 1973). Returns the better end once the secant point
    rounds onto an end; raises NonConvergenceError after _MAXITER steps.
    """
    for x, fx in ((x0, f0), (x1, f1)):
        if abs(fx) <= ftol:
            return x, fx
    if (f0 < 0.0) == (f1 < 0.0):
        raise ValueError("the root is not bracketed")
    w0 = f0  # the kept end's residual as the secant weighs it
    for _ in range(_MAXITER):
        x = x1 - f1 * (x1 - x0) / (f1 - w0)
        if not min(x0, x1) < x < max(x0, x1):
            return (x0, f0) if abs(f0) < abs(f1) else (x1, f1)
        fx = f(x)
        if abs(fx) <= ftol:
            return x, fx
        if (fx < 0.0) == (f1 < 0.0):
            m = 1.0 - fx / f1
            w0 *= m if m > 0.0 else 0.5
        else:
            x0, f0, w0 = x1, f1, f1
        x1, f1 = x, fx
    raise NonConvergenceError(f"flux root find did not converge in {_MAXITER} steps")


def integrate_radial(h, annulus: Annulus, C: float) -> float:
    """Drop u(a) - u(b) of the radial solution with flux constant C.

    Equals -integral over [a, b] of (2h*cosh + C)/sqrt(sinh^2 - (2h*cosh + C)^2),
    strictly decreasing in C. Raises InfeasibleFluxError when C violates the
    graph condition |2h*cosh(rho) + C| <= sinh(rho) somewhere on the annulus
    (endpoint equality, the vertical extremal profiles, is allowed). The
    condition binds at rho = a, since sinh - 2h*cosh increases and
    -sinh - 2h*cosh decreases for h <= 1/2, so the admissible C form the flux
    interval [-large(a), -small(a)].
    """
    h = check_curvature(h)
    C = float(C)
    c_lo, c_hi = _flux_interval(h, annulus.a)
    if not c_lo <= C <= c_hi:
        raise InfeasibleFluxError(
            f"flux constant {C:g} outside the graph interval [{c_lo:g}, {c_hi:g}] "
            f"for the annulus [{annulus.a:g}, {annulus.b:g}]"
        )
    return _drop(h, annulus.a, annulus.b, (c_hi - C, C - c_lo))


def extremal_drops(h, annulus: Annulus) -> FeasibleDropInterval:
    """Endpoints of the achievable-drop interval.

    d_max is the drop at the lower end of the flux interval, the large-branch
    profile vertical at a; d_min the drop at the upper end, the small-branch
    profile vertical at a when the hole admits one, and otherwise the limiting
    flux graph (which is no family profile, but still spans the annulus).
    """
    h = check_curvature(h)
    large, small = _vertical_slacks(annulus.a)
    a, b = annulus.a, annulus.b
    return FeasibleDropInterval(_drop(h, a, b, small), _drop(h, a, b, large))


def solve_radial(
    h,
    annulus: Annulus,
    u_a: float,
    u_b: float,
    tol: float = DEFAULT_TOL,
) -> RadialSolution:
    """Solve the radial Dirichlet problem u(a) = u_a, u(b) = u_b.

    Root-finds the flux constant on the strictly monotone drop over the
    closed feasible interval. Raises InfeasibleBoundaryError, with the
    achievable interval attached, when the requested drop lies outside the
    open achievable interval, consistent with the a-priori estimates.
    """
    h = check_curvature(h)
    tol = _check_tol(tol)
    u_a, u_b = float(u_a), float(u_b)
    if not (math.isfinite(u_a) and math.isfinite(u_b)):
        raise ValueError(f"boundary values must be finite, got u_a={u_a!r}, u_b={u_b!r}")
    target = u_a - u_b
    # the bracket is the closed flux interval, so exactly the open drop interval is solvable
    extremal = extremal_drops(h, annulus)
    if not extremal.d_min < target < extremal.d_max:
        raise InfeasibleBoundaryError(target, extremal.d_min, extremal.d_max)

    # The drop has a square-root singularity in C at both ends of the flux
    # interval. C = c_lo + span*sin(theta)^2 makes it Lipschitz in theta at
    # both, and hands the kernel the slacks at a as span*sin(pi/2 - theta)^2
    # and span*sin(theta)^2: exact next to either end, where C itself cannot
    # hold the offset, and exactly 0 at the ends theta = 0 and pi/2. span is
    # the width of the flux interval, the large end's slack as for the envelopes.
    c_lo, c_hi = _flux_interval(h, annulus.a)
    (span, _), _ = _vertical_slacks(annulus.a)

    def slacks_at(theta: float) -> tuple[float, float]:
        return span * math.sin(0.5 * math.pi - theta) ** 2, span * math.sin(theta) ** 2

    # the bracket ends are the extremal graphs, whose drops are already known;
    # the drop at the returned theta is kept for the evaluator
    drops = {0.0: extremal.d_max, 0.5 * math.pi: extremal.d_min}

    def drop_residual(t: float) -> float:
        drops[t] = _drop(h, annulus.a, annulus.b, slacks_at(t))
        return drops[t] - target

    theta, residual = _false_position(
        drop_residual, 0.0, drops[0.0] - target, 0.5 * math.pi, drops[0.5 * math.pi] - target, 0.1 * tol
    )
    if abs(residual) > tol:
        raise NonConvergenceError(
            f"flux root find stalled: drop residual {residual:g} exceeds tolerance {tol:g}"
        )
    slacks = slacks_at(theta)
    # C from the end its smaller slack is measured from: exactly that end there
    c_star = c_hi - slacks[0] if slacks[0] <= slacks[1] else c_lo + slacks[1]

    if c_star < 0.0:
        shift = u_b - height(h, -c_star, annulus.b)
    else:
        shift = u_a  # no family anchor; the inner value fixes the translate
    evaluator = _anchored_graph(h, annulus.a, annulus.b, slacks, u_b, -drops[theta])
    return RadialSolution(c_star, shift, evaluator)
