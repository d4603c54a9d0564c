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
rho = a. A flux is handed to the graph (``profiles._Graph``) as its
distances to those ends, its slacks at a: (c_hi - C, C - c_lo) in
``integrate_radial``, and ``profiles._slacks`` of an end and a slack in the
root find and at its ends, as for the envelopes. So the thresholds,
``extremal_drops`` and the interval of an infeasible solve are one
computation and agree bit for bit. Each drop is a closed form in Carlson's
elliptic integrals, good to about 1e-15 relative. The middle graph picks the
half of the flux interval that holds the root, and the package's one root
find, Anderson-Björck false position, runs in s = sqrt(slack from that half's
end), where the drop's square-root singularity is smooth and s^2 keeps its
digits however close the root lies. Its graph within tol/10 of the target, each
built at u_b on b, or an end already that close, is the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InfeasibleBoundaryError, InfeasibleFluxError, NonConvergenceError
from .estimates import Annulus
from .hyperbolic import RadialFunction, _finite
from .profiles import (
    DEFAULT_TOL,
    _LARGE,
    _SMALL,
    _Graph,
    _flux_interval,
    _slacks,
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
    point of the bracket, as an offset from the end with the smaller weighted
    residual so that it keeps its digits next to that end; when the same end
    is kept twice in a row its residual is scaled by m = 1 - f_new/f_old, or
    by 1/2 when m <= 0 (N. Anderson and Å. Björck, BIT 13, 1973). Returns the
    better end once the secant point rounds onto an end; raises
    NonConvergenceError after _MAXITER steps.
    """
    for x, fx in ((x0, f0), (x1, f1)):
        if abs(fx) <= ftol:
            return x, fx
    if (f0 < 0.0) == (f1 < 0.0):
        raise ValueError("the root is not bracketed")
    w0 = f0  # the kept end's residual as the secant weighs it
    for _ in range(_MAXITER):
        x = x0 + w0 * (x1 - x0) / (w0 - f1) if abs(w0) < abs(f1) else x1 - f1 * (x1 - x0) / (f1 - w0)
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
    C = _finite(C, "flux constant C")
    c_lo, c_hi = _flux_interval(h, annulus.a)
    if not c_lo <= C <= c_hi:
        raise InfeasibleFluxError(
            f"flux constant {C:g} outside the graph interval [{c_lo:g}, {c_hi:g}] "
            f"for the annulus [{annulus.a:g}, {annulus.b:g}]"
        )
    return -_Graph(h, annulus.a, annulus.b, (c_hi - C, C - c_lo), 0.0).rise_at


def extremal_drops(h, annulus: Annulus) -> FeasibleDropInterval:
    """Endpoints of the achievable-drop interval.

    d_max is the drop at the lower end of the flux interval, the large-branch
    profile vertical at a; d_min the drop at the upper end, the small-branch
    profile vertical at a when the hole admits one, and otherwise the limiting
    flux graph (which is no family profile, but still spans the annulus).
    """
    h = check_curvature(h)
    a, b = annulus.a, annulus.b
    d_min, d_max = (-_Graph(h, a, b, _slacks(a, end), 0.0).rise_at for end in (_SMALL, _LARGE))
    return FeasibleDropInterval(d_min, d_max)


def solve_radial(
    h,
    annulus: Annulus,
    u_a: float,
    u_b: float,
    tol: float = DEFAULT_TOL,
) -> RadialSolution:
    """Solve the radial Dirichlet problem u(a) = u_a, u(b) = u_b.

    Root-finds the flux constant on the strictly monotone drop over the
    closed feasible interval, until the drop is within ``tol`` of
    u_a - u_b; ``tol`` is floored at 4 ulps of u_a - u_b, the closest a drop
    of that size can be asked to come. Raises InfeasibleBoundaryError, with
    the achievable interval attached, when the requested drop lies outside the
    open achievable interval, consistent with the a-priori estimates.
    """
    h = check_curvature(h)
    tol = _finite(tol, "tolerance", positive=True)
    u_a, u_b = _finite(u_a, "u_a"), _finite(u_b, "u_b")
    target = u_a - u_b
    a, b = annulus.a, annulus.b
    # the extremal graphs at u_b on b, so the interval is ``extremal_drops`` bit for bit
    large, small = (_Graph(h, a, b, _slacks(a, end), u_b) for end in (_LARGE, _SMALL))
    d_max, d_min = -large.rise_at, -small.rise_at
    # the bracket is the closed flux interval, so exactly the open drop interval is solvable
    if not d_min < target < d_max:
        raise InfeasibleBoundaryError(target, d_min, d_max)
    tol = max(tol, 4.0 * math.ulp(target))
    ftol = 0.1 * tol
    graph = min((large, small), key=lambda g: abs(g.rise_at + target))  # the answer if within ftol
    if abs(graph.rise_at + target) > ftol:
        end, graphs = _LARGE, {}  # by s; the middle's, from _LARGE, is a rounding off its mirror

        def drop_residual(s: float) -> float:
            graphs[s] = _Graph(h, a, b, _slacks(a, end, s * s), u_b)
            return -graphs[s].rise_at - target

        s_mid = math.sqrt(math.sinh(a))  # the middle: slack sinh(a) from either end
        f_mid = drop_residual(s_mid)
        # the middle's drop above the target puts the root in the small half
        end, graphs[0.0] = (_SMALL, small) if f_mid > 0.0 else (_LARGE, large)
        s, _ = _false_position(drop_residual, 0.0, -graphs[0.0].rise_at - target, s_mid, f_mid, ftol)
        graph = graphs[s]
    residual = -graph.rise_at - target
    if abs(residual) > tol:
        raise NonConvergenceError(
            f"flux root find stalled: drop residual {residual:g} exceeds tolerance {tol:g}"
            f" (one ulp of the target is {math.ulp(target):g})"
        )
    if graph.C < 0.0:
        shift = u_b - height(h, -graph.C, b)
    else:
        shift = u_a  # no family anchor; the inner value fixes the translate
    return RadialSolution(graph.C, shift, graph.radial_function())
