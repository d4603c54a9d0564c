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
rho = a. The envelopes and this solver share the flux kernel of ``profiles``;
the mpmath reference in the test suite checks them independently. The root
find is Brent's method (R. P. Brent, Algorithms for Minimization without
Derivatives, Prentice-Hall 1973, ch. 4): inverse quadratic interpolation
with bisection safeguards, in the step sequence of the classic ``brentq``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import InfeasibleBoundaryError, InfeasibleFluxError, NonConvergenceError
from .estimates import Annulus
from .hyperbolic import RadialFunction
from .profiles import (
    DEFAULT_TOL,
    _anchored_graph,
    _flux_kernel,
    _large_value,
    _slacks_at,
    _small_value,
    as_mean_curvature,
    height,
)
from .quadrature import adaptive_quad


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
    ``evaluator``(b) reproduces the prescribed outer value exactly. Its value
    takes a radius or an array of radii; an array is tabulated in one pass.
    """

    C: float
    shift: float
    evaluator: RadialFunction


def feasible_flux_interval(h, annulus: Annulus) -> tuple[float, float]:
    """Open interval of flux constants whose graphs span the whole annulus.

    Both constraints bind at rho = a: sinh - 2h*cosh is increasing and
    -sinh - 2h*cosh decreasing for h <= 1/2, so the interval is
    (-large(a), -small(a)) with the closed-form branch values at a. Its
    closure endpoints are the fluxes of the two extremal profiles starting on
    the inner circle (the upper endpoint is >= 0 when the hole is too large
    for a small-branch profile).
    """
    h = as_mean_curvature(h)
    return (-_large_value(h, annulus.a), -_small_value(h, annulus.a))


#: Brent's stopping test: |step| below (XTOL + RTOL*|x|)/2, at most MAXITER steps.
_XTOL, _RTOL, _MAXITER = 1e-15, 4.0 * sys.float_info.epsilon, 200


def _brent(f: Callable[[float], float], xa: float, xb: float) -> float:
    """A root of f in [xa, xb], where f changes sign, by Brent's method.

    Inverse quadratic interpolation or a secant step when it stays well
    inside the bracket, bisection otherwise. Raises NonConvergenceError after
    _MAXITER steps.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("the root is not bracketed")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (_XTOL + _RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise NonConvergenceError(f"flux root find did not converge in {_MAXITER} steps")


def _drop(h: float, annulus: Annulus, C: float, slacks: tuple[float, float], tol: float) -> float:
    """u(a) - u(b) of the flux-C graph with the given radicand slacks at a."""
    g, _, points = _flux_kernel(h, C, annulus.a, *slacks)
    return -adaptive_quad(g, 0.0, math.sqrt(annulus.b - annulus.a), tol, points=points)


def integrate_radial(h, annulus: Annulus, C: float, tol: float = DEFAULT_TOL) -> float:
    """Drop u(a) - u(b) of the radial solution with flux constant C.

    Equals -integral over [a, b] of (2h*cosh + C)/sqrt(sinh^2 - (2h*cosh + C)^2),
    strictly decreasing in C. Raises InfeasibleFluxError when C violates the
    graph condition |2h*cosh(rho) + C| <= sinh(rho) somewhere on the annulus
    (endpoint equality, the vertical extremal profiles, is allowed).
    """
    h = as_mean_curvature(h)
    C = float(C)
    c_lo, c_hi = feasible_flux_interval(h, annulus)
    if not c_lo <= C <= c_hi:
        raise InfeasibleFluxError(
            f"flux constant {C:g} outside the graph interval [{c_lo:g}, {c_hi:g}] "
            f"for the annulus [{annulus.a:g}, {annulus.b:g}]"
        )
    return _drop(h, annulus, C, _slacks_at(h, annulus.a, C), tol)


def extremal_drops(h, annulus: Annulus, tol: float = DEFAULT_TOL) -> FeasibleDropInterval:
    """Endpoints of the achievable-drop interval.

    d_max is the drop at the lower end of the flux interval, the large-branch
    profile vertical at a; d_min the drop at the upper end, the small-branch
    profile vertical at a when the hole admits one, and otherwise the limiting
    flux graph (which is no family profile, but still spans the annulus).
    """
    h = as_mean_curvature(h)
    c_lo, c_hi = feasible_flux_interval(h, annulus)
    a = annulus.a
    return FeasibleDropInterval(
        _drop(h, annulus, c_hi, _slacks_at(h, a, c_hi), tol),
        _drop(h, annulus, c_lo, _slacks_at(h, a, c_lo), tol),
    )


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
    h = as_mean_curvature(h)
    u_a, u_b = float(u_a), float(u_b)
    if not (math.isfinite(u_a) and math.isfinite(u_b)):
        raise ValueError(f"boundary values must be finite, got u_a={u_a!r}, u_b={u_b!r}")
    target = u_a - u_b
    c_lo, c_hi = feasible_flux_interval(h, annulus)
    span = c_hi - c_lo

    # The drop has a square-root singularity in C at both ends of the flux
    # interval. C = c_lo + span*sin(theta)^2 makes it Lipschitz in theta at
    # both, and hands the kernel the slacks at a as span*cos^2 and span*sin^2:
    # exact next to either end, where C itself cannot hold the offset.
    def flux_at(theta: float) -> tuple[float, tuple[float, float]]:
        sin2, cos2 = math.sin(theta) ** 2, math.cos(theta) ** 2
        return c_lo + span * sin2, (span * cos2, span * sin2)

    # every drop evaluated so far: the root find starts with both bracket ends
    # and returns a theta it has already evaluated
    drops: dict[float, float] = {}

    def drop_at(theta: float) -> float:
        if theta not in drops:
            drops[theta] = _drop(h, annulus, *flux_at(theta), tol)
        return drops[theta]

    # extremal fluxes are valid integrands (vertical profiles), so the bracket
    # is the closed interval and exactly the open drop interval is solvable
    d_max, d_min = drop_at(0.0), drop_at(0.5 * math.pi)
    if not d_min < target < d_max:
        raise InfeasibleBoundaryError(target, d_min, d_max)

    theta = _brent(lambda t: drop_at(t) - target, 0.0, 0.5 * math.pi)
    c_star, slacks = flux_at(theta)
    achieved = drop_at(theta) - target
    if abs(achieved) > tol:
        raise NonConvergenceError(
            f"flux bisection stalled: drop residual {achieved:g} exceeds tolerance {tol:g}"
        )

    if c_star < 0.0:
        shift = u_b - height(h, -c_star, annulus.b, tol)
    else:
        shift = u_a  # no family anchor; the inner value fixes the translate
    evaluator = _anchored_graph(h, c_star, annulus.a, annulus.b, slacks, u_b, tol)
    return RadialSolution(c_star, shift, evaluator)
