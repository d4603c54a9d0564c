"""Adaptive quadrature wrapper with strict failure reporting."""

from __future__ import annotations

import math
from typing import Callable, Iterable

from scipy.integrate import quad

from .errors import QuadratureError


def layer_breakpoints(pairs: Iterable[tuple[float, float]]) -> list[float]:
    """Turnover scales of radicand factors slack + growth*s^2, as breakpoints.

    A factor with a small positive slack turns from flat to quadratic at
    s = sqrt(slack/growth); when that scale is narrower than the sampler's
    initial spacing the whole layer can be stepped over, so it is handed to
    the integrator explicitly (with a couple of guard multiples).
    ``adaptive_quad`` keeps the ones inside each interval it integrates.
    """
    points: list[float] = []
    for slack, growth in pairs:
        if slack <= 0.0 or growth <= 0.0:
            continue
        width = math.sqrt(slack / growth)
        points.extend((width, 8.0 * width, 64.0 * width))
    return sorted(points)

# smallest relative tolerance QUADPACK accepts is ~50*eps; keep epsabs in charge
_EPSREL = 5e-14
_SUBDIVISION_LIMIT = 200


def adaptive_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    points: list[float] | None = None,
) -> float:
    """Integrate f over [lo, hi] to absolute tolerance tol (Gauss-Kronrod, adaptive).

    ``points`` marks interior scales the sampler must not step over (sharp
    boundary layers narrower than the initial node spacing). Raises
    QuadratureError when the requested tolerance is not reached within the
    subdivision limit.
    """
    if tol <= 0.0:
        raise ValueError("quadrature tolerance must be positive")
    if lo == hi:
        return 0.0
    if points:
        points = [p for p in points if lo < p < hi]
    out = quad(
        f,
        lo,
        hi,
        epsabs=tol,
        epsrel=_EPSREL,
        limit=_SUBDIVISION_LIMIT,
        full_output=True,
        points=points or None,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > max(tol, abs(value) * _EPSREL):
        raise QuadratureError(
            f"tolerance {tol:g} not reached on [{lo:g}, {hi:g}] "
            f"(error estimate {abserr:g}): {out[3]}"
        )
    return value
