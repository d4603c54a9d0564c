"""Poincare-disc primitives: radius conversion, radial flux, curvature checker.

The hyperbolic plane is modelled as the unit disc with conformal factor
2/(1-|z|^2). All radii in public interfaces are geodesic distances from the
origin ("hyperbolic radii"); the disc coordinate radius appears only as the
input of ``euclidean_to_hyperbolic`` below. In geodesic polar coordinates the
metric is d(rho)^2 + sinh(rho)^2 d(theta)^2, which is where every sinh/cosh
in this package comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: Radii above this are rejected by operations that take one. cosh overflows
#: near 710; rejecting early avoids silently inf-contaminated results.
MAX_RADIUS = 100.0


def _finite(value, name: str, positive: bool = False) -> float:
    """``float(value)``, raising ValueError unless it is finite (and, if asked, positive).

    The one check of every numeric input of the package; a value ``float``
    rejects, None or "x", fails it like nan.
    """
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise ValueError(f"{name} must be finite{' and positive' if positive else ''}, got {value!r}")
    return x


def check_radius(rho: float, *, name: str = "rho") -> float:
    """Validate a hyperbolic radius: finite, nonnegative, below MAX_RADIUS."""
    rho = _finite(rho, name)
    if rho < 0.0:
        raise ValueError(f"{name} must be a nonnegative radius, got {rho!r}")
    if rho > MAX_RADIUS:
        raise ValueError(f"{name} = {rho:g} exceeds the supported maximum {MAX_RADIUS:g}")
    return rho


def euclidean_to_hyperbolic(r: float) -> float:
    """Geodesic distance from the origin of the disc point at coordinate radius r.

    Integrating the conformal factor along a ray gives
    rho = log((1+r)/(1-r)) = 2*artanh(r). Requires 0 <= r < 1.
    """
    r = _finite(r, "disc coordinate radius")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"disc coordinate radius must lie in [0, 1), got {r!r}")
    return 2.0 * math.atanh(r)


@dataclass(frozen=True)
class RadialFunction:
    """A rotationally symmetric height function rho -> value.

    Carries its first derivative, which for the package's graphs comes from
    the same flux kernel as the value; the curvature checker below reads only
    the derivative, never the value. ``domain`` is the closed interval of
    radii on which both callables are valid; each end is checked, and stored,
    as a radius.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        lo, hi = check_radius(lo, name="domain start"), check_radius(hi, name="domain end")
        object.__setattr__(self, "domain", (lo, hi))


def flux(slope: float, rho: float) -> float:
    """Conserved radial flux sinh(rho) * slope / sqrt(1 + slope^2).

    Constant in rho along any radial graph of constant mean curvature; its
    absolute value is < sinh(rho) for finite slope. A signed infinite slope
    (vertical graph) is accepted and returns +/- sinh(rho); a NaN slope is not.
    """
    rho = _finite(rho, "rho")
    if rho < 0.0:
        raise ValueError(f"flux requires a nonnegative radius, got {rho!r}")
    s = math.sinh(rho)
    if slope in (math.inf, -math.inf):
        return math.copysign(s, slope)
    slope = _finite(slope, "slope")
    # hypot keeps slope/sqrt(1+slope^2) accurate for huge finite slopes
    return s * slope / math.hypot(1.0, slope)


def mean_curvature_radial(
    u: RadialFunction,
    rho: float,
    step: float = 1e-4,
) -> float:
    """Twice the mean curvature of the rotational graph of ``u`` at radius rho.

    Evaluates (1/sinh rho) d/drho [ sinh(rho) u'/sqrt(1+u'^2) ] by a central
    difference of the flux, second-order accurate in ``step``. Only u' enters,
    so vertical translates of ``u`` give bitwise identical results.
    """
    rho = _finite(rho, "rho")
    step = _finite(step, "step", positive=True)
    if rho <= 0.0:
        raise ValueError("mean_curvature_radial needs rho > 0 (sinh(rho) divides)")
    lo, hi = u.domain
    if rho - step < lo or rho + step > hi:
        raise ValueError(
            f"stencil [{rho - step:g}, {rho + step:g}] leaves the domain [{lo:g}, {hi:g}]"
        )

    f_plus = flux(u.derivative(rho + step), rho + step)
    f_minus = flux(u.derivative(rho - step), rho - step)
    return (f_plus - f_minus) / (2.0 * step * math.sinh(rho))
