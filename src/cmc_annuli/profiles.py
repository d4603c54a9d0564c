"""The rotational constant-mean-curvature profile family over the hyperbolic plane.

For mean curvature h in (0, 1/2] and a parameter alpha > 0 there is a
rotational graph of constant mean curvature h whose generating curve starts,
with vertical tangent and height zero, on the circle of hyperbolic radius
rho0(h, alpha) and is defined for all larger radii. Its slope is

    u(rho) = (2h*cosh(rho) - alpha) / sqrt(sinh(rho)^2 - (2h*cosh(rho) - alpha)^2)

and the height profile is the integral of the slope from rho0. The family
splits at alpha = 2h:

    small branch (alpha < 2h): slope >= 0, profile rises from its circle;
    neck (alpha = 2h):         rho0 = 0 and the slope limit at 0 is finite;
    large branch (alpha > 2h): profile dips below zero near its circle, then
                               rises and eventually grows without bound.

Inverse parametrisations by the starting radius are closed forms,
2h*cosh(rho) -/+ sinh(rho); for h < 1/2 the small branch only exists for
starting radii below artanh(2h) (the "hole threshold"), while at h = 1/2 both
branches reach every radius.

Numerics: rho0 is evaluated through the cancellation-free identity
exp(rho0) = (1+2h)/(alpha + sqrt(alpha^2 + 1 - 4h^2)) (one sign of the
exponent per branch), which is h-continuous and reduces to |log(alpha)| at
h = 1/2 exactly.

Every graph of constant mean curvature h over an annulus has a conserved flux,
sinh(rho) u'/sqrt(1 + u'^2) = 2h*cosh(rho) + C; a profile is the C = -alpha
member. A graph reaching out from the circle rho = r0 has C in the flux
interval [-large(r0), -small(r0)], and is given by its two radicand slacks
there, its distances to the ends of that interval. One private kernel
integrates its slope from r0 after the substitution r = r0 + s^2, which
removes the inverse-square-root singularity where the graph is vertical.
Profile heights and slopes, the envelopes of ``estimates`` and the drops and
solutions of ``radial``, values and derivatives alike, all go through it and
one drop quadrature: the integrand g(s) = 2s*u'(r0 + s^2) divided by 2s is
the slope, and one closed form gives it on the anchor circle.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import HoleTooLargeError
from .hyperbolic import MAX_RADIUS, RadialFunction, check_radius
from .quadrature import adaptive_quad, adaptive_quad_panels, layer_breakpoints

if TYPE_CHECKING:
    import numpy as np

#: Default absolute tolerance for height quadrature.
DEFAULT_TOL = 1e-10

#: Relative tolerance used to compare a parameter against the branch point 2h.
PARAM_RTOL = 1e-12

#: Radii this close below a profile's starting radius are treated as on it,
#: absorbing round-trip noise of the inverse parametrisations.
_BOUNDARY_SLACK = 1e-12


class Branch(enum.Enum):
    """Position of the parameter relative to the branch point 2h."""

    SMALL = "small"
    NECK = "neck"
    LARGE = "large"


@dataclass(frozen=True)
class MeanCurvature:
    """The constant h in (0, 1/2]; h = 1/2 is the borderline, hole-free case."""

    h: float

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h)):
            raise ValueError(f"mean curvature must be a finite number, got {self.h!r}")
        if not 0.0 < self.h <= 0.5:
            raise ValueError(f"mean curvature must lie in (0, 1/2], got {self.h!r}")

    @property
    def is_half(self) -> bool:
        return self.h == 0.5

    def __float__(self) -> float:
        return float(self.h)


@dataclass(frozen=True)
class ProfileParameter:
    """A family parameter alpha > 0 tagged with its branch."""

    alpha: float
    branch: Branch

    @classmethod
    def classify(cls, h, alpha) -> "ProfileParameter":
        h = as_mean_curvature(h)
        alpha = float(alpha)
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(f"profile parameter must be positive and finite, got {alpha!r}")
        gap = alpha - 2.0 * h
        if abs(gap) <= PARAM_RTOL * max(alpha, 2.0 * h):
            branch = Branch.NECK
        elif gap < 0.0:
            branch = Branch.SMALL
        else:
            branch = Branch.LARGE
        return cls(alpha, branch)

    def __float__(self) -> float:
        return float(self.alpha)


def as_mean_curvature(h) -> float:
    """Coerce h (float or MeanCurvature) to a validated float."""
    if isinstance(h, MeanCurvature):
        return h.h
    return MeanCurvature(float(h)).h


def as_parameter(h, alpha) -> ProfileParameter:
    """Coerce alpha (float or ProfileParameter) to a branch-tagged parameter."""
    if isinstance(alpha, ProfileParameter):
        return alpha
    return ProfileParameter.classify(h, alpha)


def _small_value(h: float, rho: float) -> float:
    # 2h*cosh(rho) - sinh(rho), in exponential form: exact at h = 1/2 and free
    # of the cosh/sinh cancellation at large rho
    return 0.5 * ((1.0 + 2.0 * h) * math.exp(-rho) - (1.0 - 2.0 * h) * math.exp(rho))


def _large_value(h: float, rho: float) -> float:
    # 2h*cosh(rho) + sinh(rho)
    return 0.5 * ((1.0 + 2.0 * h) * math.exp(rho) - (1.0 - 2.0 * h) * math.exp(-rho))


def _flux_interval(h: float, a: float) -> tuple[float, float]:
    """Fluxes (-large(a), -small(a)) of the large- and small-branch graphs vertical at rho = a."""
    return -_large_value(h, a), -_small_value(h, a)


def hole_threshold(h) -> float:
    """Largest starting radius reached by the small branch.

    Returns artanh(2h) for h < 1/2 (equal to arccosh(1/sqrt(1-4h^2))) and
    math.inf for h = 1/2, where the small branch reaches every radius.
    """
    h = as_mean_curvature(h)
    if h == 0.5:
        return math.inf
    return math.atanh(2.0 * h)


def boundary_radius(h, alpha) -> float:
    """Starting radius rho0 of the profile with parameter alpha.

    Zero exactly when alpha = 2h, strictly decreasing in alpha below 2h and
    strictly increasing above.
    """
    h = as_mean_curvature(h)
    param = as_parameter(h, alpha)
    if param.branch is Branch.NECK:
        return 0.0
    a = param.alpha
    # exp(+/-rho0) = (1+2h)/(alpha + sqrt(alpha^2 + 1 - 4h^2)); 1-2h is exact,
    # so the radicand and the quotient carry no cancellation for any h <= 1/2
    spread = math.sqrt((1.0 - 2.0 * h) * (1.0 + 2.0 * h))
    x = (1.0 + 2.0 * h) / (a + math.hypot(a, spread))
    return abs(math.log(x))


def param_small(h, rho) -> ProfileParameter:
    """Small-branch parameter of the profile starting at radius rho.

    Closed form 2h*cosh(rho) - sinh(rho); defined for rho < artanh(2h) when
    h < 1/2 (raises HoleTooLargeError at or beyond) and for every radius when
    h = 1/2, where it equals exp(-rho) exactly.
    """
    h = as_mean_curvature(h)
    rho = check_radius(rho)
    threshold = hole_threshold(h)
    if rho >= threshold:
        raise HoleTooLargeError(h, rho, threshold)
    value = _small_value(h, rho)
    if value <= 0.0:  # rounding guard; unreachable for rho clearly below threshold
        raise HoleTooLargeError(h, rho, threshold)
    return ProfileParameter.classify(h, value)


def param_large(h, rho) -> ProfileParameter:
    """Large-branch parameter of the profile starting at radius rho.

    Closed form 2h*cosh(rho) + sinh(rho), total on [0, MAX_RADIUS]; equals
    exp(rho) exactly at h = 1/2.
    """
    h = as_mean_curvature(h)
    rho = check_radius(rho)
    return ProfileParameter.classify(h, _large_value(h, rho))


def _check_outside_start(rho0: float, rho: float) -> None:
    """Reject a radius rho inside the starting circle rho0."""
    if rho < rho0 - _BOUNDARY_SLACK:
        raise ValueError(
            f"rho = {rho:g} is inside the starting circle rho0 = {rho0:g} "
            "of this profile"
        )


def _flux_kernel(
    h: float, r0: float, slack_small: float, slack_large: float
) -> tuple[Callable[[float], float], Callable[[np.ndarray], np.ndarray]]:
    """Integrand and its array form for the rise above r0 of the graph with these slacks.

    The rise from r0 to rho is the integral of g(s) = 2s * u'(r0 + s^2) over
    0 <= s <= sqrt(rho - r0); the substitution removes the inverse-square-root
    singularity where the graph is vertical. The slacks fix the graph: they
    are its flux's distances to the ends of the flux interval at r0,
    ``slack_small`` to -small(r0) and ``slack_large`` to -large(r0). The
    radicand factors are these slacks plus their growth since r0 in expm1
    form, which keeps full relative accuracy however close the flux is to an
    end. A slack that no flux constant could carry stays exact: a graph
    vertical at r0 has one slack exactly 0, and a flux t^2 above the lower end
    has slack_large = t^2 even below the rounding of the flux. The flux
    F(r0 + d) is its value at r0, (slack_large - slack_small)/2, plus its growth
    h*(cosh(r0)*up*down + sinh(r0)*(up + down)), with up*down = 4 sinh(d/2)^2
    and up + down = 2 sinh(d). The growth is a sum of nonnegative terms, so
    F keeps its digits where the graph turns horizontal, as at the neck,
    where F(r0) = 0. The array form evaluates the same expressions
    elementwise, for ``adaptive_quad_panels``.
    """
    exp_plus, exp_minus = math.exp(r0), math.exp(-r0)
    cosh0, sinh0 = math.cosh(r0), math.sinh(r0)
    coef_plus, coef_minus = 1.0 + 2.0 * h, 1.0 - 2.0 * h
    flux0 = 0.5 * (slack_large - slack_small)

    def g(s: float) -> float:
        d = s * s
        up = math.expm1(d)
        down = -math.expm1(-d)
        # small(r0) - small(r0 + d) and large(r0 + d) - large(r0)
        grow_small = 0.5 * (coef_plus * exp_minus * down + coef_minus * exp_plus * up)
        grow_large = 0.5 * (coef_plus * exp_plus * up + coef_minus * exp_minus * down)
        radicand = (slack_small + grow_small) * (slack_large + grow_large)
        if radicand <= 0.0:
            return 0.0  # s = 0 on a vertical circle, a node Gauss-Kronrod never samples
        flux = flux0 + h * (cosh0 * up * down + sinh0 * (up + down))
        return 2.0 * s * flux / math.sqrt(radicand)

    def g_array(s: np.ndarray) -> np.ndarray:
        import numpy as np

        d = s * s
        up = np.expm1(d)
        down = -np.expm1(-d)
        grow_small = 0.5 * (coef_plus * exp_minus * down + coef_minus * exp_plus * up)
        grow_large = 0.5 * (coef_plus * exp_plus * up + coef_minus * exp_minus * down)
        radicand = (slack_small + grow_small) * (slack_large + grow_large)
        vertical = radicand <= 0.0
        root = np.sqrt(np.where(vertical, 1.0, radicand))
        flux = flux0 + h * (cosh0 * up * down + sinh0 * (up + down))
        return np.where(vertical, 0.0, 2.0 * s * flux / root)

    return g, g_array


def _kernel_breakpoints(h: float, r0: float, slack_small: float, slack_large: float) -> list[float]:
    """Quadrature breakpoints of ``_flux_kernel``'s integrand: the turnover scales
    of its radicand factors, slack + growth * s^2 with growth cosh(r0) -+ 2h sinh(r0)."""
    cosh0, sinh0 = math.cosh(r0), math.sinh(r0)
    return layer_breakpoints(
        ((slack_small, cosh0 - 2.0 * h * sinh0), (slack_large, cosh0 + 2.0 * h * sinh0))
    )


def _is_array_like(x) -> bool:
    """np.ndim(x) > 0 without numpy: an array of one or more dimensions, or a sequence."""
    ndim = getattr(x, "ndim", None)
    if ndim is not None:
        return ndim > 0
    return isinstance(x, Sequence) and not isinstance(x, (str, bytes))


def _anchor_slope(slacks: tuple[float, float]) -> float:
    """Slope on the anchor circle, where g(s)/(2s) is 0/0: F/sqrt(radicand), the
    signed infinity of F where one slack is 0, and 0 where both are (the neck)."""
    flux0, radicand = 0.5 * (slacks[1] - slacks[0]), slacks[0] * slacks[1]
    if radicand > 0.0:
        return flux0 / math.sqrt(radicand)
    return math.copysign(math.inf, flux0) if flux0 else 0.0


def _drop(h: float, a: float, b: float, slacks: tuple[float, float], tol: float) -> float:
    """u(a) - u(b) of the graph anchored at a with the given radicand slacks there."""
    g, _ = _flux_kernel(h, a, *slacks)
    return -adaptive_quad(g, 0.0, math.sqrt(b - a), tol, points=_kernel_breakpoints(h, a, *slacks))


def _anchored_graph(
    h: float, a: float, b: float, slacks: tuple[float, float], top: float, tol: float
) -> RadialFunction:
    """The graph with radicand ``slacks`` at a, over [a, b], translated to the value ``top`` at b.

    The value callable takes a radius, one point quadrature, or an array of
    radii, all panels of the sorted radii in one pass; both give exactly
    ``top`` at b. A number or a 0-d array is a radius and gives a float; a
    list, a tuple or an array of one or more dimensions gives an array of its
    shape. The derivative takes a radius and is the same integrand g(s)/(2s).
    """
    g, g_array = _flux_kernel(h, a, *slacks)
    points = _kernel_breakpoints(h, a, *slacks)
    s_b = math.sqrt(b - a)
    lo, hi = a - _BOUNDARY_SLACK, b + _BOUNDARY_SLACK

    def outside(rho) -> ValueError:
        return ValueError(f"rho = {rho} outside the annulus [{a:g}, {b:g}]")

    def value(rho):
        if _is_array_like(rho):
            import numpy as np

            radii = np.asarray(rho, dtype=float)
            if not np.all((radii >= lo) & (radii <= hi)):
                raise outside(radii)
            s = np.sqrt(np.maximum(radii - a, 0.0)).ravel()
            order = np.argsort(s)
            rises = adaptive_quad_panels(g_array, np.append(s[order], s_b), tol, points)
            out = np.empty_like(s)
            out[order] = top - (rises[-1] - rises[:-1])
            return out.reshape(radii.shape)
        rho = float(rho)
        if not lo <= rho <= hi:
            raise outside(rho)
        return top - adaptive_quad(g, math.sqrt(max(rho - a, 0.0)), s_b, tol, points=points)

    def derivative(rho: float) -> float:
        rho = float(rho)
        if not lo <= rho <= hi:
            raise outside(rho)
        if rho <= a:
            return _anchor_slope(slacks)
        s = math.sqrt(rho - a)
        return g(s) / (2.0 * s)

    return RadialFunction(value, derivative, (a, b))


def _profile_slacks(param: ProfileParameter, rho0: float) -> tuple[float, float]:
    """Slacks of a family profile on its own circle: 0 at its end of the flux interval, 2*sinh(rho0) at the other."""
    span = 2.0 * math.sinh(rho0)  # large(rho0) - small(rho0); 0 for the neck
    return (span, 0.0) if param.branch is Branch.LARGE else (0.0, span)


def slope(h, alpha, rho) -> float:
    """Slope u(rho) of the profile, signed infinity on its starting circle.

    The profile is the flux graph with C = -alpha, and the slope is its
    kernel's integrand g(s)/(2s) at s = sqrt(rho - rho0). On the small branch
    the vertical approach is from +inf, on the large branch from -inf; the
    neck profile has the finite limit 0 at rho = 0 (slope ~ h*rho).
    """
    h = as_mean_curvature(h)
    param = as_parameter(h, alpha)
    return _slope(h, param, boundary_radius(h, param), rho)


def _slope(h: float, param: ProfileParameter, rho0: float, rho) -> float:
    """``slope`` of the profile whose starting circle rho0 is already known."""
    rho = check_radius(rho)
    _check_outside_start(rho0, rho)
    slacks = _profile_slacks(param, rho0)
    if rho <= rho0:
        return _anchor_slope(slacks)
    g, _ = _flux_kernel(h, rho0, *slacks)
    s = math.sqrt(rho - rho0)
    return g(s) / (2.0 * s)


def height(h, alpha, rho, tol: float = DEFAULT_TOL) -> float:
    """Profile height at radius rho, zero on the starting circle.

    Computed by adaptive quadrature of the slope after the desingularizing
    substitution, to absolute tolerance ``tol``. Nonnegative and nondecreasing
    on the small branch; dips below zero near the starting circle on the large
    branch.
    """
    h = as_mean_curvature(h)
    param = as_parameter(h, alpha)
    return _height(h, param, boundary_radius(h, param), rho, tol)


def _height(h: float, param: ProfileParameter, rho0: float, rho, tol: float) -> float:
    """``height`` of the profile whose starting circle rho0 is already known."""
    rho = check_radius(rho)
    _check_outside_start(rho0, rho)
    if rho <= rho0:
        return 0.0
    return -_drop(h, rho0, rho, _profile_slacks(param, rho0), tol)


def sample_profile(h, alpha, rho_max, n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Tabulate (rho, height, slope) at n radii from the starting circle to rho_max.

    The first row sits on the starting circle with height exactly zero and the
    vertical-slope sentinel (finite for the neck profile). Heights accumulate
    panel by panel, so consecutive differences equal the single-panel
    quadratures.
    """
    h = as_mean_curvature(h)
    param = as_parameter(h, alpha)
    rho_max = check_radius(rho_max, name="rho_max")
    n = int(n)
    if n < 2:
        raise ValueError(f"need at least 2 sample rows, got n = {n}")
    rho0 = boundary_radius(h, param)
    if rho_max <= rho0:
        raise ValueError(
            f"rho_max = {rho_max:g} must exceed the starting radius rho0 = {rho0:g}"
        )

    import numpy as np

    radii = np.linspace(rho0, rho_max, n)
    s = np.sqrt(radii - rho0)
    slacks = _profile_slacks(param, rho0)
    _, g_array = _flux_kernel(h, rho0, *slacks)
    heights = adaptive_quad_panels(g_array, s, tol, _kernel_breakpoints(h, rho0, *slacks))
    slopes = np.divide(g_array(s), 2.0 * s, out=np.full(n, _anchor_slope(slacks)), where=s > 0.0)
    return np.column_stack([radii, heights, slopes])


@dataclass(frozen=True)
class HeightProfile:
    """An immutable, quadrature-backed profile; safe to share across threads."""

    h: float
    param: ProfileParameter
    rho0: float
    tol: float = DEFAULT_TOL

    def height(self, rho) -> float:
        return _height(self.h, self.param, self.rho0, rho, self.tol)

    def slope(self, rho) -> float:
        return _slope(self.h, self.param, self.rho0, rho)

    def sample(self, rho_max, n: int) -> np.ndarray:
        return sample_profile(self.h, self.param, rho_max, n, self.tol)

    def as_radial_function(self, upper: float = MAX_RADIUS) -> RadialFunction:
        return RadialFunction(self.height, self.slope, (self.rho0, upper))


def height_profile(h, alpha, tol: float = DEFAULT_TOL) -> HeightProfile:
    """Build a HeightProfile for the given curvature and parameter."""
    h = as_mean_curvature(h)
    param = as_parameter(h, alpha)
    return HeightProfile(h, param, boundary_radius(h, param), tol)
