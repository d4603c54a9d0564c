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

h and alpha are plain floats, h checked by ``check_curvature``. A profile is
``HeightProfile(h, alpha)``, whose branch and starting radius rho0 are
derived from the two, so a copy made with another h or alpha re-derives them.

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
there, its distances to the ends of that interval. One private kernel,
``_flux_graph``, gives its slope and its rise from r0. With t = cosh(rho) the
rise is an elliptic integral whose four linear factors are positive on the
annulus, so it is a closed form in Carlson's R_F, R_J and R_C (``carlson``),
built from the slacks without cancellation. One wrapper, ``_anchored_graph``,
translates such a graph to a given value at a given radius and checks its
radii; profiles (0 on their circle), the envelopes of ``estimates`` and the
solutions of ``radial`` are all built by it, values and derivatives alike,
points and tables alike. A graph vertical on its circle has the slacks of
``_vertical_slacks``, the one rule for profiles, envelopes, thresholds and
extremal drops.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import HoleTooLargeError
from .hyperbolic import MAX_RADIUS, RadialFunction, check_radius
from .carlson import rc, rf_rj

if TYPE_CHECKING:
    import numpy as np

#: Default absolute tolerance of ``solve_radial``'s root find. Heights, drops
#: and envelopes are closed forms and take no tolerance.
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


def check_curvature(h) -> float:
    """Validate a mean curvature: finite, in (0, 1/2]; h = 1/2 is the hole-free borderline."""
    h = float(h)
    if not math.isfinite(h):
        raise ValueError(f"mean curvature must be a finite number, got {h!r}")
    if not 0.0 < h <= 0.5:
        raise ValueError(f"mean curvature must lie in (0, 1/2], got {h!r}")
    return h


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
    h = check_curvature(h)
    if h == 0.5:
        return math.inf
    return math.atanh(2.0 * h)


def boundary_radius(h, alpha) -> float:
    """Starting radius rho0 of the profile with parameter alpha.

    Zero exactly when alpha = 2h, strictly decreasing in alpha below 2h and
    strictly increasing above.
    """
    return HeightProfile(h, alpha).rho0


def param_small(h, rho) -> float:
    """Small-branch parameter of the profile starting at radius rho.

    Closed form 2h*cosh(rho) - sinh(rho); defined for rho < artanh(2h) when
    h < 1/2 (raises HoleTooLargeError at or beyond) and for every radius when
    h = 1/2, where it equals exp(-rho) exactly.
    """
    h = check_curvature(h)
    rho = check_radius(rho)
    threshold = hole_threshold(h)
    if rho >= threshold:
        raise HoleTooLargeError(h, rho, threshold)
    value = _small_value(h, rho)
    if value <= 0.0:  # rounding guard: it can round to 0 within an ulp or so of the threshold
        raise HoleTooLargeError(h, rho, threshold)
    return value


def param_large(h, rho) -> float:
    """Large-branch parameter of the profile starting at radius rho.

    Closed form 2h*cosh(rho) + sinh(rho), total on [0, MAX_RADIUS]; equals
    exp(rho) exactly at h = 1/2.
    """
    h = check_curvature(h)
    rho = check_radius(rho)
    return _large_value(h, rho)


def _check_tol(tol) -> float:
    """Validate a caller's tolerance: finite and positive."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def _check_count(n, minimum: int, what: str = "sample rows", name: str = "n") -> int:
    """Validate a count: an integer, as ``operator.index`` takes it, of at least ``minimum``."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if count < minimum:
        raise ValueError(f"need at least {minimum} {what}, got {name} = {count}")
    return count


def _flux_graph(h: float, r0: float, slack_small: float, slack_large: float) -> tuple[Callable, Callable]:
    """Rise u(r) - u(r0) and slope u'(r) of the graph with these radicand slacks at r0.

    The slacks are the flux's distances to the ends of the flux interval at
    r0, ``slack_small`` to -small(r0) and ``slack_large`` to -large(r0); one
    is exactly 0 for a graph vertical at r0. Both callables take ``(xp, r)``,
    xp ``math`` with a float r or numpy with an array, and run the same
    expressions either way; at r <= r0 the rise is 0 and the slope its limit,
    infinite where one slack is 0. The radicand factors sinh(r) -/+ F(r) are
    the slacks plus their growth since r0 in expm1 form, and F(r) is its value
    at r0 plus a growth that is a sum of nonnegative terms, so neither loses
    digits next to a vertical circle or where the graph turns horizontal.

    With t = cosh(rho) the rise is the integral of (2ht + C)/sqrt(f1 f2 f3 f4)
    with f1 = t - 1, f2 = t + 1, f3 = t - r+ and f4 = k*t + c4 (k = 1 - 4h^2,
    f3*f4 = sinh^2 - F^2), all positive on [cosh r0, cosh r]. Carlson's
    reduction (Math. Comp. 49, 1987; 51, 1988) of 2ht + C = 2h*f1 + e gives
    2h * (2 R_C(P^2, Q^2) - (4/3) e^2 R_J(U12^2, U13^2, U14^2, W^2))
    + 2e * R_F(U12^2, U13^2, U14^2), with W^2 = U12^2 + e^2, Q = W/(X1 Y1),
    P^2 = Q^2 + k and U_ij = (X_i X_j Y_k Y_l + Y_i Y_j X_k X_l)/(cosh r - cosh r0),
    X_i = sqrt(f_i(cosh r)) and Y_i = sqrt(f_i(cosh r0)) built from half-angle
    sinh and cosh and the factors above, without subtraction. R_F and R_J share
    their first three arguments and come from one duplication loop
    (``carlson.rf_rj``). The factors must
    be one polynomial's, so the rise takes the smaller slack as given and the
    other as 2 sinh(r0) minus it: slacks summing to the rounded width
    c_hi - c_lo would be off by a large fraction of it for r0 near 0. On the
    neck (r0 = 0) Y1 = 0, and the rise is 4h*D*R_C(1 + k*D^2, 1) with
    D = sinh(r/2)^2/(cosh(r/2) + sqrt(4h^2 + k*cosh(r/2)^2)).
    """
    exp_plus, exp_minus = math.exp(r0), math.exp(-r0)
    cosh0, sinh0 = math.cosh(r0), math.sinh(r0)
    half_sinh, half_cosh = math.sinh(0.5 * r0), math.cosh(0.5 * r0)
    coef_plus, coef_minus = 1.0 + 2.0 * h, 1.0 - 2.0 * h
    k = coef_plus * coef_minus
    # C and e = 2h + C from the end the smaller slack is measured from;
    # sinh(r0) -/+ 4h sinh(r0/2)^2 has no cancellation in these forms
    c_lo, c_hi = _flux_interval(h, r0)
    if slack_small <= slack_large:
        exact = (slack_small, 2.0 * sinh0 - slack_small)
        C = c_hi - slack_small
        e = half_sinh * (coef_minus * math.exp(0.5 * r0) + coef_plus * math.exp(-0.5 * r0)) - slack_small
    else:
        exact = (2.0 * sinh0 - slack_large, slack_large)
        C = c_lo + slack_large
        e = slack_large - sinh0 - 4.0 * h * half_sinh * half_sinh
    flux0 = 0.5 * (slack_large - slack_small)
    radicand0 = slack_small * slack_large
    if radicand0 > 0.0:
        anchor_slope = flux0 / math.sqrt(radicand0)
    else:
        anchor_slope = math.copysign(math.inf, flux0) if flux0 else 0.0

    def factors(xp, r, slacks):
        """Growth of F since r0, and the radicand factors sinh(r) -/+ F(r) for these slacks."""
        up = xp.expm1(r - r0)
        down = -xp.expm1(r0 - r)
        # small(r0) - small(r) and large(r) - large(r0) added to the slacks
        small = slacks[0] + 0.5 * (coef_plus * exp_minus * down + coef_minus * exp_plus * up)
        large = slacks[1] + 0.5 * (coef_plus * exp_plus * up + coef_minus * exp_minus * down)
        return h * (cosh0 * up * down + sinh0 * (up + down)), small, large

    def slope_beyond(xp, r):
        growth, small, large = factors(xp, r, (slack_small, slack_large))
        return (flux0 + growth) / xp.sqrt(small * large)

    def neck_rise(xp, r):
        c = xp.cosh(0.5 * r)
        d = xp.sinh(0.5 * r) ** 2 / (c + xp.sqrt(4.0 * h * h + k * c * c))
        return 4.0 * h * d * rc(1.0 + k * d * d, 1.0)

    root = math.sqrt(C * C + k)
    # c4 = sqrt(C^2 + k) - 2hC, which cancels for C > 0 unless written as a quotient
    c4 = root - 2.0 * h * C if C <= 0.0 else k * (1.0 + C * C) / (root + 2.0 * h * C)
    y1, y2 = math.sqrt(2.0) * half_sinh, math.sqrt(2.0) * half_cosh
    y4_sq = k * cosh0 + c4
    y3, y4 = math.sqrt(exact[0] * exact[1] / y4_sq), math.sqrt(y4_sq)

    def rise_beyond(xp, r):
        _, small, large = factors(xp, r, exact)
        x1, x2 = math.sqrt(2.0) * xp.sinh(0.5 * r), math.sqrt(2.0) * xp.cosh(0.5 * r)
        x4_sq = k * xp.cosh(r) + c4
        x3, x4 = xp.sqrt(small * large / x4_sq), xp.sqrt(x4_sq)
        gap = 2.0 * xp.sinh(0.5 * (r + r0)) * xp.sinh(0.5 * (r - r0))  # cosh(r) - cosh(r0)
        u12 = ((x1 * x2 * y3 * y4 + y1 * y2 * x3 * x4) / gap) ** 2
        u13 = ((x1 * x3 * y2 * y4 + y1 * y3 * x2 * x4) / gap) ** 2
        u14 = ((x1 * x4 * y2 * y3 + y1 * y4 * x2 * x3) / gap) ** 2
        w2 = u12 + e * e
        q2 = w2 / (x1 * y1) ** 2
        r_f, r_j = rf_rj(u12, u13, u14, w2)
        return 2.0 * h * (2.0 * rc(q2 + k, q2) - 4.0 / 3.0 * e * e * r_j) + 2.0 * e * r_f

    def beyond(f, at_r0):
        """f where r > r0 and ``at_r0`` elsewhere."""
        def on_graph(xp, r):
            if xp is math:
                return f(math, r) if r > r0 else at_r0
            inside = r > r0
            return xp.where(inside, f(xp, xp.where(inside, r, r0 + 1.0)), at_r0)

        return on_graph

    return beyond(neck_rise if r0 == 0.0 else rise_beyond, 0.0), beyond(slope_beyond, anchor_slope)


def _is_array_like(x) -> bool:
    """np.ndim(x) > 0 without numpy: an array of one or more dimensions, or a sequence."""
    ndim = getattr(x, "ndim", None)
    if ndim is not None:
        return ndim > 0
    return isinstance(x, Sequence) and not isinstance(x, (str, bytes))


def _drop(h: float, a: float, b: float, slacks: tuple[float, float]) -> float:
    """u(a) - u(b) of the graph anchored at a with the given radicand slacks there."""
    rise, _ = _flux_graph(h, a, *slacks)
    return -rise(math, b)


def _vertical_slacks(r0: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Slacks at r0 of the graphs vertical there: (span, 0) on the large branch, (0, span) on the small.

    span is large(r0) - small(r0) written as 2 sinh(r0), 0 on the neck: the
    rounded width c_hi - c_lo of the flux interval has a relative error of
    about 1e-16/r0, which the slopes would carry next to a tiny circle.
    """
    span = 2.0 * math.sinh(r0)
    return (span, 0.0), (0.0, span)


def _anchored_graph(
    h: float,
    a: float,
    b: float,
    slacks: tuple[float, float],
    top: float,
    rise_top: float | None = None,
    at: float | None = None,
) -> RadialFunction:
    """The graph with radicand ``slacks`` at a, over [a, b], translated to the value ``top`` at ``at``.

    ``at`` is b unless given; a profile has it at a, with top 0. The value at
    rho is top minus the difference of the rises from a to ``at`` and to rho.
    The rise to ``at`` is the float ``rise_top`` (minus the ``_drop`` of these
    slacks for ``at`` = b), computed here when not given. Value and derivative
    check their radii against [a, b] alike: a number or a 0-d array is a
    radius and gives a float; a list, a tuple or an array of one or more
    dimensions gives an array of its shape. Both give exactly ``top`` at
    ``at`` and top - rise_top at a.
    """
    if at is None:
        at = b
    rise, slope = _flux_graph(h, a, *slacks)
    if rise_top is None:
        rise_top = rise(math, at)
    lo, hi = max(a - _BOUNDARY_SLACK, 0.0), b + _BOUNDARY_SLACK

    def on_domain(rho):
        """(xp, rho): math and a float for a radius, numpy and an array for radii."""
        if _is_array_like(rho):
            import numpy as xp

            rho = xp.asarray(rho, dtype=float)
            below, inside = xp.any(rho < lo), xp.all((rho >= lo) & (rho <= hi))
        else:
            xp, rho = math, float(rho)
            below, inside = rho < lo, lo <= rho <= hi
        if below:
            raise ValueError(f"rho = {rho} is inside the starting circle rho = {a:g}")
        if not inside:
            raise ValueError(f"rho = {rho} is outside [{a:g}, {b:g}]")
        return xp, rho

    def value(rho):
        xp, rho = on_domain(rho)
        rises = rise(math, rho) if xp is math else xp.where(rho == at, rise_top, rise(xp, rho))
        return top - (rise_top - rises)

    def derivative(rho):
        xp, rho = on_domain(rho)
        return slope(xp, rho)

    return RadialFunction(value, derivative, (a, b))


def slope(h, alpha, rho) -> float:
    """Slope u(rho) of the profile, signed infinity on its starting circle.

    The profile is the flux graph with C = -alpha, and the slope is
    F/sqrt(sinh^2 - F^2) from its radicand slacks at rho0. On the small branch
    the vertical approach is from +inf, on the large branch from -inf; the
    neck profile has the finite limit 0 at rho = 0 (slope ~ h*rho).
    """
    return HeightProfile(h, alpha).slope(rho)


def height(h, alpha, rho) -> float:
    """Profile height at radius rho, zero on the starting circle.

    A closed form in Carlson's elliptic integrals, good to about 1e-15
    relative. Nonnegative and nondecreasing on the small branch; dips below
    zero near the starting circle on the large branch.
    """
    return HeightProfile(h, alpha).height(rho)


def sample_profile(h, alpha, rho_max, n: int) -> np.ndarray:
    """Tabulate (rho, height, slope) at n radii from the starting circle to rho_max.

    The first row sits on the starting circle with height exactly zero and the
    vertical-slope sentinel (finite for the neck profile). Every row is the
    closed form of ``height`` and ``slope``, evaluated for all rows at once.
    """
    return HeightProfile(h, alpha).sample(rho_max, n)


@dataclass(frozen=True)
class HeightProfile:
    """The profile ``HeightProfile(h, alpha)``; immutable, safe to share across threads.

    h and alpha are floats; ``branch``, alpha's side of 2h (within a relative
    PARAM_RTOL on the neck), and the starting radius ``rho0`` are derived.
    """

    h: float
    alpha: float
    branch: Branch = field(init=False)
    rho0: float = field(init=False)

    def __post_init__(self):
        h = check_curvature(self.h)
        alpha = float(self.alpha)
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(f"profile parameter must be positive and finite, got {alpha!r}")
        gap = alpha - 2.0 * h
        if abs(gap) <= PARAM_RTOL * max(alpha, 2.0 * h):
            branch = Branch.NECK
        elif gap < 0.0:
            branch = Branch.SMALL
        else:
            branch = Branch.LARGE
        # exp(+/-rho0) = (1+2h)/(alpha + sqrt(alpha^2 + 1 - 4h^2)); 1-2h is exact,
        # so the radicand and the quotient carry no cancellation for any h <= 1/2
        spread = math.sqrt((1.0 - 2.0 * h) * (1.0 + 2.0 * h))
        x = (1.0 + 2.0 * h) / (alpha + math.hypot(alpha, spread))
        rho0 = 0.0 if branch is Branch.NECK else abs(math.log(x))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "rho0", rho0)

    def _graph(self, upper: float = MAX_RADIUS) -> RadialFunction:
        """The profile as the graph vertical on its circle, 0 there, over [rho0, upper]."""
        large, small = _vertical_slacks(self.rho0)
        slacks = large if self.branch is Branch.LARGE else small
        return _anchored_graph(self.h, self.rho0, upper, slacks, 0.0, 0.0, self.rho0)

    def height(self, rho) -> float:
        return self._graph().value(check_radius(rho))

    def slope(self, rho) -> float:
        return self._graph().derivative(check_radius(rho))

    def sample(self, rho_max, n: int) -> np.ndarray:
        """``sample_profile`` of this profile."""
        rho_max = check_radius(rho_max, name="rho_max")
        n = _check_count(n, 2)
        if rho_max <= self.rho0:
            raise ValueError(
                f"rho_max = {rho_max:g} must exceed the starting radius rho0 = {self.rho0:g}"
            )

        import numpy as np

        radii = np.linspace(self.rho0, rho_max, n)
        graph = self._graph()
        return np.column_stack([radii, graph.value(radii), graph.derivative(radii)])

    def as_radial_function(self, upper: float = MAX_RADIUS) -> RadialFunction:
        """The profile over [rho0, upper]; value and derivative take a radius or radii."""
        return self._graph(check_radius(upper, name="upper"))
