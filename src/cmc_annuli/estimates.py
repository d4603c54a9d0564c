"""A-priori height envelopes on circular annuli and the non-existence verdict.

Any graph of constant mean curvature h on the annulus a <= rho <= b is pinned
between two vertical translates of family profiles that start on the inner
circle: the large-branch profile bounds it from above once shifted to match
the outer maximum M, and the small-branch profile (which exists for every
annulus at h = 1/2, and for a < artanh(2h) otherwise) bounds it from below
once shifted to the outer minimum m. Both envelopes depend only on the
annulus and the outer boundary values. Inner Dirichlet data that exits the
box at rho = a therefore certifies that no solution exists. The envelopes
are the graphs at the ends of the flux interval at a (``profiles._slacks``
at ``_LARGE`` and ``_SMALL``), so a threshold is the outer extreme plus an
extremal drop, M + d_max or m + d_min: one closed-form drop, as in
``radial.extremal_drops``. Envelopes are ``profiles._Graph``, like profiles
and radial solutions: values and derivatives take a radius or an array of
radii, and an array is tabulated in one pass of the same closed form. h and the parameters of the two profiles,
``param_large(h, a)`` and ``param_small(h, a)``, are plain floats, and
``Annulus`` and ``OuterBoundaryData`` store their values as the floats they
validate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import HoleTooLargeError
from .hyperbolic import RadialFunction, _finite, check_radius
from .profiles import _LARGE, _SMALL, _Graph, _check_count, _slacks, check_curvature, param_small

if TYPE_CHECKING:
    import numpy as np


#: Smallest inner radius: the closed-form drops square a^2-sized factors, nan
#: from about a = 1e-77 and dividing by zero from about 1e-81
_MIN_INNER_RADIUS = 1e-70


@dataclass(frozen=True)
class Annulus:
    """Circular annulus a <= rho <= b in hyperbolic radii, 1e-70 <= a < b <= MAX_RADIUS."""

    a: float
    b: float

    def __post_init__(self):
        a, b = check_radius(self.a, name="a"), check_radius(self.b, name="b")
        if not _MIN_INNER_RADIUS <= a < b:
            raise ValueError(f"annulus needs {_MIN_INNER_RADIUS:g} <= a < b, got a={a:g}, b={b:g}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class OuterBoundaryData:
    """Extremes of the prescribed values on the outer circle rho = b."""

    m: float
    M: float

    def __post_init__(self):
        m, M = _finite(self.m, "outer minimum m"), _finite(self.M, "outer maximum M")
        if m > M:
            raise ValueError(f"need m <= M, got m={m:g} > M={M:g}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)


def upper_envelope(h, annulus: Annulus, M: float) -> RadialFunction:
    """Upper bound for any cmc-h graph on the annulus with outer maximum M.

    The large-branch profile starting at rho = a, vertically translated so its
    value at rho = b equals M. Exists for every annulus and every h.
    """
    h = check_curvature(h)
    M = _finite(M, "outer maximum M")
    return _Graph(h, annulus.a, annulus.b, _slacks(annulus.a, _LARGE), M).radial_function()


def lower_envelope(h, annulus: Annulus, m: float) -> RadialFunction:
    """Lower bound for any cmc-h graph on the annulus with outer minimum m.

    The small-branch profile starting at rho = a, translated so its value at
    rho = b equals m. Raises HoleTooLargeError when h < 1/2 and
    a >= artanh(2h), where no such profile exists.
    """
    h = check_curvature(h)
    m = _finite(m, "outer minimum m")
    param_small(h, annulus.a)  # raises where the hole is too large
    return _Graph(h, annulus.a, annulus.b, _slacks(annulus.a, _SMALL), m).radial_function()


@dataclass(frozen=True)
class AprioriBounds:
    """Both envelopes over an annulus; ``lower`` is None when the hole is too large.

    The envelopes are the profiles vertical on the inner circle, shifted to
    the outer data: ``upper`` the large-branch one, of parameter
    ``param_large(h, a)``, and ``lower`` the small-branch one, of parameter
    ``param_small(h, a)``.
    """

    annulus: Annulus
    upper: RadialFunction
    lower: Optional[RadialFunction]

    def sample(self, n: int = 256) -> np.ndarray:
        """Tabulate (rho, lower, upper) on a uniform grid; lower is NaN when absent."""
        n = _check_count(n, 2)
        import numpy as np

        radii = np.linspace(self.annulus.a, self.annulus.b, n)
        upper = self.upper.value(radii)
        lower = np.full_like(upper, np.nan) if self.lower is None else self.lower.value(radii)
        return np.column_stack([radii, lower, upper])


def bounding_box(h, annulus: Annulus, data: OuterBoundaryData) -> AprioriBounds:
    """Assemble both envelopes; the lower one is omitted when the hole is too large."""
    upper = upper_envelope(h, annulus, data.M)
    try:
        lower = lower_envelope(h, annulus, data.m)
    except HoleTooLargeError:
        lower = None
    return AprioriBounds(annulus, upper, lower)


class Verdict(enum.Enum):
    """Outcome of comparing inner Dirichlet data against the envelopes at rho = a."""

    VIOLATES_UPPER = "violates_upper"
    VIOLATES_LOWER = "violates_lower"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FeasibilityResult:
    """A verdict of ``dirichlet_feasibility`` and the thresholds at rho = a behind it.

    ``threshold_upper`` is the upper envelope's value at a, M + d_max, and
    ``threshold_lower`` the lower envelope's, m + d_min, or None when the hole
    is too large for a lower envelope (h < 1/2 and a >= artanh(2h)).
    ``margin`` is positive for a Violates* verdict, the size of the violation;
    for Inconclusive it is at most 0, minus the distance of the inner data to
    the nearest threshold.
    """

    verdict: Verdict
    threshold_upper: float
    threshold_lower: Optional[float]
    margin: float


def dirichlet_feasibility(
    h,
    annulus: Annulus,
    inner_min: float,
    inner_max: float,
    data: OuterBoundaryData,
) -> FeasibilityResult:
    """Decide whether inner Dirichlet data certifiably admits no cmc-h graph.

    Inner data exceeding the upper envelope at rho = a (or undercutting the
    lower one, when it exists) cannot be attained by any solution, so a
    Violates* verdict certifies non-existence. Inconclusive certifies nothing.
    The margin is the violation size for a Violates* verdict and the (negative)
    distance to the nearest threshold otherwise. Shifting all boundary data by
    one constant shifts the thresholds identically and preserves the verdict.
    """
    inner_min, inner_max = _finite(inner_min, "inner_min"), _finite(inner_max, "inner_max")
    if inner_min > inner_max:
        raise ValueError(f"need inner_min <= inner_max, got {inner_min:g} > {inner_max:g}")
    h = check_curvature(h)
    a, b = annulus.a, annulus.b
    t_upper = data.M - _Graph(h, a, b, _slacks(a, _LARGE), 0.0).rise_at
    try:
        param_small(h, a)
    except HoleTooLargeError:
        t_lower = None
    else:
        t_lower = data.m - _Graph(h, a, b, _slacks(a, _SMALL), 0.0).rise_at
    if inner_max > t_upper:
        return FeasibilityResult(Verdict.VIOLATES_UPPER, t_upper, t_lower, inner_max - t_upper)
    if t_lower is not None and inner_min < t_lower:
        return FeasibilityResult(Verdict.VIOLATES_LOWER, t_upper, t_lower, t_lower - inner_min)
    margin = inner_max - t_upper
    if t_lower is not None:
        margin = max(margin, t_lower - inner_min)
    return FeasibilityResult(Verdict.INCONCLUSIVE, t_upper, t_lower, margin)
