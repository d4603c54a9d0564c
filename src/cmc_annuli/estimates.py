"""A-priori height envelopes on circular annuli and the non-existence verdict.

Any graph of constant mean curvature h on the annulus a <= rho <= b is pinned
between two vertical translates of family profiles that start on the inner
circle: the large-branch profile bounds it from above once shifted to match
the outer maximum M, and the small-branch profile (which exists for every
annulus at h = 1/2, and for a < artanh(2h) otherwise) bounds it from below
once shifted to the outer minimum m. Both envelopes depend only on the
annulus and the outer boundary values. Inner Dirichlet data that exits the
box at rho = a therefore certifies that no solution exists. The envelopes
are the graphs at the ends of the flux interval at a, with the radicand
slacks (span, 0) and (0, span) there of ``profiles._vertical_slacks``, so a
threshold is the outer extreme plus an extremal drop, M + d_max or
m + d_min: one closed-form drop, as in ``radial.extremal_drops``. Envelopes
are ``profiles._anchored_graph``'s, like profiles and radial solutions:
values and derivatives take a radius or an array of radii, and an array is
tabulated in one pass of the same closed form. h and the parameters of the
two profiles, ``param_large(h, a)`` and ``param_small(h, a)``, are plain
floats, and ``Annulus`` and ``OuterBoundaryData`` store their values as the
floats they validate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import HoleTooLargeError
from .hyperbolic import MAX_RADIUS, RadialFunction
from .profiles import (
    _anchored_graph,
    _check_count,
    _drop,
    _vertical_slacks,
    check_curvature,
    param_small,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Annulus:
    """Circular annulus a <= rho <= b in hyperbolic radii, 0 < a < b."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"annulus radii must be finite, got a={self.a!r}, b={self.b!r}")
        if not 0.0 < a < b:
            raise ValueError(f"annulus needs 0 < a < b, got a={a:g}, b={b:g}")
        if b > MAX_RADIUS:
            raise ValueError(f"outer radius {b:g} exceeds the supported maximum {MAX_RADIUS:g}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class OuterBoundaryData:
    """Extremes of the prescribed values on the outer circle rho = b."""

    m: float
    M: float

    def __post_init__(self):
        m, M = float(self.m), float(self.M)
        if not (math.isfinite(m) and math.isfinite(M)):
            raise ValueError("boundary extremes must be finite")
        if m > M:
            raise ValueError(f"need m <= M, got m={m:g} > M={M:g}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)


def _outer_value(value, name: str) -> float:
    """An outer boundary value as a float, checked like ``OuterBoundaryData``'s."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"outer {name} must be finite, got {value!r}")
    return x


def upper_envelope(h, annulus: Annulus, M: float) -> RadialFunction:
    """Upper bound for any cmc-h graph on the annulus with outer maximum M.

    The large-branch profile starting at rho = a, vertically translated so its
    value at rho = b equals M. Exists for every annulus and every h.
    """
    h = check_curvature(h)
    M = _outer_value(M, "maximum M")
    large, _ = _vertical_slacks(annulus.a)
    return _anchored_graph(h, annulus.a, annulus.b, large, M)


def lower_envelope(h, annulus: Annulus, m: float) -> RadialFunction:
    """Lower bound for any cmc-h graph on the annulus with outer minimum m.

    The small-branch profile starting at rho = a, translated so its value at
    rho = b equals m. Raises HoleTooLargeError when h < 1/2 and
    a >= artanh(2h), where no such profile exists.
    """
    h = check_curvature(h)
    m = _outer_value(m, "minimum m")
    param_small(h, annulus.a)  # raises where the hole is too large
    _, small = _vertical_slacks(annulus.a)
    return _anchored_graph(h, annulus.a, annulus.b, small, m)


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
    inner_min, inner_max = float(inner_min), float(inner_max)
    if not (math.isfinite(inner_min) and math.isfinite(inner_max)):
        raise ValueError(f"inner data must be finite, got {inner_min!r} and {inner_max!r}")
    if inner_min > inner_max:
        raise ValueError(f"need inner_min <= inner_max, got {inner_min:g} > {inner_max:g}")
    h = check_curvature(h)
    large, small = _vertical_slacks(annulus.a)
    t_upper = data.M + _drop(h, annulus.a, annulus.b, large)
    try:
        param_small(h, annulus.a)
    except HoleTooLargeError:
        t_lower = None
    else:
        t_lower = data.m + _drop(h, annulus.a, annulus.b, small)
    if inner_max > t_upper:
        return FeasibilityResult(Verdict.VIOLATES_UPPER, t_upper, t_lower, inner_max - t_upper)
    if t_lower is not None and inner_min < t_lower:
        return FeasibilityResult(Verdict.VIOLATES_LOWER, t_upper, t_lower, t_lower - inner_min)
    margin = inner_max - t_upper
    if t_lower is not None:
        margin = max(margin, t_lower - inner_min)
    return FeasibilityResult(Verdict.INCONCLUSIVE, t_upper, t_lower, margin)
