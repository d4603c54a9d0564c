"""Adaptive Gauss-Kronrod quadrature with strict failure reporting.

The rule is QUADPACK's 21-point Kronrod extension of the 10-point Gauss rule
with QUADPACK's error estimate (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, QUADPACK, Springer 1983, routines QK21 and QAG). Refinement is
global: the sub-interval with the largest error estimate is halved until the
summed estimate meets the tolerance. Two drivers share the rule:

* ``adaptive_quad`` integrates a scalar callable over one interval, one
  node at a time; a point query is a single panel, where plain Python calls
  are cheaper than a numpy round trip;
* ``adaptive_quad_panels`` integrates an array callable over every panel of
  a table at once, each panel to the same tolerance a point query would get.

Only ``adaptive_quad_panels`` uses numpy, and imports it when called, so a
point query never loads it.

Both raise QuadratureError when the tolerance is not reached within
``SUBDIVISION_LIMIT`` sub-intervals, a non-finite integrand included.
"""

from __future__ import annotations

import heapq
import math
import sys
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import QuadratureError

if TYPE_CHECKING:
    import numpy as np

# Abscissae of the 21-point Kronrod rule on [-1, 1] in ascending order; the
# odd positions are the nodes of the 10-point Gauss rule (QUADPACK's QK21).
_X_POS = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WK_POS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208175231070,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WK_CENTRE = 0.149445554002916905664936468389821
_WG_POS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

NODES = tuple(-x for x in _X_POS) + (0.0,) + _X_POS[::-1]
KRONROD_WEIGHTS = _WK_POS + (_WK_CENTRE,) + _WK_POS[::-1]
GAUSS_WEIGHTS = _WG_POS + _WG_POS[::-1]  # at NODES[1::2]

_EPS = sys.float_info.epsilon
_ROUNDOFF_FLOOR = sys.float_info.min / (50.0 * _EPS)  # QUADPACK's uflow/(50*epmach)

#: Smallest relative error asked of any integral (QUADPACK accepts ~50 eps).
EPSREL = 5e-14

#: Most sub-intervals one integral (one table panel) may be split into.
SUBDIVISION_LIMIT = 200


def layer_breakpoints(pairs: Iterable[tuple[float, float]]) -> list[float]:
    """Turnover scales of radicand factors slack + growth*s^2, as breakpoints.

    A factor with a small positive slack turns from flat to quadratic at
    s = sqrt(slack/growth); when that scale is narrower than the sampler's
    initial spacing the whole layer can be stepped over, so it is handed to
    the integrator explicitly (with a couple of guard multiples). Both
    drivers keep the ones inside each interval they integrate.
    """
    points: list[float] = []
    for slack, growth in pairs:
        if slack <= 0.0 or growth <= 0.0:
            continue
        width = math.sqrt(slack / growth)
        points.extend((width, 8.0 * width, 64.0 * width))
    return sorted(points)


def _gk21(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Kronrod value of f over [lo, hi] and QUADPACK's error estimate.

    The estimate scales |K - G| by the rule applied to |f - mean|, resasc,
    and is floored at 50 eps times the rule applied to |f|, resabs.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = [f(centre + half * x) for x in NODES]
    kronrod = sum(map(mul, KRONROD_WEIGHTS, values))
    gauss = sum(map(mul, GAUSS_WEIGHTS, values[1::2]))
    mean = 0.5 * kronrod
    width = abs(half)
    err = abs(kronrod - gauss) * width
    resasc = sum(map(mul, KRONROD_WEIGHTS, [abs(v - mean) for v in values])) * width
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    resabs = sum(map(mul, KRONROD_WEIGHTS, map(abs, values))) * width
    if resabs > _ROUNDOFF_FLOOR:
        err = max(50.0 * _EPS * resabs, err)
    return kronrod * half, err


def adaptive_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    points: list[float] | None = None,
) -> float:
    """Integrate f over [lo, hi] to absolute tolerance tol (Gauss-Kronrod, adaptive).

    ``points`` marks interior scales the sampler must not step over (sharp
    boundary layers narrower than the initial node spacing); the ones inside
    (lo, hi) start the subdivision. The summed error estimate must reach
    max(tol, EPSREL*|integral|). Raises QuadratureError when it does not
    within SUBDIVISION_LIMIT sub-intervals, or when f is not finite.
    """
    if tol <= 0.0:
        raise ValueError("quadrature tolerance must be positive")
    if lo == hi:
        return 0.0
    cuts = [lo, *[p for p in points if lo < p < hi], hi] if points else [lo, hi]
    heap = []
    total = error = 0.0
    for left, right in zip(cuts, cuts[1:]):
        value, err = _gk21(f, left, right)
        heap.append((-err, left, right, value))
        total += value
        error += err
    heapq.heapify(heap)
    # written so that a NaN error estimate keeps refining and then raises
    while not error <= max(tol, EPSREL * abs(total)):
        if len(heap) >= SUBDIVISION_LIMIT:
            raise QuadratureError(
                f"tolerance {tol:g} not reached on [{lo:g}, {hi:g}] "
                f"(error estimate {error:g} after {len(heap)} subintervals)"
            )
        neg_err, left, right, value = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        value_l, err_l = _gk21(f, left, mid)
        value_r, err_r = _gk21(f, mid, right)
        heapq.heappush(heap, (-err_l, left, mid, value_l))
        heapq.heappush(heap, (-err_r, mid, right, value_r))
        total += value_l + value_r - value
        error += err_l + err_r + neg_err
    return math.fsum(item[3] for item in heap)


def _gk21_array(F: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """``_gk21`` of F over each of the intervals [lo, hi], in one call of F."""
    import numpy as np

    nodes, kronrod_weights = np.array(NODES), np.array(KRONROD_WEIGHTS)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = F(centre[:, None] + half[:, None] * nodes)
    kronrod = values @ kronrod_weights
    gauss = values[:, 1::2] @ np.array(GAUSS_WEIGHTS)
    width = np.abs(half)
    err = np.abs(kronrod - gauss) * width
    resasc = (np.abs(values - 0.5 * kronrod[:, None]) @ kronrod_weights) * width
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    resabs = (np.abs(values) @ kronrod_weights) * width
    err = np.where(resabs > _ROUNDOFF_FLOOR, np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def adaptive_quad_panels(
    F: Callable[[np.ndarray], np.ndarray],
    edges,
    tol: float,
    points: list[float] | None = None,
) -> np.ndarray:
    """Cumulative integrals of F from edges[0] to each of the ascending edges.

    Every panel [edges[k], edges[k+1]] is integrated to absolute tolerance
    tol, as ``adaptive_quad`` would integrate it, but all panels at once:
    F takes an array of abscissae and returns the integrand there. A panel
    starts split at the ``points`` inside it. While a panel's summed error
    estimate exceeds max(tol, EPSREL*|panel integral|), each of its
    sub-intervals whose estimate exceeds half its width's share of that
    target is halved; half, so that rounding of the shares cannot leave a
    pending panel with nothing to split. Raises QuadratureError when a panel needs more than
    SUBDIVISION_LIMIT sub-intervals, or when F is not finite.
    """
    import numpy as np

    if tol <= 0.0:
        raise ValueError("quadrature tolerance must be positive")
    edges = np.asarray(edges, dtype=float)
    n = len(edges) - 1
    lo, hi, owner = edges[:-1].copy(), edges[1:].copy(), np.arange(n)
    for p in points or ():
        inside = np.flatnonzero((lo < p) & (p < hi))
        if inside.size:
            k = inside[0]
            lo, hi, owner = np.append(lo, p), np.append(hi, hi[k]), np.append(owner, owner[k])
            hi[k] = p
    panel_width = np.abs(np.diff(edges))
    value, err = _gk21_array(F, lo, hi)
    while True:
        total = np.bincount(owner, value, n)
        target = np.maximum(tol, EPSREL * np.abs(total))
        # written so that a NaN error estimate keeps refining and then raises
        pending = ~(np.bincount(owner, err, n) <= target)
        if not pending.any():
            return np.concatenate(([0.0], np.cumsum(total)))
        split = pending[owner] & ~(2.0 * err * panel_width[owner] <= target[owner] * np.abs(hi - lo))
        pieces = np.bincount(owner, minlength=n) + np.bincount(owner[split], minlength=n)
        if pieces.max() > SUBDIVISION_LIMIT:
            k = int(np.argmax(pieces))
            raise QuadratureError(
                f"tolerance {tol:g} not reached on the panel [{edges[k]:g}, {edges[k + 1]:g}] "
                f"within {SUBDIVISION_LIMIT} subintervals"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_owner = np.tile(owner[split], 2)
        new_value, new_err = _gk21_array(F, new_lo, new_hi)
        keep = ~split
        lo, hi, owner = (np.concatenate((x[keep], y)) for x, y in
                         ((lo, new_lo), (hi, new_hi), (owner, new_owner)))
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))
