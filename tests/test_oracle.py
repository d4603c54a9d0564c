"""Drops, feasibility thresholds, profile heights, slopes and the neck integrand against mpmath.

The envelopes and the radial solver share one flux kernel, so agreeing with
each other shows little; this reference shares nothing with the package. It
integrates the slope F/sqrt(sinh^2 - F^2), F = 2h*cosh(r) + C, of a flux
graph that is vertical at r = a, after the substitution r = a + s^2. The
factor of the radicand that vanishes at a is written as a product,

    sinh(r) -/+ F(r) = 2 sinh(d/2) * (cosh(a + d/2) -/+ 2h sinh(a + d/2)),  d = r - a,

so the integrand is smooth in s up to s = 0 and nothing cancels. For the
extremal drops a is the inner radius; for a profile it is the starting
radius, found from alpha by ``mpmath.findroot``.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import cmc_annuli as ca
from cmc_annuli.profiles import _Graph, _flux_interval

DIGITS = 50

CASES = [
    (0.3, 1.0, 2.0),  # hole too large: d_min is the limiting flux graph
    (0.05, 0.3, 1.3),
    (0.45, 0.9, 2.3),
    (0.5, 0.7, 1.9),
    (0.4, math.atanh(0.8) - 1e-9, math.atanh(0.8) + 1.0),  # just inside the hole threshold
]


def _drop(h, a, b, sign):
    """u(a) - u(b) of the flux graph vertical at a; sign +1 rises from a, -1 dips."""
    f_a = sign * mp.sinh(a)  # F at r = a, so C = f_a - 2h cosh(a)

    def integrand(s):
        d = s * s
        r, mid = a + d, a + d / 2
        f = f_a + 2 * h * (mp.cosh(r) - mp.cosh(a))
        # 2s / sqrt(2 sinh(d/2)) = 2 / sqrt(sinh(d/2) / (d/2))
        ratio = 2 / mp.sqrt(mp.sinh(d / 2) / (d / 2)) if d else mp.mpf(2)
        vanishing = mp.cosh(mid) - sign * 2 * h * mp.sinh(mid)
        other = mp.sinh(r) + sign * f
        return ratio * f / mp.sqrt(vanishing * other)

    return -mp.quad(integrand, [0, mp.sqrt(b - a)])


def reference(h, a, b):
    """(d_min, d_max, hole_ok) to 50 digits, for float inputs taken as exact."""
    with mp.workdps(DIGITS):
        hm, am, bm = mp.mpf(h), mp.mpf(a), mp.mpf(b)
        hole_ok = h == 0.5 or am < mp.atanh(2 * hm)
        return float(_drop(hm, am, bm, +1)), float(_drop(hm, am, bm, -1)), hole_ok


@pytest.mark.parametrize("h, a, b", CASES)
def test_extremal_drops(h, a, b):
    d_min, d_max, _ = reference(h, a, b)
    drops = ca.extremal_drops(h, ca.Annulus(a, b))
    assert drops.d_min == pytest.approx(d_min, abs=1e-12)
    assert drops.d_max == pytest.approx(d_max, abs=1e-12)


@pytest.mark.parametrize("h, a, b", CASES)
def test_feasibility_thresholds(h, a, b):
    d_min, d_max, hole_ok = reference(h, a, b)
    m, M = -0.25, 0.5
    result = ca.dirichlet_feasibility(h, ca.Annulus(a, b), m, M, ca.OuterBoundaryData(m, M))
    assert result.threshold_upper == pytest.approx(M + d_max, abs=1e-12)
    if hole_ok:
        assert result.threshold_lower == pytest.approx(m + d_min, abs=1e-12)
    else:
        assert result.threshold_lower is None


def flux_drop(h, a, b, slack_small, slack_large):
    """u(a) - u(b) to 50 digits of the flux graph with these radicand slacks at a, taken as exact.

    F(r) = (slack_large - slack_small)/2 + 2h*(cosh(r) - cosh(a)), and the
    radicand factors sinh(r) -/+ F(r) are the slacks plus
    2 sinh(d/2) * (cosh(a + d/2) -/+ 2h sinh(a + d/2)), d = r - a, the second
    factor written as a sum of exponentials. The quadrature is split at
    multiples of the width sqrt(slack/growth) of each layer next to a.
    """
    with mp.workdps(DIGITS):
        h, a, b = mp.mpf(h), mp.mpf(a), mp.mpf(b)
        small, large = mp.mpf(slack_small), mp.mpf(slack_large)

        def integrand(s):
            d = s * s
            mid = a + d / 2
            gap = 2 * mp.sinh(d / 2)
            f = (large - small) / 2 + 2 * h * gap * mp.sinh(mid)
            grow_small = gap * ((1 - 2 * h) * mp.exp(mid) + (1 + 2 * h) * mp.exp(-mid)) / 2
            grow_large = gap * ((1 + 2 * h) * mp.exp(mid) + (1 - 2 * h) * mp.exp(-mid)) / 2
            return 2 * s * f / mp.sqrt((small + grow_small) * (large + grow_large))

        end = mp.sqrt(b - a)
        cuts = {mp.mpf(0), end}
        for slack in (small, large):
            width = mp.sqrt(slack / (mp.cosh(a) + mp.sinh(a)))
            cuts.update(width * m for m in (0.1, 1, 10, 100) if 0 < width * m < end)
        return -mp.quad(integrand, sorted(cuts))


# Within 1e-12 of the span from an end, the parent's Gauss-Kronrod drop was
# 4e-9 to 7e-9 off at tol = 1e-10: its last breakpoint left a layer tail
# the error estimate did not see.
VERTICAL_CASES = [(0.4, 0.5, 2.0), (0.45, 1.2, 2.0), (0.5, 0.9, 1.9), (0.05, 0.3, 1.3)]


@pytest.mark.parametrize("h, a, b", VERTICAL_CASES)
@pytest.mark.parametrize("offset", [1e-12, 1e-8])
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_drop_next_to_a_vertical_circle(h, a, b, offset, end):
    c_lo, c_hi = _flux_interval(h, a)
    span = c_hi - c_lo
    near = offset * span
    slacks = (span - near, near) if end == "lower" else (near, span - near)
    expected = float(flux_drop(h, a, b, *slacks))
    assert -_Graph(h, a, b, slacks, 0.0).rise_at == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("h, a, b", VERTICAL_CASES)
def test_near_extremal_solve_keeps_its_tolerance(h, a, b):
    # the target sits 1e-8 of the drop interval inside d_max, where the
    # solution's slack at a is about 1e-16 of the span, below the rounding of
    # its flux C; so the reference takes the slacks the solver built the
    # solution from
    annulus = ca.Annulus(a, b)
    drops = ca.extremal_drops(h, annulus)
    u_a = drops.d_max - 1e-8 * (drops.d_max - drops.d_min)
    slacks = ca.solve_radial(h, annulus, u_a, 0.0).evaluator.value.__self__.slacks
    assert abs(float(flux_drop(h, a, b, *slacks)) - u_a) <= ca.DEFAULT_TOL

# (h, alpha): both branches, either side of the neck alpha = 2h, and h = 1/2
PROFILES = [(0.3, 0.3), (0.3, 1.5), (0.4, 0.8 * (1 - 1e-3)), (0.4, 0.8 * (1 + 1e-3)), (0.5, 0.5), (0.5, 3.0)]


def profile_heights(h, alpha, radii):
    """Heights at the float radii of the profile with the float alpha, to 50 digits.

    The starting radius solves 2h*cosh(r) -/+ sinh(r) = alpha (small branch
    minus, large plus), a root of a monotone function on [0, 40].
    """
    sign = 1 if alpha < 2 * h else -1  # the small branch rises from its circle
    with mp.workdps(DIGITS):
        hm, am = mp.mpf(h), mp.mpf(alpha)
        rho0 = mp.findroot(lambda r: 2 * hm * mp.cosh(r) - sign * mp.sinh(r) - am, (0, 40), solver="anderson")
        return [float(-_drop(hm, rho0, mp.mpf(rho), sign)) for rho in radii]



@pytest.mark.parametrize("h, a, b", VERTICAL_CASES)
@pytest.mark.parametrize("frac", [0.25, 0.75])
def test_radial_solution(h, a, b, frac):
    # values at interior radii, the flux constant and the shift of a solve,
    # against the graph of the slacks the solver built the solution from;
    # on (0.05, 0.3, 1.3) the hole is too large and frac = 0.25 has C > 0
    annulus, u_b = ca.Annulus(a, b), 0.3
    drops = ca.extremal_drops(h, annulus)
    u_a = u_b + drops.d_min + frac * (drops.d_max - drops.d_min)
    solution = ca.solve_radial(h, annulus, u_a, u_b)
    slacks = solution.evaluator.value.__self__.slacks
    drop = float(flux_drop(h, a, b, *slacks))
    for rho in (a + (b - a) / 3, a + 2 * (b - a) / 3):
        expected = u_b + drop - float(flux_drop(h, a, rho, *slacks))
        assert solution.evaluator.value(rho) == pytest.approx(expected, abs=1e-12)
    # F(a) = 2h cosh(a) + C is (slack_large - slack_small) / 2
    with mp.workdps(DIGITS):
        c = (mp.mpf(slacks[1]) - mp.mpf(slacks[0])) / 2 - 2 * mp.mpf(h) * mp.cosh(mp.mpf(a))
    assert solution.C == pytest.approx(float(c), abs=1e-14)
    if solution.C < 0.0:
        # the solution is the profile of parameter -C shifted by ``shift``
        expected = u_b - profile_heights(h, -solution.C, [b])[0]
        assert solution.shift == pytest.approx(expected, abs=1e-12)
    else:
        assert solution.shift == u_a

# The package starts each profile on the rounded radius boundary_radius(alpha)
# with exact slacks, so it integrates the profile of a parameter within
# rounding of alpha: heights keep their digits, except within about the
# rounding of rho0 times the slope, which exceeds 1e-12 only within about
# 1e-8 of the circle. The first row lies on that circle, at height 0.
@pytest.mark.parametrize("h, alpha", PROFILES)
def test_profile_heights(h, alpha):
    rho0 = ca.boundary_radius(h, alpha)
    rows = ca.sample_profile(h, alpha, rho0 + 2.0, 9)
    assert rows[0, 1] == 0.0
    radii = [float(r) for r in rows[1:, 0]] + [rho0 + 1e-4, rho0 + 3.5]
    expected = profile_heights(h, alpha, radii)
    for column, want in zip(rows[1:, 1], expected):
        assert column == pytest.approx(want, abs=1e-12)
    for rho, want in zip(radii, expected):
        assert ca.height(h, alpha, rho) == pytest.approx(want, abs=1e-12)


NECK_RADII = [1e-17, 1e-12, 1e-8, 1e-6, 1e-3]


@pytest.mark.parametrize("h", [0.05, 0.4, 0.5])
@pytest.mark.parametrize("rho", NECK_RADII)
def test_neck_slope(h, rho):
    # F = 2h*cosh(rho) - 2h cancels to ~h*rho^2; 90 digits leave 50 after
    # the 35 that cancel at rho = 1e-17
    with mp.workdps(90):
        r = mp.mpf(rho)
        f = 2 * mp.mpf(h) * mp.cosh(r) - 2 * mp.mpf(h)
        expected = float(f / mp.sqrt(mp.sinh(r) ** 2 - f**2))
    assert ca.slope(h, 2 * h, rho) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [1e-6, 1.95e-4, 1e-3, 0.1])
def test_neck_integrand(s):
    # the kernel's slope u'(r) at r = s^2 of the neck graph (r0 = 0, C = -2h),
    # the integrand of its height, where F = 2h*cosh(r) - 2h = 4h*sinh(r/2)^2
    # is far below the rounding of either term; float and array evaluation
    # must keep their relative digits
    h = 0.4
    r = s * s
    with mp.workdps(DIGITS):
        rm = mp.mpf(r)
        f = 4 * mp.mpf(h) * mp.sinh(rm / 2) ** 2
        expected = float(f / mp.sqrt(mp.sinh(rm) ** 2 - f**2))
    graph = _Graph(h, 0.0, 1.0, (0.0, 0.0), 0.0)
    assert graph.slope(math, r) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert graph.slope(np, np.array([r]))[0] == pytest.approx(expected, rel=1e-14, abs=0.0)


SLOPE_DIGITS = 60
SLOPE_GAPS = [1e-12, 1e-9, 1e-6, 1e-3]


def flux_slope(h, rho, flux):
    """F/sqrt(sinh^2 - F^2) at the float radius rho, to 60 digits; ``flux(r)`` gives F(r)."""
    with mp.workdps(SLOPE_DIGITS):
        r = mp.mpf(rho)
        f = flux(mp.mpf(h), r)
        return float(f / mp.sqrt(mp.sinh(r) ** 2 - f**2))


def vertical_slope(h, r0, rho, sign):
    """Slope at rho of the flux graph vertical at r0; sign +1 rises from r0, -1 dips.

    F(r0) = sign*sinh(r0), so F(r) = sign*sinh(r0) + 2h*(cosh(r) - cosh(r0)).
    """
    r0 = mp.mpf(r0)
    return flux_slope(h, rho, lambda hm, r: sign * mp.sinh(r0) + 2 * hm * (mp.cosh(r) - mp.cosh(r0)))


# Each graph is compared at the float radius actually passed: the rounding of
# anchor + gap alone moves a near-vertical slope by about 1e-4 at gap = 1e-12.
@pytest.mark.parametrize("h, a, b", CASES)
@pytest.mark.parametrize("gap", SLOPE_GAPS)
def test_envelope_slopes_near_inner_circle(h, a, b, gap):
    annulus, rho = ca.Annulus(a, b), a + gap
    upper = ca.upper_envelope(h, annulus, 0.0)
    assert upper.derivative(rho) == pytest.approx(vertical_slope(h, a, rho, -1), rel=1e-14, abs=0.0)
    if h == 0.5 or a < math.atanh(2 * h):
        lower = ca.lower_envelope(h, annulus, 0.0)
        assert lower.derivative(rho) == pytest.approx(vertical_slope(h, a, rho, +1), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("h", [0.05, 0.4, 0.5])
@pytest.mark.parametrize("a", [1e-13, 1e-10, 1e-6])
def test_envelope_slopes_next_to_tiny_inner_circle(h, a):
    # the slacks of the vertical graphs must sum to 2 sinh(a): the rounded
    # width of the flux interval at a is off by about 1e-16/a relative, and
    # slopes next to a carry that error (1.6e-4 at 2a for a = 1e-13)
    annulus, rho = ca.Annulus(a, 1.0), 2.0 * a
    upper = ca.upper_envelope(h, annulus, 0.0)
    lower = ca.lower_envelope(h, annulus, 0.0)
    assert upper.derivative(rho) == pytest.approx(vertical_slope(h, a, rho, -1), rel=1e-14, abs=0.0)
    assert lower.derivative(rho) == pytest.approx(vertical_slope(h, a, rho, +1), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("h, a, b", CASES)
@pytest.mark.parametrize("gap", SLOPE_GAPS)
def test_profile_slopes_near_starting_circle(h, a, b, gap):
    # each profile is vertical on its own circle boundary_radius(alpha), which
    # need not round back to the a it was made from
    branches = [(ca.param_large(h, a), -1)]
    if h == 0.5 or a < math.atanh(2 * h):
        branches.append((ca.param_small(h, a), +1))
    for param, sign in branches:
        rho0 = ca.boundary_radius(h, param)
        rho = rho0 + gap
        expected = vertical_slope(h, rho0, rho, sign)
        assert ca.slope(h, param, rho) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("h, a, b, u_a", [(0.4, 0.5, 2.0, -0.5), (0.3, 1.0, 2.0, 0.0)])
@pytest.mark.parametrize("gap", [0.0, *SLOPE_GAPS])
def test_radial_solution_slope_near_inner_circle(h, a, b, u_a, gap):
    # C a third of the way into its interval or more, where C itself carries
    # the slacks at a to full precision; the slope at a is finite
    solution = ca.solve_radial(h, ca.Annulus(a, b), u_a, 0.0)
    rho = a + gap
    expected = flux_slope(h, rho, lambda hm, r: 2 * hm * mp.cosh(r) + mp.mpf(solution.C))
    assert math.isfinite(expected)
    assert solution.evaluator.derivative(rho) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("h", [0.4, 0.5])
@pytest.mark.parametrize("a", [1e-13, 1e-10, 1e-6])
@pytest.mark.parametrize("frac", [0.05, 0.95])
def test_radial_solution_slopes_next_to_tiny_inner_circle(h, a, frac):
    # as for the envelopes, the slacks must sum to 2 sinh(a), not to the
    # rounded width of the flux interval (1.6e-4 off at 2a for a = 1e-13).
    # C cannot hold the smaller slack at such an a, so the reference takes it
    # from the solver and the other as 2 sinh(a) minus it. The targets sit
    # near the ends: mid-interval the slope at 2a is close to 0.
    annulus, rho = ca.Annulus(a, 1.0), 2.0 * a
    drops = ca.extremal_drops(h, annulus)
    u_a = drops.d_min + frac * (drops.d_max - drops.d_min)
    solution = ca.solve_radial(h, annulus, u_a, 0.0)
    slacks = solution.evaluator.value.__self__.slacks
    with mp.workdps(SLOPE_DIGITS):
        sinh_a = mp.sinh(mp.mpf(a))
        f_a = sinh_a - slacks[0] if slacks[0] <= slacks[1] else slacks[1] - sinh_a
    expected = flux_slope(h, rho, lambda hm, r: f_a + 2 * hm * (mp.cosh(r) - mp.cosh(mp.mpf(a))))
    assert solution.evaluator.derivative(rho) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("h, alpha", [(0.3, 1.5), (0.4, 0.5), (0.5, 1.0), (0.4, 0.8)])
def test_sample_profile_slope_column_is_slope(h, alpha):
    # the column is the array form of the kernel, whose numpy expm1 may differ
    # from math.expm1 in the last bit
    for rho, _, column in ca.sample_profile(h, alpha, 3.0, 200):
        assert column == pytest.approx(ca.slope(h, alpha, rho), rel=1e-14, abs=1e-15)
