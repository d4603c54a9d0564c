import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmc_annuli import (
    Annulus,
    HeightProfile,
    InfeasibleBoundaryError,
    InfeasibleFluxError,
    OuterBoundaryData,
    boundary_radius,
    bounding_box,
    dirichlet_feasibility,
    extremal_drops,
    flux,
    height,
    integrate_radial,
    lower_envelope,
    param_large,
    param_small,
    solve_dirichlet_2d,
    solve_radial,
    upper_envelope,
)
from cmc_annuli import profiles, radial
from cmc_annuli.errors import NonConvergenceError
from cmc_annuli.profiles import DEFAULT_TOL, _flux_interval
from cmc_annuli.radial import _false_position


class TestFeasibleFluxInterval:
    def test_closed_form_endpoints(self):
        lo, hi = _flux_interval(0.4, 0.5)
        assert lo == pytest.approx(-1.4231960776588521, rel=1e-14)
        assert hi == pytest.approx(-0.38100546667135726, rel=1e-14)
        assert lo == -param_large(0.4, 0.5)
        assert hi == pytest.approx(-param_small(0.4, 0.5), rel=1e-14)

    def test_half_exponential_endpoints(self):
        lo, hi = _flux_interval(0.5, 1.0)
        assert lo == -math.e
        assert hi == -math.exp(-1.0)

    def test_large_hole_allows_positive_flux(self):
        lo, hi = _flux_interval(0.4, 1.2)
        assert hi == pytest.approx(-(0.8 * math.cosh(1.2) - math.sinh(1.2)), rel=1e-13)
        assert hi > 0.0

    def test_constraints_bind_at_inner_radius(self):
        # sinh - 2h*cosh increases and -sinh - 2h*cosh decreases, so the
        # interval computed at rho = a is valid across the whole annulus
        for h in (0.1, 0.3, 0.5):
            rhos = np.linspace(0.2, 5.0, 60)
            upper = np.sinh(rhos) - 2 * h * np.cosh(rhos)
            lower = -np.sinh(rhos) - 2 * h * np.cosh(rhos)
            assert np.all(np.diff(upper) > 0)
            assert np.all(np.diff(lower) < 0)


class TestIntegrateRadial:
    def test_family_member_drop(self):
        # C = -alpha with alpha starting exactly at a: drop is -height(b)
        h, a, b = 0.4, 0.5, 2.0
        alpha = param_small(h, a)
        got = integrate_radial(h, Annulus(a, b), -alpha)
        assert got == pytest.approx(-height(h, alpha, b), abs=1e-9)

    def test_half_closed_form(self):
        # C = -1 at h = 1/2 is the sinh(rho/2) profile: drop = 2(cosh(a/2) - cosh(b/2))
        got = integrate_radial(0.5, Annulus(0.5, 2.0), -1.0)
        assert got == pytest.approx(-1.023335069871341, abs=1e-10)

    def test_midpoint_flux_is_interior(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = _flux_interval(0.4, ann.a)
        drops = extremal_drops(0.4, ann)
        mid = integrate_radial(0.4, ann, 0.5 * (lo + hi))
        assert drops.d_min < mid < drops.d_max

    def test_strictly_decreasing_in_flux(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = _flux_interval(0.4, ann.a)
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 12)
        drops = [integrate_radial(0.4, ann, c) for c in grid]
        assert all(x > y for x, y in zip(drops, drops[1:]))

    @settings(deadline=None)
    @given(h=st.floats(0.01, 0.5), a=st.floats(0.05, 3.0), width=st.floats(0.05, 3.0))
    def test_strictly_decreasing_in_flux_property(self, h, a, width):
        # fluxes a tenth of the open interval apart, so that each step in C
        # moves the drop far more than its rounding error
        ann = Annulus(a, a + width)
        lo, hi = _flux_interval(h, ann.a)
        drops = [integrate_radial(h, ann, lo + k / 10 * (hi - lo)) for k in range(1, 10)]
        assert all(x > y for x, y in zip(drops, drops[1:]))

    def test_infeasible_flux_raises(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = _flux_interval(0.4, ann.a)
        with pytest.raises(InfeasibleFluxError):
            integrate_radial(0.4, ann, lo - 1e-6)
        with pytest.raises(InfeasibleFluxError):
            integrate_radial(0.4, ann, hi + 1e-6)

    def test_endpoint_fluxes_are_allowed(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = _flux_interval(0.4, ann.a)
        integrate_radial(0.4, ann, lo)
        integrate_radial(0.4, ann, hi)


class TestExtremalDrops:
    def test_half_exponential_parameters(self):
        ann = Annulus(1.0, 2.0)
        drops = extremal_drops(0.5, ann)
        assert drops.d_max == pytest.approx(-height(0.5, math.e, 2.0), abs=1e-10)
        assert drops.d_min == pytest.approx(-height(0.5, math.exp(-1.0), 2.0), abs=1e-10)

    def test_match_envelope_values_at_inner_radius(self):
        for h, a, b in [(0.4, 0.5, 2.0), (0.2, 0.3, 1.5), (0.5, 1.0, 2.0)]:
            ann = Annulus(a, b)
            drops = extremal_drops(h, ann)
            assert upper_envelope(h, ann, 0.0).value(a) == drops.d_max
            assert lower_envelope(h, ann, 0.0).value(a) == drops.d_min

    def test_large_hole_uses_limiting_quadrature(self):
        ann = Annulus(1.2, 2.0)  # beyond artanh(0.8)
        drops = extremal_drops(0.4, ann)
        _, hi = _flux_interval(0.4, ann.a)
        assert drops.d_min == pytest.approx(integrate_radial(0.4, ann, hi), abs=1e-10)
        assert drops.d_min < drops.d_max

    def test_degenerate_annulus_drops_vanish(self):
        # extremal drops scale like sqrt(width)
        drops = extremal_drops(0.4, Annulus(0.7, 0.7 + 1e-4))
        assert abs(drops.d_min) < 0.1
        assert abs(drops.d_max) < 0.1
        tiny = extremal_drops(0.4, Annulus(0.7, 0.7 + 1e-8))
        assert abs(tiny.d_min) < 1e-3
        assert abs(tiny.d_max) < 1e-3

    def test_matches_extremal_integrals(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = _flux_interval(0.4, ann.a)
        drops = extremal_drops(0.4, ann)
        assert integrate_radial(0.4, ann, lo) == drops.d_max
        assert integrate_radial(0.4, ann, hi) == drops.d_min

    @pytest.mark.parametrize("h, a, b", [
        (0.4, 0.5, 2.0), (0.2, 0.3, 1.5), (0.5, 1.0, 2.0),
        (0.4, 1.2, 2.0),  # hole too large: d_min is the limiting flux graph
        # the annuli of tests/test_oracle.py
        (0.3, 1.0, 2.0), (0.05, 0.3, 1.3), (0.45, 0.9, 2.3), (0.5, 0.7, 1.9),
        (0.4, math.atanh(0.8) - 1e-9, math.atanh(0.8) + 1.0),
    ])
    def test_thresholds_and_infeasible_interval_are_the_extremal_drops(self, h, a, b):
        ann = Annulus(a, b)
        drops = extremal_drops(h, ann)
        for target in (drops.d_max + 0.01, drops.d_min - 0.01):
            with pytest.raises(InfeasibleBoundaryError) as excinfo:
                solve_radial(h, ann, target, 0.0)
            assert excinfo.value.d_min == drops.d_min
            assert excinfo.value.d_max == drops.d_max
        m, M = -0.25, 0.5
        result = dirichlet_feasibility(h, ann, m, M, OuterBoundaryData(m, M))
        assert result.threshold_upper == M + drops.d_max
        if h == 0.5 or a < math.atanh(2 * h):
            assert result.threshold_lower == m + drops.d_min
        else:
            assert result.threshold_lower is None


class TestSolveRadial:
    def test_zero_drop_near_flat(self):
        ann = Annulus(1.0, 1.1)
        solution = solve_radial(0.05, ann, 2.0, 2.0)
        assert solution.evaluator.value(1.05) == pytest.approx(2.0, abs=0.01)
        assert solution.evaluator.value(1.1) == 2.0

    def test_recovers_translated_profile(self):
        h, alpha, shift = 0.4, 0.6, 5.0
        rho0 = boundary_radius(h, alpha)
        a, b = rho0 + 0.2, rho0 + 1.2
        u_a = height(h, alpha, a) + shift
        u_b = height(h, alpha, b) + shift
        solution = solve_radial(h, Annulus(a, b), u_a, u_b)
        assert solution.C == pytest.approx(-alpha, abs=1e-8)
        assert solution.shift == pytest.approx(shift, abs=1e-8)
        for rho in np.linspace(a, b, 7):
            assert solution.evaluator.value(rho) == pytest.approx(
                height(h, alpha, rho) + shift, abs=1e-8
            )

    def test_outer_value_matches_exactly(self):
        solution = solve_radial(0.4, Annulus(0.5, 2.0), -0.1, -0.3)
        assert solution.evaluator.value(2.0) == -0.3

    def test_infeasible_above_upper_bound(self):
        ann = Annulus(0.5, 2.0)
        m_val = 0.0
        top = upper_envelope(0.4, ann, m_val).value(0.5)
        with pytest.raises(InfeasibleBoundaryError) as excinfo:
            solve_radial(0.4, ann, top + 0.01, m_val)
        err = excinfo.value
        assert err.requested_drop == pytest.approx(top + 0.01, abs=1e-12)
        assert err.d_min < err.d_max
        assert err.requested_drop > err.d_max

    def test_sharpness_near_the_edge(self):
        ann = Annulus(0.5, 2.0)
        drops = extremal_drops(0.4, ann)
        for offset in (1e-4, 1e-9):
            for target in (drops.d_max - offset, drops.d_min + offset):
                solution = solve_radial(0.4, ann, target, 0.0)
                assert solution.evaluator.value(0.5) == pytest.approx(target, abs=1e-8)
            with pytest.raises(InfeasibleBoundaryError):
                solve_radial(0.4, ann, drops.d_max + offset, 0.0)
            with pytest.raises(InfeasibleBoundaryError):
                solve_radial(0.4, ann, drops.d_min - offset, 0.0)

    def test_root_on_the_flux_interval_end_is_vertical_at_a(self):
        # a target within tol/10 above d_min ends the root find on the bracket
        # end theta = pi/2, whose slacks are exactly (0, span): the solution is
        # the extremal graph, vertical at a with the lower envelope's sign
        ann = Annulus(0.5, 2.0)
        solution = solve_radial(0.4, ann, extremal_drops(0.4, ann).d_min + 5e-12, 0.0)
        assert solution.C == _flux_interval(0.4, ann.a)[1]
        expected = bounding_box(0.4, ann, OuterBoundaryData(0.0, 0.0)).lower.derivative(ann.a)
        assert math.isinf(expected)
        assert solution.evaluator.derivative(ann.a) == expected

    @pytest.mark.parametrize(
        "offset", [0.5, 1e-8, 5e-12, 1e-13], ids=["interior", "near-end", "bracket-end", "on-the-end"]
    )
    def test_evaluator_build_evaluates_no_drop(self, offset):
        # the evaluator is the graph the root find built at the s it returned,
        # and handing it out builds no graph and computes no rise: each graph
        # computes one rise, to b, when it is built. The graphs are the two
        # ends, the middle and one per root-find step. At 5e-12 the root find
        # stops at a slack s^2 below an ulp of C, so C rounds to the end; at
        # 1e-13 the end itself meets the tolerance and is the answer, with no
        # middle graph and no root find
        h, ann = 0.4, Annulus(0.5, 2.0)
        drops = extremal_drops(h, ann)
        target = drops.d_max - offset * (drops.d_max - drops.d_min)
        built, rises, steps, returned = [], [], [], []
        false_position = radial._false_position

        class Counted(profiles._Graph):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def rise(self, xp, r):
                rises.append(r)
                return super().rise(xp, r)

        def counted_false_position(f, *args):
            def residual(s):
                steps.append(s)
                return f(s)

            returned.append(false_position(residual, *args))
            return returned[-1]

        with mock.patch.object(radial, "_Graph", Counted), \
                mock.patch.object(radial, "_false_position", counted_false_position):
            solution = solve_radial(h, ann, target, 0.0)
            assert rises == [ann.b] * len(built)
        graph = solution.evaluator.value.__self__
        assert solution.evaluator.derivative.__self__ is graph
        if offset == 1e-13:
            assert returned == [] and len(built) == 2 and graph is built[0]
        else:
            s = returned[0][0]
            assert len(built) == 3 + len(steps)
            assert graph is built[3 + steps.index(s)] and min(graph.slacks) == s * s
        if offset <= 5e-12:
            assert solution.C == _flux_interval(h, ann.a)[0]
        assert solution.evaluator.value(ann.b) == 0.0
        assert solution.evaluator.value(ann.a) == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("a, b", [(1e-10, 1.0), (0.5, 2.0), (1.5, 3.0)])
    @pytest.mark.parametrize("fraction", [1e-6, 0.3, 0.7, 1.0 - 1e-6])
    def test_solution_keeps_one_slack_pair(self, a, b, fraction):
        # its value and its slope read one pair: the larger slack is 2 sinh(a)
        # minus the smaller, not what the root find's theta rounds it to
        ann = Annulus(a, b)
        drops = extremal_drops(0.4, ann)
        solution = solve_radial(0.4, ann, drops.d_min + fraction * (drops.d_max - drops.d_min), 0.0)
        small, large = sorted(solution.evaluator.value.__self__.slacks)
        assert large == 2.0 * math.sinh(a) - small

    @pytest.mark.parametrize("t", [-3.0, 4.5])
    def test_translation_invariance(self, t):
        ann = Annulus(0.5, 2.0)
        base = solve_radial(0.4, ann, 0.15, 0.0)
        moved = solve_radial(0.4, ann, 0.15 + t, 0.0 + t)
        assert moved.C == pytest.approx(base.C, abs=1e-8)
        for rho in (0.5, 1.0, 1.7, 2.0):
            assert moved.evaluator.value(rho) == pytest.approx(base.evaluator.value(rho) + t, abs=1e-8)

    def test_flux_constancy_along_solution(self):
        from cmc_annuli import flux

        ann = Annulus(0.5, 2.0)
        solution = solve_radial(0.4, ann, 0.15, 0.0)
        for rho in np.linspace(0.6, 1.9, 9):
            conserved = flux(solution.evaluator.derivative(rho), rho) - 0.8 * math.cosh(rho)
            assert conserved == pytest.approx(solution.C, abs=1e-10)

    @settings(deadline=None)
    @given(
        h=st.floats(0.01, 0.5),
        a=st.floats(0.05, 3.0),
        width=st.floats(0.05, 3.0),
        exponent=st.floats(-12.0, math.log10(0.5)),
        near_max=st.booleans(),
        u_b=st.floats(-1.0, 1.0),
    )
    def test_drop_within_tolerance_property(self, h, a, width, exponent, near_max, u_b):
        # targets from the middle of the drop interval to 1e-12 of its width from either end
        ann = Annulus(a, a + width)
        drops = extremal_drops(h, ann)
        fraction = 1.0 - 10.0**exponent if near_max else 10.0**exponent
        u_a = u_b + drops.d_min + fraction * (drops.d_max - drops.d_min)
        assume(drops.d_min < u_a - u_b < drops.d_max)
        with mock.patch.object(radial, "_Graph", wraps=profiles._Graph) as graph:
            solution = solve_radial(h, ann, u_a, u_b)
        assert abs(solution.evaluator.value(a) - u_a) <= DEFAULT_TOL
        assert solution.evaluator.value(a + width) == u_b
        assert 2 <= graph.call_count <= 12  # bracket ends included

    @pytest.mark.parametrize("a", [5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0, 99.0])
    def test_far_annuli_at_half_solve(self, a):
        # at h = 1/2 small(a) = e^-a, and the root of a target in the interval
        # can lie closer to that end than an ulp of C; the slack from the end
        # resolves it. Drops reach 1e43 at a = 99, and the default tolerance,
        # floored at 4 ulps of the target, stays within what its float can meet
        for width in (0.01, 0.1, 1.0):
            annulus = Annulus(a, a + width)
            drops = extremal_drops(0.5, annulus)
            for fraction in (0.01, 0.15, 0.5, 0.85, 0.99):
                target = drops.d_min + fraction * (drops.d_max - drops.d_min)
                solution = solve_radial(0.5, annulus, target, 0.0)
                assert abs(solution.evaluator.value(a) - target) <= max(DEFAULT_TOL, 4.0 * math.ulp(target))
                assert solution.evaluator.value(a + width) == 0.0

    def test_solvable_data_solve_at_the_default_tolerance(self):
        # ROADMAP item 23's scan: every target strictly inside the drop
        # interval solves, on both sides of h = 1/2 and out to a = 99; without
        # the floor of the tolerance at 4 ulps of the target, 62 of these
        # solves stalled within 2 ulps of it
        solves = 0
        for h in (0.5, 0.5 - 1e-12, 0.4999, 0.4, 0.05):
            for a in (0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 70.0, 99.0):
                for width in (0.01, 0.1, 1.0):
                    annulus = Annulus(a, a + width)
                    drops = extremal_drops(h, annulus)
                    fractions = (0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.99)
                    targets = [drops.d_min + f * (drops.d_max - drops.d_min) for f in fractions]
                    for target in targets + ([0.0] if drops.d_min < 0.0 < drops.d_max else []):
                        solution = solve_radial(h, annulus, target, 0.0)
                        assert abs(solution.evaluator.value(a) - target) <= max(DEFAULT_TOL, 4.0 * math.ulp(target))
                        solves += 1
        assert solves == 1755

    def test_stall_message_gives_an_ulp_of_the_target(self, monkeypatch):
        # a root find that stops short, here on the middle of the flux
        # interval, is reported with the floored tolerance and an ulp of the
        # target
        monkeypatch.setattr(radial, "_false_position", lambda f, x0, f0, x1, f1, ftol: (x1, f1))
        match = r"exceeds tolerance 5\.55112e-17 \(one ulp of the target is 1\.38778e-17\)"
        with pytest.raises(NonConvergenceError, match=match):
            solve_radial(0.4, Annulus(0.5, 2.0), 0.1, 0.0, tol=1e-17)

    def test_tolerance_below_an_ulp_of_the_drop_is_floored(self):
        # 1e-17 is below an ulp of the drop 0.1, so no graph could meet it; the
        # tolerance is floored at 4 ulps of the target, and the solve meets that
        solution = solve_radial(0.4, Annulus(0.5, 2.0), 0.1, 0.0, tol=1e-17)
        assert abs(solution.evaluator.value(0.5) - 0.1) <= 4.0 * math.ulp(0.1)


class TestFalsePosition:
    """The in-package root finder: Anderson–Björck false position on a given bracket."""

    FTOL = 1e-12
    # f, bracket, evaluations at FTOL (the ends are passed in, not counted)
    CASES = [
        (lambda x: math.cos(x) - x, 0.0, 1.5, 6),
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 6),
        (lambda x: math.exp(x) - 1e-3, -10.0, 1.0, 15),
        (lambda x: (x - 0.3) ** 5, 0.0, 1.0, 30),  # a root of order five
        (lambda x: math.tanh(50 * (x - 0.7)), 0.0, 0.5 * math.pi, 13),
        # the 2D start's shape s (c/s + smooth), as c + s smooth: it dips before it rises
        (lambda x: -0.1 + x * (math.exp(x) - 1.5), 0.0, 2.0, 14),
    ]

    @pytest.mark.parametrize("f, lo, hi, evals", CASES)
    def test_residual_bracket_and_evaluations(self, f, lo, hi, evals):
        seen = []
        x, fx = _false_position(lambda x: seen.append(x) or f(x), lo, f(lo), hi, f(hi), self.FTOL)
        assert abs(fx) <= self.FTOL
        assert fx == f(x)
        assert all(lo <= t <= hi for t in seen)
        assert x == seen[-1]
        assert len(seen) == evals

    def test_root_at_an_end_returns_at_once(self):
        def never(x):
            raise AssertionError("evaluated")

        assert _false_position(never, 1.0, 0.0, 2.0, 1.0, 0.0) == (1.0, 0.0)
        assert _false_position(never, 1.0, -1.0, 2.0, 0.0, 0.0) == (2.0, 0.0)

    def test_secant_point_on_an_end_returns_the_better_end(self):
        # a step has no root to reach at ftol 0; once the bracket is a few ulp
        # wide the secant point rounds onto an end, and that end is returned
        seen = []
        f = lambda x: seen.append(x) or (-1.0 if x < 0.3 else 1.0)  # noqa: E731
        assert _false_position(f, 0.0, -1.0, 1.0, 1.0, 0.0) == (0.3, 1.0)
        assert len(seen) == 63

    def test_secant_point_next_to_an_end_keeps_its_digits(self):
        # a root 1e-20 from the end 0 of [0, 1]: the secant point is taken from
        # that end, the one with the smaller residual, so it is not 1 minus a
        # step that rounds to 1, which would land on the end
        seen = []
        f = lambda x: seen.append(x) or 1e30 * x - 1e10  # noqa: E731
        assert _false_position(f, 0.0, -1e10, 1.0, 1e30 - 1e10, 0.0) == (1e-20, 0.0)
        assert seen == [1e-20]

    def test_unbracketed_raises(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.raises(ValueError):
            _false_position(f, -1.0, f(-1.0), 1.0, f(1.0), self.FTOL)

    def test_unreachable_tolerance_raises(self):
        # (x - 0.3)^5 is nonzero at every double but 0.3, which the steps do not hit
        f = lambda x: (x - 0.3) ** 5  # noqa: E731
        with pytest.raises(NonConvergenceError):
            _false_position(f, 0.0, f(0.0), 1.0, f(1.0), 0.0)


class TestValueDispatch:
    """A radius, whatever its type, takes the point path and gives a float;
    radii in a list, a tuple or an array take the array path and keep their shape."""

    RADII = [[0.5, 1.25, 2.0], [1.75, 0.75, 1.0]]

    @pytest.fixture(params=["envelope", "radial"])
    def graph(self, request):
        annulus = Annulus(0.5, 2.0)
        if request.param == "envelope":
            return upper_envelope(0.4, annulus, M=0.25)
        return solve_radial(0.4, annulus, 0.1, 0.0).evaluator

    @pytest.mark.parametrize(
        "rho", [1.0, 1, np.float64(1.0), np.array(1.0)], ids=["float", "int", "float64", "0-d"]
    )
    def test_radius_gives_float(self, graph, rho):
        value = graph.value(rho)
        assert type(value) is float
        assert value == graph.value(1.0)

    @pytest.mark.parametrize(
        "radii",
        [RADII[0], tuple(RADII[0]), np.array(RADII[0]), np.array(RADII)],
        ids=["list", "tuple", "1-d", "2-d"],
    )
    def test_radii_give_array_of_their_shape(self, graph, radii):
        flat = np.ravel(radii)
        values = graph.value(radii)
        assert isinstance(values, np.ndarray) and values.shape == np.shape(radii)
        np.testing.assert_array_equal(values.ravel(), graph.value(np.array(flat)))
        # the array and point paths run the same closed form and agree to rounding
        points = [graph.value(float(rho)) for rho in flat]
        np.testing.assert_allclose(values.ravel(), points, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rho", [2.5, [1.0, 2.5]], ids=["radius", "radii"])
    def test_radius_outside_the_annulus_raises(self, graph, rho):
        for evaluate in (graph.value, graph.derivative):
            with pytest.raises(ValueError, match=r"rho = .*2\.5.* is outside \[0\.5, 2\]"):
                evaluate(rho)

    def test_derivative_of_radii_matches_points(self, graph):
        """Within the bound of ``test_array_integrand_matches_scalar``: 4 ulp of
        |u'| (2h*cosh + |C|)/|2h*cosh + C|, written as (2h*cosh + |C|) sqrt(1 + u'^2)/sinh
        by the flux identity, which keeps it finite where 2h*cosh + C is 0."""
        radii = np.linspace(0.5, 2.0, 61)
        slopes = graph.derivative(radii)
        points = np.array([graph.derivative(float(rho)) for rho in radii])
        assert slopes.shape == radii.shape
        C = flux(points[30], radii[30]) - 0.8 * math.cosh(radii[30])
        size = (0.8 * np.cosh(radii) + abs(C)) * np.hypot(1.0, points) / np.sinh(radii)
        vertical = np.isinf(points)
        np.testing.assert_array_equal(slopes[vertical], points[vertical])
        finite = ~vertical
        assert np.all(np.abs(slopes[finite] - points[finite]) <= 4 * np.spacing(size[finite]))


#: float and array values differ by at most this many ulps of 1 and the graph's
#: largest |value| at the radius or an end of its domain; a sweep of 2,600
#: graphs of each kind, 321 radii each, read at most 16
VALUE_ULPS = 32


@st.composite
def graphs(draw):
    """(graph, lo, hi): a radial solution, an envelope or a profile, and its domain."""
    h = draw(st.just(0.5) | st.floats(1e-3, 0.5))
    kind = draw(st.sampled_from(["radial", "upper", "lower", "profile"]))
    if kind == "profile":
        alpha = draw(st.floats(1e-3, 30.0))
        lo = boundary_radius(h, alpha)
        hi = lo + draw(st.floats(0.01, 4.0))
        return HeightProfile(h, alpha).as_radial_function(hi), lo, hi
    a = 10.0 ** draw(st.floats(-70.0, 1.5))
    b = a + draw(st.floats(1e-4, 5.0))
    annulus, u_b = Annulus(a, b), draw(st.floats(-2.0, 2.0))
    if kind == "upper":
        return upper_envelope(h, annulus, u_b), a, b
    if kind == "lower":
        assume(h == 0.5 or a < math.atanh(2 * h))
        return lower_envelope(h, annulus, u_b), a, b
    drops = extremal_drops(h, annulus)
    u_a = u_b + drops.d_min + draw(st.floats(1e-6, 1.0 - 1e-6)) * (drops.d_max - drops.d_min)
    assume(drops.d_min < u_a - u_b < drops.d_max)
    return solve_radial(h, annulus, u_a, u_b).evaluator, a, b


@settings(deadline=None, max_examples=60)
@given(graphs())
def test_array_and_point_values_agree_to_rounding(case):
    """The array pass and the point path differ in the last bits, not more.

    The array Carlson loop (``carlson.rf_rj``) runs until its slowest element
    converges, so an element takes more duplication steps than on the point
    path, and numpy's cosh and expm1 may round otherwise than the C
    library's. A value is top - (rise to ``at`` - rise to rho), so the
    rounding of the rises is relative to the graph's largest |value|, which
    next to ``at`` can far exceed |value| there: measured against
    max(1, |value|) alone the sweep read up to 7,590 ulps.
    """
    graph, lo, hi = case
    radii = np.linspace(lo, hi, 129)
    points = np.array([graph.value(rho) for rho in radii.tolist()])
    size = np.maximum(np.abs(points), max(1.0, abs(graph.value(lo)), abs(graph.value(hi))))
    gap = np.abs(graph.value(radii) - points)
    assert (gap <= VALUE_ULPS * np.finfo(float).eps * size).all(), (gap / size).max()


_ANN = Annulus(0.5, 2.0)
TOL_CALLS = {
    "solve_radial": lambda tol: solve_radial(0.4, _ANN, 0.1, 0.0, tol),
    "solve_radial-infeasible": lambda tol: solve_radial(0.4, _ANN, 5.0, 0.0, tol),
    "solve_dirichlet_2d": lambda tol: solve_dirichlet_2d(0.4, _ANN, 0.1, 0.0, (8, 8), tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
def test_public_calls_reject_bad_tol(call, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        call(tol)


@pytest.mark.parametrize(
    "name, result", [("solve_radial", lambda s: s.C), ("solve_dirichlet_2d", lambda s: s[0].values)]
)
def test_public_calls_solve_to_the_float_of_tol(name, result):
    # a numeric string passes the check as its float, and the solve runs on that float
    np.testing.assert_array_equal(result(TOL_CALLS[name]("1e-8")), result(TOL_CALLS[name](1e-8)))
