import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_annuli import (
    Annulus,
    InfeasibleBoundaryError,
    InfeasibleFluxError,
    boundary_radius,
    extremal_drops,
    feasible_flux_interval,
    height,
    integrate_radial,
    lower_envelope,
    param_large,
    param_small,
    solve_radial,
    upper_envelope,
)
from cmc_annuli.radial import _brent


class TestFeasibleFluxInterval:
    def test_closed_form_endpoints(self):
        lo, hi = feasible_flux_interval(0.4, Annulus(0.5, 2.0))
        assert lo == pytest.approx(-1.4231960776588521, rel=1e-14)
        assert hi == pytest.approx(-0.38100546667135726, rel=1e-14)
        assert lo == -param_large(0.4, 0.5).alpha
        assert hi == pytest.approx(-param_small(0.4, 0.5).alpha, rel=1e-14)

    def test_half_exponential_endpoints(self):
        lo, hi = feasible_flux_interval(0.5, Annulus(1.0, 2.0))
        assert lo == -math.e
        assert hi == -math.exp(-1.0)

    def test_large_hole_allows_positive_flux(self):
        lo, hi = feasible_flux_interval(0.4, Annulus(1.2, 2.0))
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
        got = integrate_radial(h, Annulus(a, b), -alpha.alpha)
        assert got == pytest.approx(-height(h, alpha, b), abs=1e-9)

    def test_half_closed_form(self):
        # C = -1 at h = 1/2 is the sinh(rho/2) profile: drop = 2(cosh(a/2) - cosh(b/2))
        got = integrate_radial(0.5, Annulus(0.5, 2.0), -1.0)
        assert got == pytest.approx(-1.023335069871341, abs=1e-10)

    def test_midpoint_flux_is_interior(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = feasible_flux_interval(0.4, ann)
        drops = extremal_drops(0.4, ann)
        mid = integrate_radial(0.4, ann, 0.5 * (lo + hi))
        assert drops.d_min < mid < drops.d_max

    def test_strictly_decreasing_in_flux(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = feasible_flux_interval(0.4, ann)
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 12)
        drops = [integrate_radial(0.4, ann, c) for c in grid]
        assert all(x > y for x, y in zip(drops, drops[1:]))

    @settings(deadline=None)
    @given(h=st.floats(0.01, 0.5), a=st.floats(0.05, 3.0), width=st.floats(0.05, 3.0))
    def test_strictly_decreasing_in_flux_property(self, h, a, width):
        # fluxes a tenth of the open interval apart, so that each step in C
        # moves the drop far more than the quadrature tolerance
        ann = Annulus(a, a + width)
        lo, hi = feasible_flux_interval(h, ann)
        drops = [integrate_radial(h, ann, lo + k / 10 * (hi - lo)) for k in range(1, 10)]
        assert all(x > y for x, y in zip(drops, drops[1:]))

    def test_infeasible_flux_raises(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = feasible_flux_interval(0.4, ann)
        with pytest.raises(InfeasibleFluxError):
            integrate_radial(0.4, ann, lo - 1e-6)
        with pytest.raises(InfeasibleFluxError):
            integrate_radial(0.4, ann, hi + 1e-6)

    def test_endpoint_fluxes_are_allowed(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = feasible_flux_interval(0.4, ann)
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
            assert upper_envelope(h, ann, 0.0).value(a) == pytest.approx(drops.d_max, abs=1e-7)
            assert lower_envelope(h, ann, 0.0).value(a) == pytest.approx(drops.d_min, abs=1e-7)

    def test_large_hole_uses_limiting_quadrature(self):
        ann = Annulus(1.2, 2.0)  # beyond artanh(0.8)
        drops = extremal_drops(0.4, ann)
        _, hi = feasible_flux_interval(0.4, ann)
        assert drops.d_min == pytest.approx(integrate_radial(0.4, ann, hi), abs=1e-10)
        assert drops.d_min < drops.d_max

    def test_degenerate_annulus_drops_vanish(self):
        # extremal drops scale like sqrt(width); the tightest annulus needs a
        # looser quadrature tolerance (integrand noise floor near the circle)
        drops = extremal_drops(0.4, Annulus(0.7, 0.7 + 1e-4))
        assert abs(drops.d_min) < 0.1
        assert abs(drops.d_max) < 0.1
        tiny = extremal_drops(0.4, Annulus(0.7, 0.7 + 1e-8), tol=1e-8)
        assert abs(tiny.d_min) < 1e-3
        assert abs(tiny.d_max) < 1e-3

    def test_matches_extremal_integrals(self):
        ann = Annulus(0.5, 2.0)
        lo, hi = feasible_flux_interval(0.4, ann)
        drops = extremal_drops(0.4, ann)
        assert integrate_radial(0.4, ann, lo) == pytest.approx(drops.d_max, abs=1e-9)
        assert integrate_radial(0.4, ann, hi) == pytest.approx(drops.d_min, abs=1e-9)


class TestSolveRadial:
    def test_zero_drop_near_flat(self):
        ann = Annulus(1.0, 1.1)
        solution = solve_radial(0.05, ann, 2.0, 2.0)
        assert solution.evaluator(1.05) == pytest.approx(2.0, abs=0.01)
        assert solution.evaluator(1.1) == 2.0

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
            assert solution.evaluator(rho) == pytest.approx(
                height(h, alpha, rho) + shift, abs=1e-8
            )

    def test_outer_value_matches_exactly(self):
        solution = solve_radial(0.4, Annulus(0.5, 2.0), -0.1, -0.3)
        assert solution.evaluator(2.0) == -0.3

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
                assert solution.evaluator(0.5) == pytest.approx(target, abs=1e-8)
            with pytest.raises(InfeasibleBoundaryError):
                solve_radial(0.4, ann, drops.d_max + offset, 0.0)
            with pytest.raises(InfeasibleBoundaryError):
                solve_radial(0.4, ann, drops.d_min - offset, 0.0)

    @pytest.mark.parametrize("t", [-3.0, 4.5])
    def test_translation_invariance(self, t):
        ann = Annulus(0.5, 2.0)
        base = solve_radial(0.4, ann, 0.15, 0.0)
        moved = solve_radial(0.4, ann, 0.15 + t, 0.0 + t)
        assert moved.C == pytest.approx(base.C, abs=1e-8)
        for rho in (0.5, 1.0, 1.7, 2.0):
            assert moved.evaluator(rho) == pytest.approx(base.evaluator(rho) + t, abs=1e-8)

    def test_flux_constancy_along_solution(self):
        from cmc_annuli import flux

        ann = Annulus(0.5, 2.0)
        solution = solve_radial(0.4, ann, 0.15, 0.0)
        for rho in np.linspace(0.6, 1.9, 9):
            conserved = flux(solution.evaluator.derivative(rho), rho) - 0.8 * math.cosh(rho)
            assert conserved == pytest.approx(solution.C, abs=1e-10)


class TestBrent:
    """The in-package root finder takes the same steps as scipy's ``brentq``."""

    CASES = [
        (lambda x: math.cos(x) - x, 0.0, 1.5),
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.exp(x) - 1e-3, -10.0, 1.0),
        (lambda x: (x - 0.3) ** 5, 0.0, 1.0),
        (lambda x: math.tanh(50 * (x - 0.7)), 0.0, 0.5 * math.pi),
    ]

    @pytest.mark.parametrize("f, lo, hi", CASES)
    def test_same_evaluations_as_scipy(self, f, lo, hi):
        brentq = pytest.importorskip("scipy.optimize").brentq
        ours, theirs = [], []
        root = _brent(lambda x: ours.append(x) or f(x), lo, hi)
        expected = brentq(lambda x: theirs.append(x) or f(x), lo, hi, xtol=1e-15, maxiter=200)
        assert root == expected
        assert ours == theirs

    def test_endpoint_root_and_unbracketed(self):
        assert _brent(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        with pytest.raises(ValueError):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0)


class TestValueDispatch:
    """A radius, whatever its type, takes the point quadrature and gives a float;
    radii in a list, a tuple or an array take the panel path and keep their shape."""

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
        # the panel and point paths agree to the quadrature tolerance
        points = [graph.value(float(rho)) for rho in flat]
        np.testing.assert_allclose(values.ravel(), points, rtol=0.0, atol=1e-9)
