import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from cmc_annuli import (
    Annulus,
    Branch,
    HeightProfile,
    MAX_RADIUS,
    HoleTooLargeError,
    OuterBoundaryData,
    PolarGrid,
    RadialFunction,
    boundary_radius,
    bounding_box,
    flux,
    height,
    hole_threshold,
    lower_envelope,
    mean_curvature_radial,
    param_large,
    param_small,
    sample_profile,
    slope,
    solve_dirichlet_2d,
    solve_radial,
    upper_envelope,
)
from cmc_annuli import profiles

H_GRID = [0.05, 0.25, 0.4, 0.499, 0.5]


def closed_form_height(rho):
    # antiderivative of sinh(r/2): the h = 1/2, alpha = 1 profile
    return 2.0 * (math.cosh(rho / 2.0) - 1.0)


class TestCheckCurvature:
    """h is a float in (0, 1/2], checked by ``profiles.check_curvature`` wherever it is taken."""

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5 + 1e-12, 1.0, math.nan, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="mean curvature must"):
            HeightProfile(bad, 0.5)
        with pytest.raises(ValueError, match="mean curvature must"):
            hole_threshold(bad)

    def test_only_half_is_hole_free(self):
        assert hole_threshold(0.5) == math.inf
        assert hole_threshold(0.4999999) < math.inf


class TestParameterClassification:
    """A profile's branch is alpha's side of 2h, derived by ``HeightProfile``."""

    def test_branches(self):
        assert HeightProfile(0.4, 0.5).branch is Branch.SMALL
        assert HeightProfile(0.4, 0.8).branch is Branch.NECK
        assert HeightProfile(0.4, 3.0).branch is Branch.LARGE

    def test_neck_tolerance_is_relative(self):
        assert HeightProfile(0.4, 0.8 * (1 + 1e-13)).branch is Branch.NECK
        assert HeightProfile(0.4, 0.8 * (1 + 1e-9)).branch is Branch.LARGE

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            HeightProfile(0.4, bad)


def _with_branch(h, alpha, branch):
    """HeightProfile(h, alpha) with its derived branch overwritten by hand."""
    profile = HeightProfile(h, alpha)
    object.__setattr__(profile, "branch", branch)
    return profile


class TestParameterOfAnotherH:
    """A profile moved to another h by ``dataclasses.replace`` derives its branch and rho0 again.

    Its stored ``branch`` and ``rho0`` are never inputs, even when set by hand.
    """

    CALLS = {
        "height": lambda h, alpha: height(h, alpha, 2.0),
        "slope": lambda h, alpha: slope(h, alpha, 2.0),
        "boundary_radius": boundary_radius,
        "sample_profile": lambda h, alpha: sample_profile(h, alpha, 2.0, 5),
        "HeightProfile": HeightProfile,
    }
    ON_PROFILE = {
        "height": lambda p: p.height(2.0),
        "slope": lambda p: p.slope(2.0),
        "boundary_radius": lambda p: p.rho0,
        "sample_profile": lambda p: p.sample(2.0, 5),
        "HeightProfile": lambda p: p,
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize(
        "built",
        [HeightProfile(0.4, 0.5), HeightProfile(0.4, 0.8), _with_branch(0.4, 0.3, Branch.LARGE)],
        ids=["small at 0.4", "neck at 0.4", "hand-built"],
    )
    def test_branch_follows_the_h_of_the_call(self, name, built):
        # at h = 0.2 the first two are large-branch parameters, the third small
        moved = dataclasses.replace(built, h=0.2)
        assert moved.branch is (Branch.SMALL if built.alpha < 0.4 else Branch.LARGE)
        np.testing.assert_equal(self.ON_PROFILE[name](moved), self.CALLS[name](0.2, built.alpha))

    @pytest.mark.parametrize("name", CALLS)
    def test_hand_built_parameter_is_validated(self, name):
        with pytest.raises(ValueError, match="finite and positive"):
            self.CALLS[name](0.4, -1.0)


class TestBoundaryRadius:
    @pytest.mark.parametrize("h", H_GRID)
    def test_neck_starts_at_origin(self, h):
        assert boundary_radius(h, 2.0 * h) == 0.0

    def test_half_closed_form(self):
        # |log(alpha)| at h = 1/2
        assert boundary_radius(0.5, math.e) == pytest.approx(1.0, rel=1e-15)
        assert boundary_radius(0.5, 1.0 / math.e) == pytest.approx(1.0, rel=1e-15)

    def test_large_branch_cross_check(self):
        # 0.8*cosh(1) + sinh(1), inverted
        assert boundary_radius(0.4, 2.4096657014959963) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("h", H_GRID)
    def test_round_trips(self, h):
        threshold = hole_threshold(h)
        small_grid = np.linspace(0.001, min(threshold, 5.0) * 0.999, 25)
        for rho in small_grid:
            assert boundary_radius(h, param_small(h, rho)) == pytest.approx(rho, abs=1e-10)
        for rho in np.linspace(0.001, 5.0, 25):
            assert boundary_radius(h, param_large(h, rho)) == pytest.approx(rho, abs=1e-10)

    def test_half_branch_exact_exponentials(self):
        for rho in (0.1, 0.7, 1.0, 3.0, 10.0):
            assert param_small(0.5, rho) == math.exp(-rho)
            assert param_large(0.5, rho) == math.exp(rho)
            assert boundary_radius(0.5, math.exp(-rho)) == pytest.approx(rho, rel=1e-15)

    def test_seam_against_half_formula(self):
        # just below h = 1/2 the value must agree with |log(alpha)|
        for alpha in (0.1, 0.5, 0.9, 1.5, 3.0, 10.0):
            assert boundary_radius(0.5 - 1e-12, alpha) == pytest.approx(
                abs(math.log(alpha)), abs=1e-6
            )

    def test_monotone_in_parameter(self):
        h = 0.3
        small = [boundary_radius(h, a) for a in np.linspace(0.05, 2 * h, 30)]
        assert all(x > y for x, y in zip(small, small[1:]))
        large = [boundary_radius(h, a) for a in np.linspace(2 * h, 8.0, 30)]
        assert all(x < y for x, y in zip(large, large[1:]))


class TestInverseParameters:
    @pytest.mark.parametrize("h", H_GRID)
    def test_at_origin(self, h):
        assert param_small(h, 0.0) == pytest.approx(2 * h, rel=1e-15)
        assert param_large(h, 0.0) == pytest.approx(2 * h, rel=1e-15)

    def test_closed_form_values(self):
        # 2h*cosh(rho) -/+ sinh(rho)
        assert param_small(0.4, 0.5) == pytest.approx(0.38100546667135726, rel=1e-14)
        assert param_small(0.5, 1.0) == pytest.approx(0.36787944117144233, rel=1e-15)
        assert param_large(0.4, 1.0) == pytest.approx(2.4096657014959963, rel=1e-14)
        assert param_large(0.5, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_small_ranges(self):
        for h in (0.05, 0.25, 0.4):
            for rho in np.linspace(0.0, hole_threshold(h) * 0.999, 20):
                assert 0.0 < param_small(h, rho) <= 2 * h * (1 + 1e-12)

    def test_large_ranges(self):
        for h in H_GRID:
            for rho in np.linspace(0.0, 5.0, 20):
                assert param_large(h, rho) >= 2 * h * (1 - 1e-12)

    def test_hole_too_large(self):
        with pytest.raises(HoleTooLargeError):
            param_small(0.4, 1.2)
        # at the threshold itself the parameter would be zero
        with pytest.raises(HoleTooLargeError):
            param_small(0.4, hole_threshold(0.4))
        # h = 1/2 never runs out
        assert param_small(0.5, 50.0) == math.exp(-50.0)


class TestHoleThreshold:
    def test_examples(self):
        assert hole_threshold(0.4) == pytest.approx(math.log(3.0), abs=1e-12)
        assert hole_threshold(0.5) == math.inf
        assert hole_threshold(1e-8) == pytest.approx(2e-8, rel=1e-9)

    def test_equals_arccosh_form(self):
        for h in (0.05, 0.25, 0.4, 0.499):
            arccosh_form = math.acosh(1.0 / math.sqrt(1.0 - 4.0 * h * h))
            assert hole_threshold(h) == pytest.approx(arccosh_form, rel=1e-12)


class TestSlope:
    def test_half_alpha_one_closed_form(self):
        assert slope(0.5, 1.0, 2.0) == pytest.approx(math.sinh(1.0), rel=1e-13)
        for rho in (0.3, 1.0, 2.7):
            assert slope(0.5, 1.0, rho) == pytest.approx(math.sinh(rho / 2), rel=1e-12)

    def test_neck_limit_is_finite(self):
        # series: u ~ h*rho near the origin
        assert slope(0.4, 0.8, 0.0) == 0.0
        assert slope(0.4, 0.8 * (1 + 1e-13), 0.0) == 0.0  # a neck within PARAM_RTOL
        assert slope(0.4, 0.8, 1e-2) == pytest.approx(0.4e-2, rel=1e-3)
        assert slope(0.4, 0.8, 1e-3) == pytest.approx(0.4e-3, rel=1e-3)

    def test_vertical_sentinels(self):
        rho0 = boundary_radius(0.4, 0.5)
        assert slope(0.4, 0.5, rho0) == math.inf
        beta = param_large(0.4, 1.0)
        assert slope(0.4, beta, 1.0) == -math.inf

    def test_sign_pattern(self):
        # small branch: nonnegative everywhere beyond the starting circle
        for rho in np.linspace(boundary_radius(0.4, 0.5), 4.0, 30)[1:]:
            assert slope(0.4, 0.5, rho) >= 0.0
        # large branch: negative just beyond the circle, positive far out
        beta = param_large(0.4, 1.0)
        assert slope(0.4, beta, 1.05) < -1.0
        assert slope(0.4, beta, 4.0) > 0.0

    def test_domain_error_inside_circle(self):
        with pytest.raises(ValueError):
            slope(0.4, 0.5, boundary_radius(0.4, 0.5) - 1e-6)

    def test_rejects_oversized_radius(self):
        with pytest.raises(ValueError):
            slope(0.4, 0.5, 101.0)


class TestFluxIdentity:
    def test_on_grids(self):
        # sinh(rho)*u/sqrt(1+u^2) = 2h*cosh(rho) - alpha, relative to the
        # operand scale 2h*cosh(rho) + alpha
        for h in (0.1, 0.25, 0.4, 0.5):
            starts = [r for r in (0.2, 0.7, 1.5) if r < hole_threshold(h)]
            params = [param_small(h, r) for r in starts]
            params += [param_large(h, r) for r in (0.2, 0.7, 1.5)]
            for p in params:
                rho0 = boundary_radius(h, p)
                for d in (0.05, 0.3, 1.0, 2.5):
                    rho = rho0 + d
                    lhs = flux(slope(h, p, rho), rho)
                    rhs = 2 * h * math.cosh(rho) - p
                    scale = 2 * h * math.cosh(rho) + p
                    assert abs(lhs - rhs) <= 1e-12 * scale


class TestHeight:
    def test_zero_on_starting_circle(self):
        assert height(0.4, 0.5, boundary_radius(0.4, 0.5)) == 0.0
        assert height(0.5, 1.0, 0.0) == 0.0

    def test_half_alpha_one_closed_form(self):
        assert height(0.5, 1.0, 2.0) == pytest.approx(1.0861612696304874, abs=1e-10)
        for rho in (0.1, 0.5, 1.0, 2.0, 3.0):
            assert height(0.5, 1.0, rho) == pytest.approx(closed_form_height(rho), abs=1e-10)

    def test_tolerance_is_honored(self):
        got = height(0.5, 1.0, 3.0)
        assert abs(got - closed_form_height(3.0)) <= 1e-11

    def test_large_branch_dips_negative_then_recovers(self):
        beta = param_large(0.4, 1.0)
        assert height(0.4, beta, 1.3) < 0.0
        assert height(0.4, beta, 4.0) > 0.0

    def test_small_branch_nonnegative(self):
        alpha = param_small(0.25, 0.3)
        for rho in np.linspace(0.3, 3.0, 15):
            assert height(0.25, alpha, rho) >= 0.0

    def test_domain_error_inside_circle(self):
        with pytest.raises(ValueError):
            height(0.4, 0.5, 0.1)

    def test_boundary_slack_absorbs_roundtrip_noise(self):
        # a radius a few ulp below the starting circle still evaluates to 0
        rho0 = boundary_radius(0.4, param_large(0.4, 1.0))
        assert height(0.4, param_large(0.4, 1.0), rho0 - 1e-13) == 0.0


class TestCmcProperty:
    @pytest.mark.parametrize(
        "h, alpha_of",
        [
            (0.25, lambda h: param_small(h, 0.3)),
            (0.4, lambda h: param_small(h, 0.5)),
            (0.4, lambda h: param_large(h, 1.0)),
            (0.5, lambda h: 2.0),
        ],
    )
    def test_curvature_equals_2h(self, h, alpha_of):
        profile = HeightProfile(h, alpha_of(h))
        rho = profile.rho0 + 0.8
        rf = profile.as_radial_function()
        assert mean_curvature_radial(rf, rho, step=1e-4) == pytest.approx(2 * h, abs=1e-5)

    def test_order_two_refinement(self):
        profile = HeightProfile(0.4, param_small(0.4, 0.5))
        rf = profile.as_radial_function()
        rho = profile.rho0 + 1.0
        errs = [abs(mean_curvature_radial(rf, rho, step=s) - 0.8) for s in (2e-3, 1e-3, 5e-4)]
        orders = [math.log2(c / f) for c, f in zip(errs, errs[1:])]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.2)


class TestSampleProfile:
    def test_two_rows(self):
        table = sample_profile(0.4, 0.5, 2.0, 2)
        rho0 = boundary_radius(0.4, 0.5)
        assert table.shape == (2, 3)
        assert table[0, 0] == rho0
        assert table[1, 0] == 2.0

    def test_first_row_anchoring(self):
        table = sample_profile(0.4, 0.5, 2.0, 7)
        assert table[0, 1] == 0.0
        assert table[0, 2] == math.inf
        beta = param_large(0.4, 1.0)
        assert sample_profile(0.4, beta, 3.0, 5)[0, 2] == -math.inf
        # neck profile: finite limit slope at the origin
        assert sample_profile(0.4, 0.8, 2.0, 5)[0, 2] == 0.0

    def test_matches_closed_form(self):
        table = sample_profile(0.5, 1.0, 2.0, 5)
        for rho, h_val, u_val in table:
            assert h_val == pytest.approx(closed_form_height(rho), abs=1e-9)
            if rho > 0:
                assert u_val == pytest.approx(math.sinh(rho / 2), rel=1e-12)

    def test_cumulative_matches_direct_quadrature(self):
        table = sample_profile(0.4, param_large(0.4, 1.0), 3.0, 9)
        for rho, h_val, _ in table[1:]:
            assert h_val == pytest.approx(height(0.4, param_large(0.4, 1.0), rho), abs=1e-9)

    def test_small_branch_heights_nondecreasing(self):
        table = sample_profile(0.25, param_small(0.25, 0.4), 3.0, 40)
        heights = table[:, 1]
        assert np.all(np.diff(heights) >= -1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_profile(0.4, 0.5, 2.0, 1)
        rho0 = boundary_radius(0.4, 0.5)
        with pytest.raises(ValueError):
            sample_profile(0.4, 0.5, rho0 * 0.5, 5)


# each count a caller gives: its minimum, and a call that takes the count and
# returns the size of what it built
_ANN = Annulus(0.5, 2.0)
COUNTS = {
    "sample_profile": (2, lambda n: sample_profile(0.4, 0.5, 2.0, n).shape[0]),
    "AprioriBounds.sample": (2, lambda n: bounding_box(0.4, _ANN, OuterBoundaryData(0.0, 0.0)).sample(n).shape[0]),
    "PolarGrid n_rho": (3, lambda n: PolarGrid(_ANN, n, 4).n_rho),
    "PolarGrid n_theta": (4, lambda n: PolarGrid(_ANN, 3, n).n_theta),
    "solve_dirichlet_2d grid": (3, lambda n: solve_dirichlet_2d(0.4, _ANN, 0.1, 0.0, grid=(n, 4))[0].grid.n_rho),
}
# a count is what operator.index takes, so numpy integers work and floats do not
COUNT_VALUES = {
    "minimum": lambda m: m,
    "numpy minimum": lambda m: np.int64(m),
    "below": lambda m: m - 1,
    "fraction": lambda m: m + 0.5,
    "integral float": lambda m: float(m),
    "string": lambda m: str(m),
    "none": lambda m: None,
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("kind", COUNT_VALUES)
def test_counts_are_integers_of_at_least_the_minimum(name, kind):
    minimum, build = COUNTS[name]
    n = COUNT_VALUES[kind](minimum)
    if kind in ("minimum", "numpy minimum"):
        assert build(n) == minimum
    else:
        with pytest.raises(ValueError, match="must be an integer" if kind != "below" else "need at least"):
            build(n)


# small branch, large branch, h = 1/2 and the neck; alpha1 is the parameter
# of the large-branch profile starting at rho = 1
PROFILE_CASES = [(0.4, 0.5), pytest.param(0.4, param_large(0.4, 1.0), id="0.4-alpha1"), (0.5, 1.0), (0.4, 0.8)]


class TestHeightProfileWrapper:
    def test_fields_and_consistency(self):
        profile = HeightProfile(0.4, 0.5)
        assert profile.h == 0.4
        assert profile.alpha == 0.5
        assert profile.branch is Branch.SMALL
        assert profile.rho0 == boundary_radius(0.4, 0.5)
        assert profile.height(1.5) == height(0.4, 0.5, 1.5)
        assert profile.slope(1.5) == slope(0.4, 0.5, 1.5)
        table = profile.sample(2.0, 4)
        assert table.shape == (4, 3)

    @pytest.mark.parametrize("h, alpha", PROFILE_CASES)
    def test_slope_uses_the_stored_starting_circle(self, h, alpha):
        profile = HeightProfile(h, alpha)
        radii = [profile.rho0, profile.rho0 + 1e-9, 1.3, 3.0]
        expected = [slope(h, alpha, rho) for rho in radii]
        table = sample_profile(h, alpha, 3.5, 9)
        with mock.patch.object(profiles, "boundary_radius", side_effect=AssertionError):
            assert [profile.slope(rho) for rho in radii] == expected
            np.testing.assert_array_equal(profile.sample(3.5, 9), table)
            if profile.rho0 > 1e-6:
                with pytest.raises(ValueError, match="inside the starting circle"):
                    profile.slope(profile.rho0 - 1e-6)

    @pytest.mark.parametrize("h, alpha", PROFILE_CASES)
    def test_height_uses_the_stored_starting_circle(self, h, alpha):
        profile = HeightProfile(h, alpha)
        radii = [profile.rho0, profile.rho0 + 1e-9, 1.3, 3.0]
        expected = [height(h, alpha, rho) for rho in radii]
        with mock.patch.object(profiles, "boundary_radius", wraps=profiles.boundary_radius) as spy:
            assert [profile.height(rho) for rho in radii] == expected
            if profile.rho0 > 1e-6:
                with pytest.raises(ValueError, match="inside the starting circle"):
                    profile.height(profile.rho0 - 1e-6)
        assert spy.call_count == 0

    @pytest.mark.parametrize("h, alpha", PROFILE_CASES)
    def test_radial_function_of_radii_is_the_sample(self, h, alpha):
        profile = HeightProfile(h, alpha)
        with mock.patch.object(profiles.HeightProfile, "__post_init__", side_effect=AssertionError):
            table = profile.sample(3.5, 33)
            graph = profile.as_radial_function()
            np.testing.assert_array_equal(graph.value(table[:, 0]), table[:, 1])
            np.testing.assert_array_equal(graph.derivative(table[:, 0]), table[:, 2])

    def test_radial_function_stops_at_the_supported_maximum(self):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            HeightProfile(0.4, 0.5).as_radial_function(800.0).value(750.0)


class TestHeightProfileConstructor:
    """A profile is built from h and alpha alone; its branch and starting radius follow from them.

    A profile moved to another h, or with a branch set by hand, derives them
    again: see the ``HeightProfile`` input of ``TestParameterOfAnotherH``.
    """

    def test_replaced_h_rederives_the_profile(self):
        profile = dataclasses.replace(HeightProfile(0.4, 0.5), h=0.2)
        assert profile == HeightProfile(0.2, 0.5)
        assert profile.branch is Branch.LARGE
        assert profile.height(2.0) == height(0.2, 0.5, 2.0)

    def test_replaced_alpha_rederives_the_profile(self):
        small = HeightProfile(0.4, 0.5)
        for alpha, branch in [(0.8, Branch.NECK), (3.0, Branch.LARGE), (0.3, Branch.SMALL)]:
            profile = dataclasses.replace(small, alpha=alpha)
            assert profile == HeightProfile(0.4, alpha)
            assert profile.branch is branch
            assert profile.rho0 == boundary_radius(0.4, alpha)

    def test_starting_radius_is_not_an_argument(self):
        with pytest.raises(TypeError):
            HeightProfile(0.4, 0.5, 0.3)
        with pytest.raises(ValueError):
            dataclasses.replace(HeightProfile(0.4, 0.5), rho0=0.3)
        with pytest.raises(ValueError):
            dataclasses.replace(HeightProfile(0.4, 0.5), branch=Branch.LARGE)

    CALLS = {
        "HeightProfile": HeightProfile,
        "boundary_radius": boundary_radius,
        "height": lambda h, alpha: height(h, alpha, 1.3),
        "slope": lambda h, alpha: slope(h, alpha, 1.3),
        "sample_profile": lambda h, alpha: sample_profile(h, alpha, 2.0, 5),
        "hole_threshold": lambda h, alpha: hole_threshold(h),
        "param_small": lambda h, alpha: param_small(h, 0.5),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_mean_curvature_is_its_float(self, call):
        np.testing.assert_equal(call(Fraction(2, 5), 0.5), call(0.4, 0.5))


def test_public_graph_holders_are_pinned():
    """What a caller sees of every object that holds a graph.

    ``HeightProfile`` compares, hashes and prints by its fields and cannot be
    changed. Profiles, envelopes and radial solutions are handed out as
    ``RadialFunction`` over (rho0, upper) or (a, b), and each is exactly its
    value at its anchor: 0 on the profile's circle, the outer value at b.
    """
    profile = HeightProfile(0.4, 0.5)
    assert profile == HeightProfile(0.4, 0.5) and profile != HeightProfile(0.4, 0.6)
    assert hash(profile) == hash(HeightProfile(0.4, 0.5))
    assert repr(profile) == (
        "HeightProfile(h=0.4, alpha=0.5, branch=<Branch.SMALL: 'small'>, rho0=0.3401261514743677)"
    )
    for name in ("h", "alpha", "branch", "rho0"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(profile, name, 1.0)
    h, annulus, m, M, u_b = 0.4, Annulus(0.5, 2.0), -0.25, 0.5, 0.125
    box = bounding_box(h, annulus, OuterBoundaryData(m, M))
    graphs = [
        (profile.as_radial_function(), (profile.rho0, MAX_RADIUS), profile.rho0, 0.0),
        (profile.as_radial_function(3.0), (profile.rho0, 3.0), profile.rho0, 0.0),
        (upper_envelope(h, annulus, M), (0.5, 2.0), 2.0, M),
        (lower_envelope(h, annulus, m), (0.5, 2.0), 2.0, m),
        (box.upper, (0.5, 2.0), 2.0, M),
        (box.lower, (0.5, 2.0), 2.0, m),
        (solve_radial(h, annulus, 0.1, u_b).evaluator, (0.5, 2.0), 2.0, u_b),
    ]
    for graph, domain, anchor, top in graphs:
        assert type(graph) is RadialFunction
        assert graph.domain == domain
        assert graph.value(anchor) == top
        assert graph.value([anchor])[0] == top


@pytest.mark.parametrize("r0", [0.0, 1e-13, 0.5, 3.0, MAX_RADIUS])
def test_slacks_are_exact_at_the_ends_of_the_flux_interval(r0):
    span = 2.0 * math.sinh(r0)
    assert profiles._slacks(r0, profiles._LARGE) == (span, 0.0)
    assert profiles._slacks(r0, profiles._SMALL) == (0.0, span)


@pytest.mark.parametrize("r0", [1e-10, 0.5, 3.0])
@pytest.mark.parametrize("theta", [1e-9, 0.3, 1.2, 0.5 * math.pi - 1e-9])
def test_graph_keeps_one_slack_pair(r0, theta):
    # the smaller slack as given and the larger as 2 sinh(r0) minus it,
    # whatever the given pair sums to
    given = profiles._slacks(r0, theta)
    small = min(given)
    pair = profiles._Graph(0.4, r0, r0 + 1.0, given, 0.0).slacks
    assert sorted(pair) == [small, 2.0 * math.sinh(r0) - small]
    assert pair.index(small) == given.index(small)


def _kernel_cases():
    """(name, (h, C, r0), slacks) over both branches, the neck and exact-zero slacks."""
    h, a = 0.4, 0.5
    c_lo, c_hi = -param_large(h, a), -param_small(h, a)
    mid = 0.5 * (c_lo + c_hi)
    beyond = -param_large(h, 1.5)
    yield "large branch", (h, c_lo, a), (2 * math.sinh(a), 0.0)
    yield "small branch", (h, c_hi, a), (0.0, 2 * math.sinh(a))
    yield "neck", (h, -2 * h, 0.0), (0.0, 0.0)
    yield "interior flux", (h, mid, a), (c_hi - mid, mid - c_lo)
    yield "exact-zero slack", (h, c_lo, a), (c_hi - c_lo, 0.0)
    yield "beyond the hole", (h, beyond, 1.5), (2 * math.sinh(1.5), 0.0)
    yield "h = 1/2", (0.5, -math.exp(-1.0), 1.0), (0.0, 2 * math.sinh(1.0))


CASES = list(_kernel_cases())


@pytest.mark.parametrize("name, params, slacks", CASES, ids=[case[0] for case in CASES])
def test_array_integrand_matches_scalar(name, params, slacks):
    """Float and array evaluation of the kernel's slope, the height's integrand,
    agree to 4 ulp of its unreduced size, and its rise to 1e-14 of its largest value.

    Both run the same expressions, but numpy's vectorized cosh and expm1 may
    differ from the C library's in the last bit, and F = 2h*cosh(r) + C
    cancels where the graph turns horizontal, so the slope bound is 4 ulp of
    (2h*cosh(r) + |C|)/sqrt(radicand), |u'| times the condition number of F;
    where F keeps its digits that is 4 ulp of u'.
    """
    h, C, r0 = params
    graph = profiles._Graph(h, r0, r0 + 3.0, slacks, 0.0)
    rng = np.random.default_rng(20)
    s = np.concatenate(([1e-12, 1e-6], rng.uniform(0.0, 1.5, 400), 10.0 ** rng.uniform(-9, 0, 100)))
    r = r0 + s * s
    r = r[r > r0]
    scalar = np.array([graph.slope(math, x) for x in r.tolist()])
    two_h_cosh = 2 * h * np.cosh(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        size = np.abs(scalar) * (two_h_cosh + abs(C)) / np.abs(two_h_cosh + C)
    bound = np.where(np.isfinite(size), 4 * np.spacing(size), np.inf)  # F rounds to 0
    for array in (graph.slope(np, r), graph.slope(np, r[:400].reshape(20, 20)).ravel()):
        n = array.size
        close = np.abs(array - scalar[:n]) <= bound[:n]
        assert close.all(), (name, r[:n][~close])
    rises = np.array([graph.rise(math, x) for x in r.tolist()])
    # the large branch's rise crosses 0, so the bound is relative to the largest
    np.testing.assert_allclose(graph.rise(np, r), rises, rtol=0.0, atol=1e-14 * np.abs(rises).max(), err_msg=name)
