import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmc_annuli import (
    Annulus,
    HoleTooLargeError,
    OuterBoundaryData,
    Verdict,
    boundary_radius,
    bounding_box,
    dirichlet_feasibility,
    height,
    hole_threshold,
    lower_envelope,
    param_large,
    param_small,
    slope,
    upper_envelope,
)
from cmc_annuli import profiles
from test_oracle import vertical_slope


class TestDomainTypes:
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (1.0, 150.0)])
    def test_annulus_validation(self, a, b):
        with pytest.raises(ValueError):
            Annulus(a, b)

    @pytest.mark.parametrize("a", [1e-77, 1e-85, 5e-324])
    def test_annulus_rejects_a_below_its_floor(self, a):
        # below about 1e-77 the closed-form drops are nan, and below about
        # 1e-81 they divide by zero, so the annulus is rejected first
        with pytest.raises(ValueError, match="1e-70 <= a < b"):
            Annulus(a, 2.0 * a)

    @pytest.mark.parametrize("h", [0.05, 0.4, 0.5])
    @pytest.mark.parametrize("b", [2e-70, 1e-67, 1.0])
    def test_drops_are_finite_at_the_floor(self, h, b):
        from cmc_annuli import extremal_drops

        annulus = Annulus(1e-70, b)
        drops = extremal_drops(h, annulus)
        assert math.isfinite(drops.d_min) and math.isfinite(drops.d_max)
        assert drops.d_min <= drops.d_max
        verdict = dirichlet_feasibility(h, annulus, 0.0, 0.0, OuterBoundaryData(0.0, 0.0))
        assert math.isfinite(verdict.threshold_upper) and math.isfinite(verdict.threshold_lower)

    def test_outer_data_validation(self):
        with pytest.raises(ValueError):
            OuterBoundaryData(1.0, 0.0)
        OuterBoundaryData(0.5, 0.5)  # equal extremes are fine

    def test_annulus_stores_the_floats_it_validates(self):
        annulus = Annulus("0.5", np.float64(2.0))
        assert (type(annulus.a), type(annulus.b)) == (float, float)
        assert annulus == Annulus(0.5, 2.0)
        box = bounding_box(0.4, annulus, OuterBoundaryData(0.0, 0.0))
        assert box.upper.value(0.5) == upper_envelope(0.4, Annulus(0.5, 2.0), 0.0).value(0.5)

    def test_outer_data_stores_the_floats_it_validates(self):
        data = OuterBoundaryData("0", 1)
        assert (type(data.m), type(data.M)) == (float, float)
        assert data == OuterBoundaryData(0.0, 1.0)
        for bad in [("x", "1"), ("nan", "1"), ("1", "0")]:
            with pytest.raises(ValueError):
                OuterBoundaryData(*bad)


class TestUpperEnvelope:
    def test_anchored_at_outer_radius(self):
        env = upper_envelope(0.4, Annulus(0.5, 2.0), M=3.25)
        assert env.value(2.0) == 3.25  # exact: the rise to b cancels itself

    def test_value_at_inner_radius(self):
        # H_beta vanishes at a, so upper(a) = -H_beta(b) + M
        ann = Annulus(0.5, 2.0)
        beta = param_large(0.4, 0.5)
        expected = -height(0.4, beta, 2.0) + 0.0
        env = upper_envelope(0.4, ann, M=0.0)
        assert env.value(0.5) == pytest.approx(expected, abs=1e-7)

    def test_half_case(self):
        # beta = e for a = 1 at h = 1/2
        ann = Annulus(1.0, 2.0)
        assert param_large(0.5, 1.0) == math.e
        env = upper_envelope(0.5, ann, M=1.0)
        expected = -height(0.5, math.e, 2.0) + 1.0
        assert env.value(1.0) == pytest.approx(expected, abs=1e-7)

    def test_derivative_is_profile_slope(self):
        # the envelope is the beta profile, but each side is vertical on its
        # own circle: the envelope on a = 0.5, the profile on
        # boundary_radius(beta) = 0.49999999999999983, whose exact slopes at
        # 1.2 differ by 1e-14 relative, so each meets its own reference
        ann = Annulus(0.5, 2.0)
        env = upper_envelope(0.4, ann, M=0.0)
        beta = param_large(0.4, 0.5)
        rho0 = boundary_radius(0.4, beta)
        expected = vertical_slope(0.4, 0.5, 1.2, -1)
        assert env.derivative(1.2) == pytest.approx(expected, rel=1e-14, abs=0.0)
        expected = vertical_slope(0.4, rho0, 1.2, -1)
        assert slope(0.4, beta, 1.2) == pytest.approx(expected, rel=1e-14, abs=0.0)
        # on a = 1 the profile's circle rounds back onto a, so both are one graph
        beta = param_large(0.4, 1.0)
        assert boundary_radius(0.4, beta) == 1.0
        env = upper_envelope(0.4, Annulus(1.0, 2.0), M=0.0)
        assert env.derivative(1.2) == slope(0.4, beta, 1.2)

    def test_outer_maximum_is_coerced_and_checked(self):
        ann = Annulus(0.5, 2.0)
        env = upper_envelope(0.4, ann, "1")
        assert env.value(2.0) == 1.0
        assert env.value(0.5) == upper_envelope(0.4, ann, 1.0).value(0.5)
        for bad in [float("nan"), float("inf"), "x", "-inf"]:
            with pytest.raises(ValueError):
                upper_envelope(0.4, ann, bad)


class TestLowerEnvelope:
    def test_anchored_at_outer_radius(self):
        env = lower_envelope(0.4, Annulus(0.5, 2.0), m=-1.5)
        assert env.value(2.0) == -1.5

    def test_hole_too_large(self):
        with pytest.raises(HoleTooLargeError):
            lower_envelope(0.4, Annulus(1.2, 2.0), m=0.0)

    def test_half_case_has_no_hole_restriction(self):
        ann = Annulus(1.0, 2.0)
        env = lower_envelope(0.5, ann, m=0.0)
        expected = -height(0.5, math.exp(-1.0), 2.0)
        assert env.value(1.0) == pytest.approx(expected, abs=1e-7)

    def test_outer_minimum_is_coerced_and_checked(self):
        ann = Annulus(0.5, 2.0)
        env = lower_envelope(0.4, ann, "-1")
        assert env.value(2.0) == -1.0
        assert env.value(0.5) == lower_envelope(0.4, ann, -1.0).value(0.5)
        for bad in [float("inf"), float("nan"), "x", "-inf"]:
            with pytest.raises(ValueError):
                lower_envelope(0.4, ann, bad)


class TestBoundingBox:
    def test_half_always_complete(self):
        for a in (0.2, 1.0, 5.0, 20.0, 50.0):
            box = bounding_box(0.5, Annulus(a, a + 1.0), OuterBoundaryData(0.0, 0.0))
            assert box.lower is not None

    def test_large_hole_drops_lower_bound(self):
        box = bounding_box(0.4, Annulus(1.2, 2.0), OuterBoundaryData(0.0, 0.0))
        assert box.lower is None
        assert box.upper is not None

    def test_hole_threshold_is_sharp(self):
        threshold = hole_threshold(0.4)
        ok = bounding_box(0.4, Annulus(threshold - 1e-6, 2.0), OuterBoundaryData(0, 0))
        assert ok.lower is not None
        bad = bounding_box(0.4, Annulus(threshold + 1e-6, 2.0), OuterBoundaryData(0, 0))
        assert bad.lower is None

    def test_hole_rule_one_ulp_below_the_threshold(self):
        # 2h*cosh(rho) - sinh(rho) rounds to 0 one ulp below artanh(2h): the
        # small-branch parameter would be 0, so the hole counts as too large
        h = 0.1
        rho = math.nextafter(hole_threshold(h), 0.0)
        assert rho == 0.20273255405408216 and profiles._small_value(h, rho) == 0.0
        with pytest.raises(HoleTooLargeError):
            param_small(h, rho)
        with pytest.raises(HoleTooLargeError):
            lower_envelope(h, Annulus(rho, 1.0), 0.0)
        data = OuterBoundaryData(0.0, 0.0)
        assert bounding_box(h, Annulus(rho, 1.0), data).lower is None
        assert dirichlet_feasibility(h, Annulus(rho, 1.0), 0.0, 0.0, data).threshold_lower is None

    def test_lower_below_upper(self):
        box = bounding_box(0.4, Annulus(0.5, 2.0), OuterBoundaryData(0.0, 0.0))
        for rho in np.linspace(0.5, 2.0, 33):
            assert box.lower.value(rho) <= box.upper.value(rho) + 1e-12

    def test_sample_table(self):
        box = bounding_box(0.5, Annulus(1.0, 2.0), OuterBoundaryData(-1.0, 1.0))
        table = box.sample(17)
        assert table.shape == (17, 3)
        assert table[0, 0] == 1.0 and table[-1, 0] == 2.0
        assert table[-1, 1] == -1.0 and table[-1, 2] == 1.0
        assert np.all(table[:, 1] <= table[:, 2])
        with pytest.raises(ValueError, match="need at least 2 sample rows"):
            box.sample(1)

    def test_sample_ends_are_the_thresholds_and_the_outer_data(self):
        # the row at a is the verdict's threshold bit for bit, the row at b the outer data
        rng = np.random.default_rng(18)
        for _ in range(300):
            h, a = rng.uniform(0.05, 0.5), rng.uniform(0.1, 2.0)
            ann = Annulus(a, a + rng.uniform(0.1, 2.0))
            m = rng.uniform(-1.0, 1.0)
            data = OuterBoundaryData(m, m + rng.uniform(0.0, 1.0))
            first, last = bounding_box(h, ann, data).sample(5)[[0, -1]]
            result = dirichlet_feasibility(h, ann, data.m, data.M, data)
            assert first[2] == result.threshold_upper and last[2] == data.M
            if result.threshold_lower is None:
                assert math.isnan(first[1]) and math.isnan(last[1])
            else:
                assert first[1] == result.threshold_lower and last[1] == data.m

    def test_sample_nan_lower_when_hole_too_large(self):
        box = bounding_box(0.4, Annulus(1.2, 2.0), OuterBoundaryData(0.0, 0.0))
        table = box.sample(9)
        assert np.all(np.isnan(table[:, 1]))
        assert np.all(np.isfinite(table[:, 2]))

    def test_shrinking_hole_tightens_upper_envelope(self):
        # the slope integrand decreases in the parameter, which grows with a,
        # so a smaller hole gives a lower (sharper) upper bound at fixed rho
        b, M = 2.0, 0.0
        for rho in (1.2, 1.5, 1.9):
            values = [
                upper_envelope(0.4, Annulus(a, b), M).value(rho) for a in (0.3, 0.5, 0.8, 1.1)
            ]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


class TestDirichletFeasibility:
    def test_strictly_inside_is_inconclusive(self):
        ann = Annulus(0.5, 2.0)
        box = bounding_box(0.4, ann, OuterBoundaryData(0.0, 0.0))
        inner = box.upper.value(0.5) - 1.0
        result = dirichlet_feasibility(0.4, ann, inner, inner, OuterBoundaryData(0.0, 0.0))
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.margin < 0.0

    @pytest.mark.parametrize("c", [-5.0, 0.0, 7.0])
    def test_exceeding_upper_threshold(self, c):
        ann = Annulus(0.5, 2.0)
        beta = param_large(0.4, 0.5)
        inner = -height(0.4, beta, 2.0) + c + 0.01
        result = dirichlet_feasibility(0.4, ann, inner, inner, OuterBoundaryData(c, c))
        assert result.verdict is Verdict.VIOLATES_UPPER
        assert result.margin == pytest.approx(0.01, abs=1e-7)

    def test_undercutting_lower_threshold(self):
        ann = Annulus(1.0, 2.0)
        env = lower_envelope(0.5, ann, m=0.0)
        inner = env.value(1.0) - 0.01
        result = dirichlet_feasibility(0.5, ann, inner, inner, OuterBoundaryData(0.0, 0.0))
        assert result.verdict is Verdict.VIOLATES_LOWER
        assert result.margin == pytest.approx(0.01, abs=1e-9)

    def test_no_lower_verdict_when_hole_too_large(self):
        ann = Annulus(1.2, 2.0)
        result = dirichlet_feasibility(0.4, ann, -100.0, -100.0, OuterBoundaryData(0.0, 0.0))
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.threshold_lower is None

    def test_thresholds_match_envelopes(self):
        ann = Annulus(0.5, 2.0)
        data = OuterBoundaryData(-0.5, 1.5)
        box = bounding_box(0.4, ann, data)
        result = dirichlet_feasibility(0.4, ann, 0.0, 0.0, data)
        assert result.threshold_upper == box.upper.value(0.5)
        assert result.threshold_lower == box.lower.value(0.5)

    def test_inner_data_is_coerced_and_checked(self):
        ann, data = Annulus(0.5, 2.0), OuterBoundaryData(-0.1, 0.2)
        assert dirichlet_feasibility(0.4, ann, "0", "1", data) == dirichlet_feasibility(0.4, ann, 0.0, 1.0, data)
        for bad in [("x", "1"), ("0", "nan"), ("-inf", "1")]:
            with pytest.raises(ValueError):
                dirichlet_feasibility(0.4, ann, *bad, data)

    @pytest.mark.parametrize("t", [-10.0, 0.0, 10.0])
    def test_translation_invariance(self, t):
        ann = Annulus(0.5, 2.0)
        base = dirichlet_feasibility(0.4, ann, 0.6, 0.7, OuterBoundaryData(-0.1, 0.2))
        moved = dirichlet_feasibility(
            0.4, ann, 0.6 + t, 0.7 + t, OuterBoundaryData(-0.1 + t, 0.2 + t)
        )
        assert moved.verdict is base.verdict
        assert moved.margin == pytest.approx(base.margin, abs=1e-9)

    @settings(deadline=None)
    @given(
        h=st.floats(0.01, 0.5),
        a=st.floats(0.05, 3.0),
        width=st.floats(0.05, 3.0),
        m=st.floats(-2.0, 2.0),
        spread=st.floats(0.0, 2.0),
        data=st.data(),
    )
    def test_verdict_invariant_under_common_shift(self, h, a, width, m, spread, data):
        # inner data 1e-6 to 1 from a threshold, on either side, and at least
        # 1e-6 from each: far beyond the rounding that a shift of up to 10
        # brings into either side
        ann, outer = Annulus(a, a + width), OuterBoundaryData(m, m + spread)
        base = dirichlet_feasibility(h, ann, 0.0, 0.0, outer)
        thresholds = [t for t in (base.threshold_upper, base.threshold_lower) if t is not None]
        near = st.builds(
            lambda t, sign, exponent: t + sign * 10.0**exponent,
            st.sampled_from(thresholds), st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 0.0),
        )
        inner_min, inner_max = sorted(data.draw(st.tuples(near, near)))
        assume(all(abs(x - t) >= 1e-6 for x in (inner_min, inner_max) for t in thresholds))
        t = data.draw(st.floats(-10.0, 10.0))
        verdict = dirichlet_feasibility(h, ann, inner_min, inner_max, outer).verdict
        moved = dirichlet_feasibility(
            h, ann, inner_min + t, inner_max + t, OuterBoundaryData(m + t, m + spread + t)
        )
        assert moved.verdict is verdict

    def test_rejects_disordered_inner_data(self):
        with pytest.raises(ValueError):
            dirichlet_feasibility(0.4, Annulus(0.5, 2.0), 1.0, 0.0, OuterBoundaryData(0, 0))
