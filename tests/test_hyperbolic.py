import math

import pytest
from hypothesis import given, strategies as st

from cmc_annuli import (
    HeightProfile,
    RadialFunction,
    euclidean_to_hyperbolic,
    flux,
    mean_curvature_radial,
)


def test_origin_is_fixed():
    assert euclidean_to_hyperbolic(0.0) == 0.0


def test_conversion_closed_forms():
    # log((1+r)/(1-r)) at r = 1/2 is log 3
    assert euclidean_to_hyperbolic(0.5) == pytest.approx(1.0986122886681098, abs=1e-15)
    # rho = 2*artanh(r) inverts at r = tanh(1/2)
    assert euclidean_to_hyperbolic(0.46211715726000974) == pytest.approx(1.0, rel=1e-15)
    # tanh(1) = 0.7615941559557649 is the disc radius of rho = 2
    assert euclidean_to_hyperbolic(0.7615941559557649) == pytest.approx(2.0, rel=1e-15)


@given(st.floats(min_value=0.0, max_value=7.6))
def test_round_trip(rho):
    # tanh(rho/2) is the disc radius at geodesic distance rho, below 0.999 here
    back = euclidean_to_hyperbolic(math.tanh(rho / 2.0))
    assert back == pytest.approx(rho, rel=1e-14, abs=1e-300)


def test_conversions_monotone():
    radii = [i / 50 * 0.99 for i in range(51)]
    out = [euclidean_to_hyperbolic(r) for r in radii]
    assert all(x < y for x, y in zip(out, out[1:]))


def test_conversion_domain_errors():
    for bad in (-0.1, 1.0, 1.5, math.inf):
        with pytest.raises(ValueError):
            euclidean_to_hyperbolic(bad)


def test_flux_zero_slope():
    assert flux(0.0, 1.3) == 0.0


def test_flux_vertical_sentinel():
    assert flux(math.inf, 2.0) == math.sinh(2.0)
    assert flux(-math.inf, 2.0) == -math.sinh(2.0)


def test_flux_rejects_nan_slope():
    with pytest.raises(ValueError, match="slope"):
        flux(math.nan, 1.0)


def test_flux_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="nonnegative radius, got -1.0"):
        flux(1.0, -1.0)


@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-3, max_value=10.0))
def test_flux_bounded_by_sinh(slope, rho):
    # strict at double precision for |slope| up to ~1e6; beyond that the
    # quotient slope/sqrt(1+slope^2) saturates to 1
    assert abs(flux(slope, rho)) < math.sinh(rho)


def test_flux_matches_profile_identity():
    # sinh(rho)*u/sqrt(1+u^2) for the profile slope equals 2h*cosh(rho) - alpha
    from cmc_annuli import slope as profile_slope

    u = profile_slope(0.4, 0.9, 1.5)
    assert flux(u, 1.5) == pytest.approx(0.9819276921945977, rel=1e-13)


def _closed_form_half_profile():
    # h = 1/2, alpha = 1: slope sinh(rho/2), height 2(cosh(rho/2) - 1)
    return RadialFunction(
        value=lambda rho: 2.0 * (math.cosh(rho / 2.0) - 1.0),
        derivative=lambda rho: math.sinh(rho / 2.0),
        domain=(0.0, 10.0),
    )


def test_constant_graph_is_minimal():
    const = RadialFunction(lambda rho: 3.7, lambda rho: 0.0, (0.0, 10.0))
    assert mean_curvature_radial(const, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_curvature_of_closed_form_profile():
    q = mean_curvature_radial(_closed_form_half_profile(), 1.0, step=1e-4)
    assert q == pytest.approx(1.0, abs=1e-7)


def test_curvature_of_quadrature_profile():
    rf = HeightProfile(0.4, 0.9).as_radial_function()
    assert mean_curvature_radial(rf, 1.5, step=1e-4) == pytest.approx(0.8, abs=1e-5)


def test_curvature_second_order_in_step():
    rf = _closed_form_half_profile()
    errs = [abs(mean_curvature_radial(rf, 1.0, step=s) - 1.0) for s in (2e-3, 1e-3, 5e-4)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.3 < coarse / fine < 4.7


def test_curvature_ignores_vertical_translates():
    base = _closed_form_half_profile()
    lifted = RadialFunction(lambda rho: base.value(rho) + 123.0, base.derivative, base.domain)
    for rho in (0.3, 1.0, 2.5):
        assert mean_curvature_radial(base, rho) == mean_curvature_radial(lifted, rho)


def test_curvature_stencil_domain_check():
    rf = _closed_form_half_profile()
    with pytest.raises(ValueError):
        mean_curvature_radial(rf, 10.0, step=1e-4)
    with pytest.raises(ValueError):
        mean_curvature_radial(rf, 5e-5, step=1e-4)
    for rho in (0.0, -1.0):
        with pytest.raises(ValueError, match="needs rho > 0"):
            mean_curvature_radial(rf, rho, step=1e-4)


def test_curvature_rejects_a_nan_domain():
    # with a nan domain both stencil tests are false, so the checker
    # returned 0.8000000013356096 here; the domain is now checked when built
    f = HeightProfile(0.4, 3.0).as_radial_function(10.0)
    with pytest.raises(ValueError, match="domain start must be finite"):
        mean_curvature_radial(RadialFunction(f.value, f.derivative, (math.nan, math.nan)), 3.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-4])
def test_curvature_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        mean_curvature_radial(_closed_form_half_profile(), 1.0, step=step)
