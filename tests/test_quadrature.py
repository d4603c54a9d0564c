"""The in-package Gauss-Kronrod rule: its constants, both drivers and their failures."""

import math

import mpmath as mp
import numpy as np
import pytest

from cmc_annuli import Annulus, QuadratureError, feasible_flux_interval, param_large, param_small
from cmc_annuli.profiles import _flux_kernel
from cmc_annuli.quadrature import (
    EPSREL,
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    SUBDIVISION_LIMIT,
    adaptive_quad,
    adaptive_quad_panels,
)

GAUSS_NODES = NODES[1::2]


class TestRule:
    def test_gauss_nodes_and_weights_are_legendre(self):
        with mp.workdps(50):
            for x, w in zip(GAUSS_NODES, GAUSS_WEIGHTS):
                root = mp.findroot(lambda t: mp.legendre(10, t), x)
                assert abs(x - root) <= 1e-15
                exact = 2 / ((1 - root**2) * mp.diff(lambda t: mp.legendre(10, t), root) ** 2)
                assert abs(w - exact) <= 1e-15

    @staticmethod
    def _moment(nodes, weights, k):
        return math.fsum(w * x**k for x, w in zip(nodes, weights))

    @pytest.mark.parametrize("k", range(32))
    def test_kronrod_exact_to_degree_31(self, k):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(self._moment(NODES, KRONROD_WEIGHTS, k) - exact) <= 1e-15

    @pytest.mark.parametrize("k", range(20))
    def test_gauss_exact_to_degree_19(self, k):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(self._moment(GAUSS_NODES, GAUSS_WEIGHTS, k) - exact) <= 1e-15


def _acceptance_kernels():
    """Flux kernels of the acceptance annuli: both envelopes and an interior flux."""
    inner = (0.1, 0.2, 0.3, 0.4, 0.6, 0.9, 1.2, 1.5, 2.0, 2.5)
    annuli = [(a, a + w) for a in inner for w in (0.5, 1.3)] + [(0.5, 2.0), (0.5, 1.5)]
    for h in (0.2, 0.4, 0.5):
        for a, b in annuli:
            c_lo, c_hi = feasible_flux_interval(h, Annulus(a, b))
            for C in (c_lo, c_hi, 0.7 * c_lo + 0.3 * c_hi):
                yield (h, a, b, C), _flux_kernel(h, a, c_hi - C, C - c_lo)


KERNELS = list(_acceptance_kernels())
TOL = 1e-10


class TestAgainstQuadpack:
    """The ROADMAP gate: both drivers agree with scipy's QUADPACK to 1e-12."""

    def test_point_queries(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for (h, a, b, C), (g, _, points) in KERNELS:
            hi = math.sqrt(b - a)
            inside = [p for p in points if 0.0 < p < hi] or None
            expected = quad(g, 0.0, hi, epsabs=TOL, epsrel=EPSREL, limit=200, points=inside)[0]
            assert adaptive_quad(g, 0.0, hi, TOL, points) == pytest.approx(expected, abs=1e-12), (h, a, b, C)

    def test_tables(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for (h, a, b, C), (g, g_array, points) in KERNELS[::3]:
            edges = np.sqrt(np.linspace(0.0, b - a, 17))
            expected = [0.0]
            for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
                inside = [p for p in points if lo < p < hi] or None
                expected.append(expected[-1] + quad(g, lo, hi, epsabs=TOL, epsrel=EPSREL,
                                                    limit=200, points=inside)[0])
            got = adaptive_quad_panels(g_array, edges, TOL, points)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12, err_msg=str((h, a, b, C)))


class TestDrivers:
    def test_panels_match_point_queries(self):
        (_, _, _, _), (g, g_array, points) = KERNELS[4]
        edges = np.array([0.0, 1e-9, 0.1, 0.1, 0.5, 1.1])  # a repeated edge is an empty panel
        got = adaptive_quad_panels(g_array, edges, TOL, points)
        expected = np.cumsum([0.0] + [adaptive_quad(g, lo, hi, TOL, points)
                                      for lo, hi in zip(edges[:-1], edges[1:])])
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        assert got[3] == got[2]

    def test_reversed_interval_changes_sign(self):
        assert adaptive_quad(math.exp, 1.0, 0.0, TOL) == pytest.approx(1.0 - math.e, abs=1e-14)
        got = adaptive_quad_panels(np.exp, [0.0, 1.0, 0.5], TOL)
        np.testing.assert_allclose(got, [0.0, math.e - 1.0, math.exp(0.5) - 1.0], rtol=1e-14)

    def test_breakpoints_start_the_subdivision(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0

        assert adaptive_quad(f, 0.0, 1.0, TOL, [-1.0, 0.25, 0.5, 2.0]) == pytest.approx(1.0, abs=1e-15)
        assert len(calls) == 3 * len(NODES)

    def test_relative_floor_for_large_integrals(self):
        # |I| = 1e6: the 1e-12 absolute tolerance is below what doubles carry
        assert adaptive_quad(lambda x: 1e6 * math.cos(x), 0.0, math.pi / 2, 1e-12) == pytest.approx(1e6, rel=1e-13)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(math.exp, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_quad_panels(np.exp, [0.0, 1.0], -1.0)


def _nan_beyond_half(x):
    return 1.0 if x < 0.5 else math.nan


class TestQuadratureError:
    """The tolerance is reached or QuadratureError is raised; no value comes back."""

    @pytest.mark.parametrize("f", [lambda x: math.sin(1e5 * x), lambda x: math.nan, _nan_beyond_half],
                             ids=["oscillatory", "nan", "nan-on-part"])
    def test_point_query_raises(self, f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        with pytest.raises(QuadratureError):
            adaptive_quad(counted, 0.0, 1.0, TOL)
        assert len(calls) == (2 * SUBDIVISION_LIMIT - 1) * len(NODES)

    @pytest.mark.parametrize("F", [lambda x: np.sin(1e5 * x), lambda x: np.full_like(x, np.nan),
                                   lambda x: np.where(x < 0.5, 1.0, np.nan)],
                             ids=["oscillatory", "nan", "nan-on-part"])
    def test_table_raises(self, F):
        with pytest.raises(QuadratureError):
            adaptive_quad_panels(F, [0.0, 0.25, 1.0], TOL)


def _kernel_cases():
    """(name, (h, C, r0), kernel) over both branches, the neck and exact-zero slacks."""
    h, a = 0.4, 0.5
    c_lo, c_hi = -param_large(h, a).alpha, -param_small(h, a).alpha
    mid = 0.5 * (c_lo + c_hi)
    beyond = -param_large(h, 1.5).alpha
    yield "large branch", (h, c_lo, a), _flux_kernel(h, a, 2 * math.sinh(a), 0.0)
    yield "small branch", (h, c_hi, a), _flux_kernel(h, a, 0.0, 2 * math.sinh(a))
    yield "neck", (h, -2 * h, 0.0), _flux_kernel(h, 0.0, 0.0, 0.0)
    yield "interior flux", (h, mid, a), _flux_kernel(h, a, c_hi - mid, mid - c_lo)
    yield "exact-zero slack", (h, c_lo, a), _flux_kernel(h, a, c_hi - c_lo, 0.0)
    yield "beyond the hole", (h, beyond, 1.5), _flux_kernel(h, 1.5, 2 * math.sinh(1.5), 0.0)
    yield "h = 1/2", (0.5, -math.exp(-1.0), 1.0), _flux_kernel(0.5, 1.0, 0.0, 2 * math.sinh(1.0))
    yield "outside the interval", (h, c_lo - 0.05, a), _flux_kernel(h, a, c_hi - (c_lo - 0.05), -0.05)


CASES = list(_kernel_cases())


@pytest.mark.parametrize("name, params, kernel", CASES, ids=[case[0] for case in CASES])
def test_array_integrand_matches_scalar(name, params, kernel):
    """The two copies of the integrand agree to 4 ulp of its unreduced size.

    numpy's vectorized cosh and expm1 differ from the C library's in the last
    bit, and F = 2h*cosh(r) + C cancels where the graph turns horizontal, so
    the bound is 4 ulp of 2s*(2h*cosh(r) + |C|)/sqrt(radicand), |g| times the
    condition number of F; where F keeps its digits that is 4 ulp of g.
    """
    h, C, r0 = params
    g, g_array, _ = kernel
    rng = np.random.default_rng(20)
    s = np.concatenate(([0.0, 1e-12, 1e-6], rng.uniform(0.0, 1.5, 400), 10.0 ** rng.uniform(-9, 0, 100)))
    scalar = np.array([g(x) for x in s.tolist()])
    two_h_cosh = 2 * h * np.cosh(r0 + s * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        size = np.abs(scalar) * (two_h_cosh + abs(C)) / np.abs(two_h_cosh + C)
    bound = np.where(np.isfinite(size), 4 * np.spacing(size), np.inf)  # F rounds to 0
    for array in (g_array(s), g_array(s[:500].reshape(20, 25)).ravel()):
        n = array.size
        close = np.abs(array - scalar[:n]) <= bound[:n]
        assert close.all(), (name, s[:n][~close])
        if name != "interior flux":  # a zero slack: the radicand is 0 at s = 0
            assert array[0] == scalar[0] == 0.0
        if name == "outside the interval":  # the radicand is negative next to r0
            assert not array[:3].any() and not scalar[:3].any()
