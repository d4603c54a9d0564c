"""The closed-form drops against quadrature of their slope.

The rise of a flux graph from r0 is the integral of its slope. Two
references integrate it: scipy's adaptive QUADPACK in s = sqrt(r - r0), where
the integrand 2s u'(r0 + s^2) stays bounded next to a vertical circle; and
QUADPACK's 21-point Gauss-Kronrod rule (QK21) in r on fixed panels, where
|Kronrod - Gauss| certifies the value, for graphs whose slope is smooth. The
rule is kept here, with its nodes and weights checked, so that the second
comparison needs neither scipy nor mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cmc_annuli.profiles import _Graph, _flux_interval

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
GAUSS_WEIGHTS = _WG_POS + _WG_POS[::-1]
GAUSS_NODES = NODES[1::2]


def kronrod(f, lo, hi, panels):
    """Kronrod value of f over [lo, hi] on equal panels, and the summed |Kronrod - Gauss|."""
    edges = np.linspace(lo, hi, panels + 1)
    centres, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    values = f(centres[:, None] + halves[:, None] * np.array(NODES))
    k = values @ np.array(KRONROD_WEIGHTS) * halves
    g = values[:, 1::2] @ np.array(GAUSS_WEIGHTS) * halves
    return math.fsum(k), math.fsum(np.abs(k - g))


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


def _acceptance_graphs():
    """Graphs over the acceptance annuli: both envelopes and an interior flux."""
    inner = (0.1, 0.2, 0.3, 0.4, 0.6, 0.9, 1.2, 1.5, 2.0, 2.5)
    annuli = [(a, a + w) for a in inner for w in (0.5, 1.3)] + [(0.5, 2.0), (0.5, 1.5)]
    for h in (0.2, 0.4, 0.5):
        for a, b in annuli:
            c_lo, c_hi = _flux_interval(h, a)
            for C in (c_lo, c_hi, 0.7 * c_lo + 0.3 * c_hi):
                yield (h, a, b, C), (c_hi - C, C - c_lo)


GRAPHS = list(_acceptance_graphs())


class TestAgainstQuadpack:
    """Point and table drops agree with scipy's QUADPACK to 1e-12."""

    def test_point_queries(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for (h, a, b, C), slacks in GRAPHS:
            graph = _Graph(h, a, b, slacks, 0.0)
            g = lambda s: 2.0 * s * graph.slope(math, a + s * s)  # noqa: E731
            expected = quad(g, 0.0, math.sqrt(b - a), epsabs=1e-10, epsrel=5e-14, limit=200)[0]
            assert graph.rise_at == pytest.approx(expected, abs=1e-12), (h, a, b, C)

    def test_tables(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for (h, a, b, C), slacks in GRAPHS[::3]:
            graph = _Graph(h, a, b, slacks, 0.0)
            g = lambda s: 2.0 * s * graph.slope(math, a + s * s)  # noqa: E731
            edges = np.sqrt(np.linspace(0.0, b - a, 17))
            rises = [0.0]
            for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
                rises.append(rises[-1] + quad(g, lo, hi, epsabs=1e-10, epsrel=5e-14, limit=200)[0])
            # the graph with value 0 at b is minus the rise still to come
            got = graph.value(a + edges * edges)
            np.testing.assert_allclose(got, np.array(rises) - rises[-1], rtol=0.0, atol=1e-12,
                                       err_msg=str((h, a, b, C)))


class TestDrivers:
    def test_panels_match_point_queries(self):
        # an interior flux: the slope is smooth on [a, b], so the reference runs in rho
        (h, a, b, _), slacks = GRAPHS[5]
        radii = a + np.array([0.0, 1e-9, 0.1, 0.1, 0.5, b - a])  # a repeated radius
        graph = _Graph(h, a, b, slacks, 1.0)
        table = graph.value(radii)
        points = [graph.value(rho) for rho in radii.tolist()]
        np.testing.assert_allclose(table, points, rtol=0.0, atol=4e-16)
        assert table[3] == table[2] and table[-1] == points[-1] == 1.0
        rises = [0.0]
        for lo, hi in zip(radii[:-1].tolist(), radii[1:].tolist()):
            value, certificate = kronrod(lambda r: graph.slope(np, r), lo, hi, 8)
            assert certificate <= 1e-15
            rises.append(rises[-1] + value)
        np.testing.assert_allclose(table, 1.0 - (rises[-1] - np.array(rises)), rtol=0.0, atol=1e-14)

    def test_relative_floor_for_large_integrals(self):
        # u(30) is about 3e6: an absolute 1e-12 is below what doubles carry
        (h, a, b, _), slacks = GRAPHS[-4]  # h = 1/2 on (0.5, 2), an interior flux
        graph = _Graph(h, a, 30.0, slacks, 0.0)
        assert h == 0.5 and min(slacks) > 0.0
        expected, certificate = kronrod(lambda r: graph.slope(np, r), a, 30.0, 64)
        assert expected > 1e6 and certificate <= 1e-15 * expected
        assert graph.rise_at == pytest.approx(expected, rel=1e-14)
