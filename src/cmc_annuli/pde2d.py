"""Finite-difference solver for the curvature equation on an annulus.

Works in geodesic polar coordinates, where the metric is
d(rho)^2 + sinh(rho)^2 d(theta)^2 and twice the mean curvature of the graph
of u(rho, theta) reads

    (1/sinh rho) [ d_rho( sinh(rho) u_rho / W ) + d_theta( u_theta / (sinh(rho) W) ) ],
    W = sqrt(1 + u_rho^2 + u_theta^2 / sinh(rho)^2).

The discretization puts fluxes at half nodes with centered differences,
second-order consistent on the uniform periodic grid. With W frozen it is one
five-point stencil, which the residual applies. The solve is one
Newton-Krylov iteration from a physics-based start (Knoll & Keyes, J.
Comput. Phys. 193, 2004): the linear-in-rho interpolant of the boundary rows
plus, on the interior rows only, the radial solution of the rows' theta
means (``solve_radial``) less its own linear interpolant, or the linear
interpolant alone where those means have no radial solution. Inexact Newton
steps (Kelley 1995) with Eisenstat-Walker forcing, each one cycle of restarted
GMRES (Saad & Schultz 1986), in the package's ``krylov`` module. GMRES
multiplies by the residual's exact Jacobian, linearized once per Newton
step: the derivative of each half-node flux, slope over W, in both gradient
components, so a product costs less than half a residual. Its
preconditioner is that stencil with W frozen at the start and its
weights averaged over theta, T. Chan's optimal circulant preconditioner
(SIAM J. Sci. Stat. Comput. 9, 1988): an FFT in theta turns it into one
tridiagonal system in rho per Fourier mode, and one symmetric
eigendecomposition in rho diagonalizes all of them at once, the fast
diagonalization method (Lynch, Rice & Thomas, Numer. Math. 6, 1964). Each
apply is then two dense products in rho and an FFT pair in theta. For W
independent of theta it is the frozen-W stencil itself.
Non-convergence is reported with diagnostics, never turned into a verdict:
steep inner data violating the a-priori envelopes typically shows up as a
residual plateau with the inner-row gradient growing under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import InfeasibleBoundaryError, NonConvergenceError
from .estimates import Annulus
from .krylov import newton_krylov
from .profiles import _check_count, _check_tol, check_curvature
from .radial import solve_radial

BoundaryData = Union[float, np.ndarray, Callable[[float], float]]

#: Newton steps allowed before the solve is reported as non-converged
_MAX_NEWTON_STEPS = 50


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Uniform tensor grid: n_rho nodes on [a, b], n_theta periodic in theta."""

    annulus: Annulus
    n_rho: int
    n_theta: int
    rho: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    d_rho: float = field(init=False, repr=False)
    d_theta: float = field(init=False, repr=False)
    sinh_rho: np.ndarray = field(init=False, repr=False)
    sinh_half: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_rho", _check_count(self.n_rho, 3, "rho nodes", "n_rho"))
        object.__setattr__(self, "n_theta", _check_count(self.n_theta, 4, "theta nodes", "n_theta"))
        rho = np.linspace(self.annulus.a, self.annulus.b, self.n_rho)
        d_theta = 2.0 * math.pi / self.n_theta
        theta = np.arange(self.n_theta) * d_theta
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "d_rho", float(rho[1] - rho[0]))
        object.__setattr__(self, "d_theta", d_theta)
        object.__setattr__(self, "sinh_rho", np.sinh(rho))
        object.__setattr__(self, "sinh_half", np.sinh(rho[:-1] + 0.5 * self.d_rho))


@dataclass(eq=False)
class Field2D:
    """Heights on a PolarGrid, periodic in the theta index."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_rho, self.grid.n_theta)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} does not match grid {expected}")


@dataclass(frozen=True)
class SolverReport:
    """What a 2D solve did.

    ``iterations`` counts Newton steps and ``krylov_iterations`` the GMRES
    steps over all of them; ``residual_history`` holds the largest interior
    residual at the start and after each Newton step, so its last entry is
    ``residual``. ``residual_evaluations`` counts the evaluations of the
    interior residual: the start's and one per line-search trial, so
    ``iterations + 1`` when every Newton step is taken in full. Jacobian
    products evaluate none. ``start`` names the field Newton started from
    and the preconditioner was built at: ``"radial"``, the radial solution
    of the theta-averaged boundary rows, or ``"linear"``, the linear-in-rho
    interpolant, where that radial solve raises.
    """

    converged: bool
    iterations: int
    residual: float
    max_gradient: float
    krylov_iterations: int
    residual_history: tuple[float, ...]
    residual_evaluations: int
    start: str


def _padded(u: np.ndarray) -> np.ndarray:
    """u with a periodic ghost column on each side, at theta indices -1 and n_theta."""
    return np.concatenate([u[:, -1:], u, u[:, :1]], axis=1)


def _centered_differences(grid: PolarGrid, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered u_rho (interior rows, ghost columns kept) and u_theta (every row) of a padded u."""
    ur = (up[2:, :] - up[:-2, :]) / (2.0 * grid.d_rho)
    ut = (up[:, 2:] - up[:, :-2]) / (2.0 * grid.d_theta)
    return ur, ut


def _half_nodes(grid: PolarGrid, u: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Gradient and W at the half nodes: (u_rho, u_theta / sinh, W) at the rho half
    nodes, and (u_rho, u_theta / sinh, W) at the theta half nodes -1/2 ... n_theta - 1/2
    of the interior rows.

    The across components are half-sums of centered differences.
    """
    s, s_half = grid.sinh_rho[1:-1, None], grid.sinh_half[:, None]
    up = _padded(u)
    # differences of data near the float limit overflow to inf, and W overflows
    # to inf, and its weights to 0, on slopes past ~1e154
    with np.errstate(over="ignore"):
        ur, ut = _centered_differences(grid, up)
        ur_rho = (u[1:, :] - u[:-1, :]) / grid.d_rho
        ut_rho = 0.5 * (ut[:-1, :] + ut[1:, :]) / s_half
        ur_theta = 0.5 * (ur[:, :-1] + ur[:, 1:])
        ut_theta = (up[1:-1, 1:] - up[1:-1, :-1]) / grid.d_theta / s
        w_rho = np.sqrt(1.0 + ur_rho**2 + ut_rho**2)
        w_theta = np.sqrt(1.0 + ur_theta**2 + ut_theta**2)
    return (ur_rho, ut_rho, w_rho), (ur_theta, ut_theta, w_theta)


def _stencil(grid: PolarGrid, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Five-point weights (out, in, east, west) at the interior nodes, W frozen at u.

    Q(u) at a node sums weight * (neighbour - node) over its four neighbours.
    """
    s, s_half = grid.sinh_rho[1:-1, None], grid.sinh_half[:, None]
    (_, _, w_rho), (_, _, w_theta) = _half_nodes(grid, u)
    g = s_half / (grid.d_rho**2 * w_rho)
    c_theta = 1.0 / (grid.d_theta**2 * s**2 * w_theta)
    return g[1:, :] / s, g[:-1, :] / s, c_theta[:, 1:], c_theta[:, :-1]


def _flux_derivatives(along: np.ndarray, across: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of along / W, W = sqrt(1 + along^2 + across^2), in along and in across.

    They are (1 + across^2) / W^3 and -along * across / W^3, written in the
    bounded ratios along / W and across / W, so they are 0, not inf / inf,
    where W overflows.
    """
    iw = 1.0 / w
    along_w, across_w = along * iw, across * iw
    return iw * (iw * iw + across_w * across_w), -iw * along_w * across_w


def _jacobian(grid: PolarGrid, u: np.ndarray) -> Callable[[np.ndarray], np.ndarray | None]:
    """The derivative of ``cmc_residual`` at u, as a product on flattened interior vectors.

    Each half-node flux of the residual is a slope over W: s_half u_rho / (d_rho W)
    across a rho half node, u_theta / (d_theta sinh^2 W) across a theta half
    node, with the other gradient component in W a half-sum of centered
    differences, so it enters the product with a factor 1/4. The product
    returns None where it is not finite.
    """
    s, s_half = grid.sinh_rho[1:-1, None], grid.sinh_half[:, None]
    d_rho, d_theta = grid.d_rho, grid.d_theta
    with np.errstate(over="ignore", invalid="ignore"):
        (ur_rho, ut_rho, w_rho), (ur_theta, ut_theta, w_theta) = _half_nodes(grid, u)
        along, across = _flux_derivatives(ur_rho, ut_rho, w_rho)
        a_rho = along * (s_half / d_rho**2)
        b_rho = across * (0.25 / (d_rho * d_theta))
        along, across = _flux_derivatives(ut_theta, ur_theta, w_theta)
        a_theta = along * (1.0 / (d_theta * s) ** 2)
        b_theta = across * (0.25 / (d_rho * d_theta * s))
    inv_s = 1.0 / s
    v = np.zeros_like(u)  # boundary rows stay 0

    def product(x: np.ndarray) -> np.ndarray | None:
        v[1:-1, :] = x.reshape(v.shape[0] - 2, -1)
        vp = _padded(v)
        with np.errstate(over="ignore", invalid="ignore"):
            vt = vp[:, 2:] - vp[:, :-2]
            vr = vp[2:, :] - vp[:-2, :]
            flux_rho = a_rho * (v[1:, :] - v[:-1, :]) + b_rho * (vt[:-1, :] + vt[1:, :])
            flux_theta = a_theta * (vp[1:-1, 1:] - vp[1:-1, :-1]) + b_theta * (vr[:, :-1] + vr[:, 1:])
            jv = (flux_rho[1:, :] - flux_rho[:-1, :]) * inv_s + (flux_theta[:, 1:] - flux_theta[:, :-1])
        return jv.ravel() if np.isfinite(jv).all() else None

    return product


def cmc_residual(field2d: Field2D, h) -> np.ndarray:
    """Discrete curvature residual Q(u) - 2h at the interior nodes.

    Shape (n_rho - 2, n_theta); identically -2h for a constant field.
    """
    h = check_curvature(h)
    grid, u = field2d.grid, field2d.values
    c_out, c_in, c_east, c_west = _stencil(grid, u)
    mid, rows = u[1:-1, :], _padded(u[1:-1, :])
    q = c_out * (u[2:, :] - mid) + c_in * (u[:-2, :] - mid)
    q = q + c_east * (rows[:, 2:] - mid) + c_west * (rows[:, :-2] - mid)
    return q - 2.0 * h


def max_gradient(field2d: Field2D) -> float:
    """Largest hyperbolic gradient norm over the interior nodes (blow-up diagnostic)."""
    grid = field2d.grid
    with np.errstate(over="ignore"):  # inf on differences past the float limit
        ur, ut = _centered_differences(grid, _padded(field2d.values))
        return float(np.hypot(ur[:, 1:-1], ut[1:-1, :] / grid.sinh_rho[1:-1, None]).max())


def _boundary_array(g: BoundaryData, theta: np.ndarray, name: str) -> np.ndarray:
    if callable(g):
        arr = np.array([float(g(t)) for t in theta])
    else:
        arr = np.array(g, dtype=float)
        if arr.ndim == 0:
            arr = np.full(theta.shape, float(arr))
        elif arr.shape != theta.shape:
            raise ValueError(f"{name} must have one value per theta node, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite at every theta node")
    return arr


def _preconditioner(grid: PolarGrid, u: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """Inverse of the interior stencil with W frozen at u, its weights averaged over theta.

    Averaged, east and west weigh alike, so Fourier mode k in theta is the
    tridiagonal T0 - lambda_k diag(east) in rho, with T0 the radial part and
    lambda_k = 4 sin^2(k d_theta / 2). With S = diag(sinh rho) the product
    S T0 is symmetric and E = S diag(east) diagonal and positive, so one
    eigendecomposition Q diag(mu) Q^T of E^-1/2 S T0 E^-1/2 serves every
    mode: the fast diagonalization method (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964). An apply scales by sinh(rho) E^-1/2, multiplies by Q^T,
    divides mode k by mu - lambda_k between rfft and irfft, and multiplies by
    Q, then by E^-1/2. Returns the solve on flattened interior vectors, or None
    when the theta weight of a row is 0 or the operator is singular or not
    finite, as when W overflows.
    """
    n = grid.n_rho - 2
    shape = (n, grid.n_theta)
    c_out, c_in, c_east, _ = (w.mean(axis=1) for w in _stencil(grid, u))
    if not np.all(c_east > 0.0):
        return None
    s = grid.sinh_rho[1:-1]
    root = np.sqrt(s * c_east)  # E^1/2
    m = np.zeros((n, n))
    with np.errstate(all="ignore"):
        # eigh reads the lower triangle
        m.flat[:: n + 1] = -(c_out + c_in) / c_east
        m.flat[n :: n + 1] = s[1:] * c_in[1:] / (root[1:] * root[:-1])
    if not np.all(np.isfinite(m)):
        return None
    mu, q = np.linalg.eigh(m)
    lam = 4.0 * np.sin(0.5 * grid.d_theta * np.arange(grid.n_theta // 2 + 1)) ** 2
    with np.errstate(divide="ignore"):
        inverse = 1.0 / (mu[:, None] - lam)
    if not np.all(np.isfinite(inverse)):
        return None
    scale_in, scale_out = (s / root)[:, None], (1.0 / root)[:, None]

    def solve(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(q.T @ (r.reshape(shape) * scale_in), axis=1) * inverse
        return (q @ np.fft.irfft(y, n=grid.n_theta, axis=1) * scale_out).ravel()

    return solve


def _linear_start(grid: PolarGrid, h: float, inner: np.ndarray, outer: np.ndarray) -> tuple[np.ndarray, str]:
    """The linear-in-rho interpolant of the boundary rows, and the name ``"linear"``."""
    weight = ((grid.rho - grid.annulus.a) / (grid.annulus.b - grid.annulus.a))[:, None]
    return (1.0 - weight) * inner[None, :] + weight * outer[None, :], "linear"


def _radial_start(grid: PolarGrid, h: float, inner: np.ndarray, outer: np.ndarray) -> tuple[np.ndarray, str]:
    """The linear start plus, on the interior rows, the radial solution of the
    theta-averaged rows minus its own linear interpolant, and the name ``"radial"``.

    The boundary rows stay exactly the data. Where the averaged data has no
    radial solution (``solve_radial`` raises), or its mean overflows, this is
    the linear start.
    """
    u, linear = _linear_start(grid, h, inner, outer)
    with np.errstate(over="ignore"):
        u_a, u_b = float(inner.mean()), float(outer.mean())
    if not (math.isfinite(u_a) and math.isfinite(u_b)):
        return u, linear
    try:
        radial = solve_radial(h, grid.annulus, u_a, u_b)
    except (InfeasibleBoundaryError, NonConvergenceError):
        return u, linear
    rho = grid.rho[1:-1]
    weight = (rho - grid.annulus.a) / (grid.annulus.b - grid.annulus.a)
    u[1:-1, :] += (radial.evaluator.value(rho) - ((1.0 - weight) * u_a + weight * u_b))[:, None]
    return u, "radial"


def solve_dirichlet_2d(
    h,
    annulus: Annulus,
    g_inner: BoundaryData,
    g_outer: BoundaryData,
    grid: tuple[int, int] = (64, 64),
    tol: float = 1e-8,
) -> tuple[Field2D, SolverReport]:
    """Solve Q(u) = 2h on the annulus with Dirichlet rows at rho = a and b.

    ``g_inner``/``g_outer`` may be constants, per-theta arrays, or callables of
    theta, and ``grid`` is the node count (n_rho, n_theta). Newton-Krylov
    (``krylov.newton_krylov``, one GMRES cycle on exact Jacobian products per
    Newton step) runs from the radial start: the linear-in-rho interpolant of
    the boundary rows plus, on the interior rows, the radial solution of the
    rows' theta means less its linear interpolant, or the interpolant alone
    when ``solve_radial`` finds those means infeasible or does not converge.
    It is preconditioned by the inverse of the W-lagged operator at that start
    with its weights averaged over theta (an FFT in theta, fast
    diagonalization in rho), until the largest
    interior residual is at most ``tol``; the report counts its Newton and
    GMRES steps and its residual evaluations, and keeps the residual after
    each Newton step.
    Raises NonConvergenceError (report and last iterate attached) when that
    fails within the step cap, an iterate is not finite, or the averaged
    operator is singular (W overflows on data steeper than ~1e154); for inner
    data outside the a-priori envelopes that is the expected outcome.
    """
    h = check_curvature(h)
    tol = _check_tol(tol)
    grid = PolarGrid(annulus, *grid)

    inner = _boundary_array(g_inner, grid.theta, "g_inner")
    outer = _boundary_array(g_outer, grid.theta, "g_outer")

    u, start = _radial_start(grid, h, inner, outer)
    shape = (grid.n_rho - 2, grid.n_theta)

    evaluations = 0

    def with_interior(x: np.ndarray) -> np.ndarray:
        padded = u.copy()
        padded[1:-1, :] = x.reshape(shape)
        return padded

    def interior_residual(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return cmc_residual(Field2D(grid, with_interior(x)), h).ravel()

    def interior_jacobian(x: np.ndarray) -> Callable[[np.ndarray], np.ndarray | None]:
        return _jacobian(grid, with_interior(x))

    x = u[1:-1, :].ravel()
    precondition = _preconditioner(grid, u)
    if precondition is None:
        # W overflows on data steeper than ~1e154: no Newton step
        history, krylov_steps = [float(np.abs(interior_residual(x)).max())], 0
    else:
        # on slopes near 1e154, where W is about to overflow, the preconditioned
        # Krylov vectors overflow in GMRES's norms; the residual check below
        # reports such a solve
        with np.errstate(over="ignore", invalid="ignore"):
            x, history, krylov_steps = newton_krylov(
                interior_residual, interior_jacobian, x, precondition, tol, _MAX_NEWTON_STEPS
            )

    u[1:-1, :] = x.reshape(shape)
    field2d = Field2D(grid, u)
    res, steps = history[-1], len(history) - 1
    report = SolverReport(
        res <= tol, steps, res, max_gradient(field2d), krylov_steps, tuple(history), evaluations, start
    )
    if not report.converged:
        raise NonConvergenceError(
            f"residual {res:g} above tolerance {tol:g} after {steps} Newton steps",
            report,
            field2d,
        )
    return field2d, report
