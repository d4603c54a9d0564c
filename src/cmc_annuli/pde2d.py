"""Finite-difference solver for the curvature equation on an annulus.

Works in geodesic polar coordinates, where the metric is
d(rho)^2 + sinh(rho)^2 d(theta)^2 and twice the mean curvature of the graph
of u(rho, theta) reads

    (1/sinh rho) [ d_rho( sinh(rho) u_rho / W ) + d_theta( u_theta / (sinh(rho) W) ) ],
    W = sqrt(1 + u_rho^2 + u_theta^2 / sinh(rho)^2).

The residual is the divergence of half-node fluxes, each a slope over W with
centered differences, second-order consistent on the uniform periodic grid.
The solve begins at a physics-based start (Knoll & Keyes, J. Comput. Phys.
193, 2004): the linear-in-rho interpolant of the boundary rows plus, on the
interior rows only, the residual's own radial solution of the rows' theta
means less its own linear interpolant. On a theta-independent field the theta
fluxes vanish and the residual conserves a discrete flux,
F_j = F_0 + 2h sum_{0<i<=j} sinh rho_i at half node j, so that solution is one
root find in the slack of F_0 from an end of its interval on an O(n_rho)
closed form, and on radial data the start solves the residual up to rounding.
It is taken only where the means' drop lies strictly inside
``extremal_drops``' open interval, the data that have a continuous radial
solution, and the root find succeeds; elsewhere the start is the linear
interpolant alone. One evaluation of the start decides: a start whose largest
interior residual meets the tolerance, as on radial data, is the answer, with
no Newton step and no preconditioner. Otherwise the solve takes inexact Newton
steps (Kelley 1995) with Eisenstat-Walker forcing, each one cycle of restarted
GMRES (Saad & Schultz 1986), in the package's ``krylov`` module. GMRES
multiplies by the residual's exact Jacobian: the derivative of each half-node
flux in both gradient components, applied as the same divergence. One
evaluation of an iterate's half-node state gives its residual and that
product, so a product costs less than half a residual and evaluates none. Its
preconditioner, built from the start's evaluation, is that Jacobian without
its cross terms and with its coefficients averaged over theta, T. Chan's
optimal circulant preconditioner (SIAM J. Sci. Stat. Comput. 9, 1988): an FFT
in theta turns it into one tridiagonal system in rho per Fourier mode, and one
symmetric eigendecomposition in rho diagonalizes all of them at once, the fast
diagonalization method (Lynch, Rice & Thomas, Numer. Math. 6, 1964). Each
apply is then two dense products in rho and an FFT pair in theta. On a
theta-independent field the cross terms vanish, and it is the Jacobian's exact
inverse. Non-convergence is reported with diagnostics, never turned into a
verdict: steep inner data violating the a-priori envelopes typically shows up
as a residual plateau with the inner-row gradient growing under grid
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import NonConvergenceError
from .estimates import Annulus
from .hyperbolic import _finite
from .krylov import Product, newton_krylov
from .profiles import _check_count, check_curvature
from .radial import _false_position, extremal_drops

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
    steps over all of them; both are 0 on a converged report whose start
    already met the tolerance. ``residual_history`` holds the largest
    interior residual at the start and after each Newton step, so its last
    entry is ``residual``. ``residual_evaluations`` counts the evaluations
    of the interior residual: the start's and one per line-search trial, so
    ``iterations + 1`` when every Newton step is taken in full. Jacobian
    products evaluate none. ``start`` names the field the solve started
    from, and any preconditioner was built at: ``"radial"``, the residual's
    radial solution of the theta-averaged boundary rows, or ``"linear"``,
    the linear-in-rho interpolant, where the averaged drop is outside the
    open interval of ``extremal_drops``, the means overflow, or the flux
    root find does not converge.
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


def _slope_over_w(along: np.ndarray, across: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """along / W, W = sqrt(1 + along^2 + across^2), and its derivatives in along and in across.

    They are (1 + across^2) / W^3 and -along * across / W^3, written in the
    bounded ratios along / W and across / W, so they are 0, not inf / inf,
    where W overflows.
    """
    iw = 1.0 / w
    along_w, across_w = along * iw, across * iw
    return along_w, iw * (iw * iw + across_w * across_w), -iw * along_w * across_w


def _linearize(grid: PolarGrid, u: np.ndarray, h: float) -> tuple[np.ndarray, Product, tuple[np.ndarray, ...]]:
    """The residual Q(u) - 2h at the interior nodes, its derivative at u as a
    product on flattened interior vectors, and the product's along
    coefficients (a_rho, a_theta), all from one ``_half_nodes`` evaluation.

    Both are divergences of half-node fluxes. The residual's is the slope over
    W: s_half u_rho / (d_rho W) across a rho half node and
    u_theta / (d_theta sinh W) across a theta one, with u_theta over sinh as
    ``_half_nodes`` gives it. The product's is its derivative: a_rho or
    a_theta times the difference along the half node, plus the other
    gradient component's, a half-sum of centered differences, with a factor
    1/4. The product returns None where it is not finite.
    """
    s, s_half = grid.sinh_rho[1:-1, None], grid.sinh_half[:, None]
    d_rho, d_theta = grid.d_rho, grid.d_theta
    inv_s = 1.0 / s

    def divergence(flux_rho: np.ndarray, flux_theta: np.ndarray) -> np.ndarray:
        return (flux_rho[1:, :] - flux_rho[:-1, :]) * inv_s + (flux_theta[:, 1:] - flux_theta[:, :-1])

    with np.errstate(over="ignore", invalid="ignore"):
        (ur_rho, ut_rho, w_rho), (ur_theta, ut_theta, w_theta) = _half_nodes(grid, u)
        slope, along, across = _slope_over_w(ur_rho, ut_rho, w_rho)
        flux_rho = slope * (s_half / d_rho)
        a_rho = along * (s_half / d_rho**2)
        b_rho = across * (0.25 / (d_rho * d_theta))
        slope, along, across = _slope_over_w(ut_theta, ur_theta, w_theta)
        flux_theta = slope * (inv_s / d_theta)
        a_theta = along * (1.0 / (d_theta * s) ** 2)
        b_theta = across * (0.25 / (d_rho * d_theta * s))
        residual = divergence(flux_rho, flux_theta) - 2.0 * h
    v = np.zeros_like(u)  # boundary rows stay 0

    def product(x: np.ndarray) -> np.ndarray | None:
        v[1:-1, :] = x.reshape(v.shape[0] - 2, -1)
        vp = _padded(v)
        with np.errstate(over="ignore", invalid="ignore"):
            vt = vp[:, 2:] - vp[:, :-2]
            vr = vp[2:, :] - vp[:-2, :]
            flux_rho = a_rho * (v[1:, :] - v[:-1, :]) + b_rho * (vt[:-1, :] + vt[1:, :])
            flux_theta = a_theta * (vp[1:-1, 1:] - vp[1:-1, :-1]) + b_theta * (vr[:, :-1] + vr[:, 1:])
            jv = divergence(flux_rho, flux_theta)
        return jv.ravel() if np.isfinite(jv).all() else None

    return residual, product, (a_rho, a_theta)


def cmc_residual(field2d: Field2D, h) -> np.ndarray:
    """Discrete curvature residual Q(u) - 2h at the interior nodes.

    Shape (n_rho - 2, n_theta); identically -2h for a constant field.
    """
    return _linearize(field2d.grid, field2d.values, check_curvature(h))[0]


def max_gradient(field2d: Field2D) -> float:
    """Largest hyperbolic gradient norm over the interior nodes (blow-up diagnostic)."""
    grid = field2d.grid
    with np.errstate(over="ignore"):  # inf on differences past the float limit
        ur, ut = _centered_differences(grid, _padded(field2d.values))
        return float(np.hypot(ur[:, 1:-1], ut[1:-1, :] / grid.sinh_rho[1:-1, None]).max())


def _boundary_array(g: BoundaryData, theta: np.ndarray, name: str) -> np.ndarray:
    # a callable's None becomes nan here and fails the finite check below
    arr = np.array([g(t) for t in theta] if callable(g) else g, dtype=float)
    if arr.ndim == 0:
        arr = np.full(theta.shape, float(arr))
    elif arr.shape != theta.shape:
        raise ValueError(f"{name} must have one value per theta node, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite at every theta node")
    return arr


def _preconditioner(grid: PolarGrid, coefficients: tuple[np.ndarray, ...]) -> Callable[[np.ndarray], np.ndarray] | None:
    """Inverse of the Jacobian without cross terms, its along ``coefficients``
    (a_rho, a_theta) from ``_linearize`` averaged over theta; exact on a
    theta-independent field, where the cross terms vanish.

    Averaged, east and west weigh alike, so Fourier mode k in theta is the
    tridiagonal T0 - lambda_k diag(east) in rho, with T0 the radial part and
    lambda_k = 4 sin^2(k d_theta / 2). With S = diag(sinh rho) the product
    S T0 is symmetric and E = S diag(east) diagonal and positive, so one
    eigendecomposition Q diag(mu) Q^T of E^-1/2 S T0 E^-1/2 serves every mode:
    the fast diagonalization method (Lynch, Rice & Thomas, Numer. Math. 6,
    1964). An apply scales by sinh(rho) E^-1/2, multiplies by Q^T, divides
    mode k by mu - lambda_k between rfft and irfft, and multiplies by Q, then
    by E^-1/2. Returns the solve on flattened interior vectors, or None when
    the theta weight of a row is 0 or the operator is singular or not finite,
    as when W overflows.
    """
    n = grid.n_rho - 2
    shape = (n, grid.n_theta)
    s = grid.sinh_rho[1:-1]
    a_rho, a_theta = coefficients
    # S T0 has the theta-averaged a_rho as its entries; the theta half nodes
    # -1/2 and n_theta - 1/2 are one node, so a_theta's mean counts it once
    flux, east = a_rho.mean(axis=1), a_theta[:, 1:].mean(axis=1)
    if not np.all(east > 0.0):
        return None
    e = s * east
    root = np.sqrt(e)  # E^1/2
    m = np.zeros((n, n))
    with np.errstate(all="ignore"):
        # eigh reads the lower triangle
        m.flat[:: n + 1] = -(flux[1:] + flux[:-1]) / e
        m.flat[n :: n + 1] = flux[1:-1] / (root[1:] * root[:-1])
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


def _scaled_slopes(alpha: np.ndarray, delta: np.ndarray, sign: float, s: float) -> np.ndarray:
    """s p_j at F_0 = end - sign s^2, the interval's end where the half nodes with
    delta_j = 0 reach sigma_j = ``sign``; delta_j is that of the others.

    With g_j = 1 - sign sigma_j = alpha_j (delta_j + s^2), free of cancellation,
    s p_j = sign (1 - g_j) s / sqrt(g_j (2 - g_j)); at s = 0 its limit.
    """
    if s == 0.0:
        return np.where(delta == 0.0, sign / np.sqrt(2.0 * alpha), 0.0)
    gap = alpha * (delta + s * s)
    return (sign * s) * (1.0 - gap) / np.sqrt(gap * (2.0 - gap))


def _radial_rows(grid: PolarGrid, h: float, u_a: float, u_b: float) -> np.ndarray | None:
    """The residual's theta-independent solution with rows u_a at a and u_b at b,
    at the interior rows; None where the root find fails or ends on an end.

    On such a field the theta fluxes vanish, so row i reads
    (F_i - F_{i-1}) / sinh rho_i = 2h with the half-node flux
    F_j = sinh rho_{j+1/2} p_j / (d_rho W_j): F_j = F_0 + 2h sum_{0<i<=j} sinh rho_i.
    So sigma_j = p_j / W_j = d_rho F_j / sinh rho_{j+1/2} = alpha_j F_0 + beta_j,
    and the rise d_rho sum p_j is strictly increasing in F_0 and runs over all
    reals on the open interval where every |sigma_j| < 1. Its middle picks the
    half that holds the root, and ``radial._false_position`` runs in
    s = sqrt(slack of F_0 from that half's end) on s (rise - (u_b - u_a)),
    finite at s = 0, to a zero residual or until its secant point rounds onto
    an end.
    """
    d = grid.d_rho
    alpha = d / grid.sinh_half
    beta = alpha * (2.0 * h * np.concatenate(([0.0], np.cumsum(grid.sinh_rho[1:-1]))))
    ends = {sign: (sign - beta) / alpha for sign in (-1.0, 1.0)}  # the F_0 where sigma_j = sign
    lo, hi = float(ends[-1.0].max()), float(ends[1.0].min())
    rise, slopes = u_b - u_a, {}

    def scaled_residual(s: float) -> float:
        slopes[s] = _scaled_slopes(alpha, delta, sign, s)
        return d * float(np.sum(slopes[s])) - s * rise

    sign, delta, s_mid = 1.0, ends[1.0] - hi, math.sqrt(0.5 * (hi - lo))  # the middle, from hi
    f_mid = scaled_residual(s_mid)
    if f_mid > 0.0:  # the middle's rise is above the target: the root is in the lower half
        sign, delta = -1.0, lo - ends[-1.0]
    try:
        s, _ = _false_position(scaled_residual, 0.0, scaled_residual(0.0), s_mid, f_mid, 0.0)
    except NonConvergenceError:
        return None
    return u_a + d / s * np.cumsum(slopes[s][:-1]) if s else None


def _radial_start(grid: PolarGrid, h: float, inner: np.ndarray, outer: np.ndarray) -> tuple[np.ndarray, str]:
    """The linear start plus, on the interior rows, the residual's radial solution
    of the theta-averaged rows (``_radial_rows``) minus its own linear
    interpolant, and the name ``"radial"``.

    The boundary rows stay exactly the data, and on theta-independent data the
    start is the discrete solution up to rounding. The discrete problem has a
    solution for every finite drop, the continuous one only inside the open
    interval of ``extremal_drops``; where the averaged drop is outside that
    interval (certified infeasible), the means overflow, or the root find
    does not converge, this is the linear start.
    """
    u, linear = _linear_start(grid, h, inner, outer)
    with np.errstate(over="ignore"):
        u_a, u_b = float(inner.mean()), float(outer.mean())
    drops = extremal_drops(h, grid.annulus)
    if not drops.d_min < u_a - u_b < drops.d_max:  # also where a mean overflows: the drop is +-inf or nan
        return u, linear
    rows = _radial_rows(grid, h, u_a, u_b)
    if rows is None:
        return u, linear
    weight = (grid.rho[1:-1] - grid.annulus.a) / (grid.annulus.b - grid.annulus.a)
    u[1:-1, :] += (rows - ((1.0 - weight) * u_a + weight * u_b))[:, None]
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
    theta, and ``grid`` is the node count (n_rho, n_theta). The solve starts
    from the radial start: the linear-in-rho interpolant of the boundary rows
    plus, on the interior rows, the residual's radial solution of the rows'
    theta means (one root find in the conserved discrete flux) less its linear
    interpolant. It is the interpolant alone when the means' drop is outside
    the open interval of ``extremal_drops``, the means overflow, or the root
    find does not converge. One evaluation of the start gives its residual and
    its Jacobian product. Where the largest interior residual is already at
    most ``tol``, as on radial data, the start is returned as it is, with no
    Newton step. Otherwise Newton-Krylov (``krylov.newton_krylov``, one GMRES
    cycle on exact Jacobian products per Newton step) runs from it,
    preconditioned by the inverse of the start's Jacobian without its cross
    terms and with its coefficients averaged over theta (an FFT in theta, fast
    diagonalization in rho), until the largest interior residual is at most
    ``tol``. The report counts the Newton and GMRES steps and the residual
    evaluations, and keeps the residual at the start and after each Newton
    step. Raises NonConvergenceError (report and last iterate attached) when
    that fails within the step cap, an iterate is not finite, or the averaged
    operator is singular (W overflows on data steeper than ~1e154); for inner
    data outside the a-priori envelopes that is the expected outcome.
    """
    h = check_curvature(h)
    tol = _finite(tol, "tolerance", positive=True)
    try:
        n_rho, n_theta = grid
    except (TypeError, ValueError):
        raise ValueError(f"grid must be a pair (n_rho, n_theta), got {grid!r}") from None
    grid = PolarGrid(annulus, n_rho, n_theta)

    inner = _boundary_array(g_inner, grid.theta, "g_inner")
    outer = _boundary_array(g_outer, grid.theta, "g_outer")

    u, start = _radial_start(grid, h, inner, outer)
    shape = (grid.n_rho - 2, grid.n_theta)

    evaluations = 1  # the start's

    def linearize(x: np.ndarray) -> tuple[np.ndarray, Product]:
        nonlocal evaluations
        evaluations += 1
        residual, product, _ = _linearize(grid, np.concatenate((u[:1], x.reshape(shape), u[-1:])), h)
        return residual.ravel(), product

    # one evaluation of the start decides whether to step at all, builds the
    # preconditioner from its product's coefficients and seeds Newton
    start_state = list(_linearize(grid, u, h))
    history, krylov_steps = [float(np.abs(start_state[0]).max())], 0
    if not history[0] <= tol:  # nor is a nan residual converged
        precondition = _preconditioner(grid, start_state.pop())
        # None where W overflows, on data steeper than ~1e154: no Newton step
        if precondition is not None:
            # Newton takes the only references to the start's residual and
            # product, so the product's coefficients go at its first step. On
            # slopes near 1e154, where W is about to overflow, the
            # preconditioned Krylov vectors overflow in GMRES's norms; the
            # residual check below reports such a solve
            with np.errstate(over="ignore", invalid="ignore"):
                x, history, krylov_steps = newton_krylov(
                    linearize, u[1:-1, :].ravel(), start_state.pop(0).ravel(), start_state.pop(), precondition,
                    tol, _MAX_NEWTON_STEPS,
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
