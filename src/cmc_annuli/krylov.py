"""Newton-Krylov with one GMRES cycle per step, on numpy alone.

A port of scipy 1.17.1's ``newton_krylov(F, x0, method="gmres", inner_M=M)``
as the 2D solver would call it, with the caller's exact Jacobian product:

- the inexact Newton loop of ``nonlin_solve`` (Kelley, *Iterative Methods
  for Linear and Nonlinear Equations*, SIAM 1995): stop when the max-norm
  of F is at most ``f_tol`` after at least one step, with the forcing term
  of Eisenstat & Walker (SIAM J. Sci. Comput. 17, 1996; choice 2 with
  gamma = 0.9 and its safeguard) as GMRES's relative tolerance;
- Armijo backtracking on |F|^2 (``scalar_search_armijo``: c1 = 1e-4,
  quadratic then cubic interpolation down to a step of 1e-2, the full step
  when that fails);
- one cycle of left-preconditioned GMRES (Saad & Schultz, SIAM J. Sci.
  Stat. Comput. 7, 1986) of at most 20 steps from zero, with modified
  Gram-Schmidt and LAPACK's Givens rotation ``dlartg``;
- three departures from scipy. The Jacobian products are the caller's
  linearization of F, in place of ``KrylovJacobian``'s matrix-free one: one
  callback returns F(x) and the product at x together, so a product costs
  no evaluation of F and the accepted line-search trial's product serves
  the next Newton step. The caller evaluates the start and passes it in,
  so that one evaluation also tells it whether to call at all. The
  relative tolerance handed to GMRES is at least 0.5 f_tol / |F|_2,
  Kelley's terminal safeguard. The forcing term shrinks quadratically, so
  without it the last Newton step asks for relative residuals near
  rounding, far below what ``f_tol`` needs, and runs the whole cycle. The
  carried forcing term is scipy's. And a line search that accepts a zero
  step counts as failed, as when no step is found: the full step is taken,
  so a non-finite one stops the solve, where scipy would repeat the same
  iterate until ``maxiter``.

As in scipy, the solve stops early when an iterate's residual or a
Jacobian product is not finite, or when GMRES returns a zero step. It
skips two results that scipy computes and never reads with one cycle: a
second preconditioner apply to the right-hand side and the residual of
the GMRES solution. Given the same products, iterates match scipy's to
rounding, not bit for bit: scipy takes its norms with BLAS ``dnrm2``,
which differs from numpy's in the last bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Operator = Callable[[np.ndarray], np.ndarray]
#: a Jacobian product, None where it is not finite
Product = Callable[[np.ndarray], np.ndarray | None]
#: x -> (F(x), the product v -> F'(x) v)
Linearization = Callable[[np.ndarray], tuple[np.ndarray, Product]]

_EPS = float(np.finfo(float).eps)
#: Eisenstat-Walker forcing: first term, gamma, cap, safeguard threshold
_ETA_FIRST, _GAMMA, _ETA_MAX, _ETA_THRESHOLD = 1e-3, 0.9, 0.9999, 0.1
#: Kelley's terminal safeguard: GMRES is asked for no less than this fraction
#: of f_tol / |F| (Iterative Methods for Linear and Nonlinear Equations, 1995)
_ETA_FLOOR = 0.5
#: Armijo sufficient-decrease constant and smallest backtracked step
_C1, _STEP_MIN = 1e-4, 1e-2
#: GMRES steps per Newton step
_RESTART = 20
# dlartg's unscaled range, sqrt(safmin) to sqrt(safmax / 2)
_SAFMIN = 2.0**-1022
_SAFMAX = 2.0**1022
_RT_MIN, _RT_MAX = math.sqrt(_SAFMIN), math.sqrt(_SAFMAX / 2.0)


def givens(f: float, g: float) -> tuple[float, float, float]:
    """(c, s, r) with c f + s g = r, -s f + c g = 0, c >= 0, as LAPACK's dlartg."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    f1, g1 = abs(f), abs(g)
    if _RT_MIN < f1 < _RT_MAX and _RT_MIN < g1 < _RT_MAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def gmres(
    matvec: Product,
    b: np.ndarray,
    psolve: Operator,
    rtol: float,
) -> tuple[np.ndarray, int] | None:
    """One left-preconditioned GMRES cycle for A x = b from x = 0: (x, steps).

    Stops after ``_RESTART`` steps, on breakdown, or once the preconditioned
    residual estimate is at most rtol |psolve(b)|, which is scipy's
    ``gmres(A, b, rtol=rtol, atol=0, restart=20, maxiter=1, M=psolve)``.
    Returns None when ``matvec`` does (a non-finite product).
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = float(rtol) * float(bnrm2)
    restart = min(_RESTART, b.size)
    z = psolve(b)
    beta = np.linalg.norm(z)
    ptol = beta * min(1.0, atol / bnrm2)

    v = np.empty((restart + 1, b.size))
    h = np.zeros((restart, restart + 1))  # column col of the Hessenberg matrix is h[col]
    rotations = []
    rhs = np.zeros(restart + 1)
    v[0] = z * (1 / beta)
    rhs[0] = beta
    for col in range(restart):
        av = matvec(v[col])
        if av is None:
            return None
        w = psolve(av)
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            h[col, k] = np.dot(v[k], w)
            w -= h[col, k] * v[k]
        h1 = np.linalg.norm(w)
        v[col + 1] = w
        breakdown = h1 <= _EPS * h0  # the Krylov space holds the exact solution
        if breakdown:
            h1 = 0.0
        else:
            v[col + 1] *= 1 / h1
        h[col, col + 1] = h1
        for k, (c, s) in enumerate(rotations):
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, h[col, col] = givens(h[col, col], h[col, col + 1])
        h[col, col + 1] = 0.0
        rotations.append((c, s))
        rhs[col], rhs[col + 1] = c * rhs[col], -s * rhs[col]
        if abs(rhs[col + 1]) <= ptol or breakdown:
            break

    # back substitution, skipping zero entries as scipy does for singular h
    if h[col, col] == 0:
        rhs[col] = 0
    y = rhs[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    return y @ v[: col + 1], col + 1


def _armijo(phi: Callable[[float], float], phi0: float) -> float | None:
    """Armijo backtracking from a unit step, scipy's ``scalar_search_armijo``.

    ``phi(s)`` is the merit function along the step, with slope -phi0 at 0.
    Returns the accepted step, or None when none is found above ``_STEP_MIN``.
    """
    derphi0 = -phi0
    alpha0, phi_a0 = 1.0, phi(1.0)
    if phi_a0 <= phi0 + _C1 * alpha0 * derphi0:
        return alpha0

    # minimizer of the quadratic interpolant
    alpha1 = -derphi0 * alpha0**2 / 2.0 / (phi_a0 - phi0 - derphi0 * alpha0)
    phi_a1 = phi(alpha1)
    if phi_a1 <= phi0 + _C1 * alpha1 * derphi0:
        return alpha1

    # then minimizers of cubic interpolants, at least halving the step
    while alpha1 > _STEP_MIN:
        factor = alpha0**2 * alpha1**2 * (alpha1 - alpha0)
        a = alpha0**2 * (phi_a1 - phi0 - derphi0 * alpha1) - alpha1**2 * (phi_a0 - phi0 - derphi0 * alpha0)
        a = a / factor
        b = -(alpha0**3) * (phi_a1 - phi0 - derphi0 * alpha1) + alpha1**3 * (phi_a0 - phi0 - derphi0 * alpha0)
        b = b / factor
        alpha2 = (-b + np.sqrt(abs(b**2 - 3 * a * derphi0))) / (3.0 * a)
        phi_a2 = phi(alpha2)
        if phi_a2 <= phi0 + _C1 * alpha2 * derphi0:
            return alpha2
        if (alpha1 - alpha2) > alpha1 / 2.0 or (1 - alpha2 / alpha1) < 0.96:
            alpha2 = alpha1 / 2.0
        alpha0, alpha1, phi_a0, phi_a1 = alpha1, alpha2, phi_a1, phi_a2
    return None


def _line_search(
    linearize: Linearization, x: np.ndarray, fx: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Product]:
    """(x + s dx, its residual, its product), s from Armijo backtracking on |F|^2,
    or 1 where that finds no step or a zero one."""
    trials = {}  # step -> linearize(x + step dx)

    def phi(s: float) -> float:
        fs, _ = trials[s] = linearize(x + s * dx)
        return np.linalg.norm(fs) ** 2 if np.isfinite(fs).all() else math.inf

    s = _armijo(phi, np.linalg.norm(fx) ** 2) or 1.0
    return x + s * dx, *trials[s]


def _max_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max())


def newton_krylov(
    linearize: Linearization,
    x: np.ndarray,
    fx: np.ndarray,
    product: Product,
    psolve: Operator,
    f_tol: float,
    maxiter: int,
) -> tuple[np.ndarray, list[float], int]:
    """Solve F(x) = 0 by inexact Newton steps, each one GMRES cycle preconditioned by ``psolve``.

    ``linearize(x)`` returns F(x) and the product v -> F'(x) v, which returns
    None where it is not finite; it runs once per line-search trial. The
    caller passes the start: ``x`` and its ``fx, product = linearize(x)``,
    whose product is dropped at the first step. Returns the last iterate, the
    max-norm of F at the start and after each Newton step (one entry more
    than steps taken), and the total GMRES steps. Stops once that max-norm is
    at most ``f_tol`` after a step, so at least one step is taken as in
    scipy, after ``maxiter`` steps, or early (see the module notes); the
    caller checks the last residual.
    """
    history = [_max_norm(fx)]
    krylov_steps = 0
    if not np.isfinite(fx).all():
        return x, history, krylov_steps
    fx_norm = np.linalg.norm(fx)
    eta = _ETA_FIRST
    for step in range(maxiter):
        if history[-1] == 0 or (step > 0 and history[-1] <= f_tol):
            break
        # |F|_inf <= |F|_2, so a linear residual of 2-norm _ETA_FLOOR * f_tol suffices
        rtol = min(_ETA_MAX, max(min(eta, eta * fx_norm), _ETA_FLOOR * f_tol / fx_norm))
        solved = gmres(product, fx, psolve, rtol)
        if solved is None:
            break
        dx, steps = -solved[0], solved[1]
        krylov_steps += steps
        if not (np.isfinite(dx).all() and dx.any()):
            break
        x_new, fx_new, product_new = _line_search(linearize, x, fx, dx)
        if not np.isfinite(fx_new).all():
            break
        x, fx, product = x_new, fx_new, product_new
        history.append(_max_norm(fx))

        # Eisenstat-Walker forcing term for the next step
        fx_norm_new = np.linalg.norm(fx)
        eta_a = _GAMMA * fx_norm_new**2 / fx_norm**2
        if _GAMMA * eta**2 < _ETA_THRESHOLD:
            eta = min(_ETA_MAX, eta_a)
        else:
            eta = min(_ETA_MAX, max(eta_a, _GAMMA * eta**2))
        fx_norm = fx_norm_new
    return x, history, krylov_steps
