"""Rotational constant-mean-curvature graphs over the hyperbolic plane.

Evaluates the one-parameter family of rotational cmc-h graphs (h in (0, 1/2]),
builds the a-priori height envelopes they induce for arbitrary cmc graphs on
circular annuli, decides when inner Dirichlet data certifiably admits no
solution, and cross-checks everything with independent radial and 2D solvers.
"""

__version__ = "0.1.0"

from .errors import (
    HoleTooLargeError,
    InfeasibleBoundaryError,
    InfeasibleFluxError,
    NonConvergenceError,
    QuadratureError,
)
from .hyperbolic import (
    MAX_RADIUS,
    RadialFunction,
    euclidean_to_hyperbolic,
    flux,
    hyperbolic_to_euclidean,
    mean_curvature_radial,
)
from .profiles import (
    DEFAULT_TOL,
    Branch,
    HeightProfile,
    MeanCurvature,
    ProfileParameter,
    boundary_radius,
    height,
    height_profile,
    hole_threshold,
    param_large,
    param_small,
    sample_profile,
    slope,
)
from .estimates import (
    Annulus,
    AprioriBounds,
    FeasibilityResult,
    OuterBoundaryData,
    Verdict,
    bounding_box,
    dirichlet_feasibility,
    lower_envelope,
    upper_envelope,
)
from .radial import (
    FeasibleDropInterval,
    RadialSolution,
    extremal_drops,
    feasible_flux_interval,
    integrate_radial,
    solve_radial,
)

# The 2D solver loads on first use: with its Newton-Krylov module it takes
# about 10 ms to import once numpy is loaded, against about 30-40 ms for the
# rest of the package, which loads no numpy until a table is built.
_PDE2D_NAMES = ("Field2D", "PolarGrid", "SolverReport", "cmc_residual", "max_gradient", "solve_dirichlet_2d")


def __getattr__(name):
    if name in _PDE2D_NAMES:
        from . import pde2d

        value = globals()[name] = getattr(pde2d, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_RADIUS",
    "DEFAULT_TOL",
    "Annulus",
    "AprioriBounds",
    "Branch",
    "FeasibilityResult",
    "FeasibleDropInterval",
    "Field2D",
    "HeightProfile",
    "HoleTooLargeError",
    "InfeasibleBoundaryError",
    "InfeasibleFluxError",
    "MeanCurvature",
    "NonConvergenceError",
    "OuterBoundaryData",
    "PolarGrid",
    "ProfileParameter",
    "QuadratureError",
    "RadialFunction",
    "RadialSolution",
    "SolverReport",
    "Verdict",
    "boundary_radius",
    "bounding_box",
    "cmc_residual",
    "dirichlet_feasibility",
    "euclidean_to_hyperbolic",
    "extremal_drops",
    "feasible_flux_interval",
    "flux",
    "height",
    "height_profile",
    "hole_threshold",
    "hyperbolic_to_euclidean",
    "integrate_radial",
    "lower_envelope",
    "max_gradient",
    "mean_curvature_radial",
    "param_large",
    "param_small",
    "sample_profile",
    "slope",
    "solve_dirichlet_2d",
    "solve_radial",
    "upper_envelope",
]
