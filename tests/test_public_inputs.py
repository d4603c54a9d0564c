"""One rule for every numeric input of the public API, checked as a property.

Each numeric parameter of each public callable, the names of
``cmc_annuli.__all__`` and the public methods of its classes, takes a finite
number. None, a non-number string, nan, +inf or -inf raises ValueError: never a
TypeError and never a result. A count takes an integer, so it also rejects
2.5. The one exception is ``flux``'s slope, where a signed infinity is the
slope of a vertical graph and gives +/- sinh(rho).

``CALLS`` holds valid arguments of every walked callable, one per parameter,
so no parameter is skipped; ``test_walk_reaches_every_public_callable`` keeps
the walk from covering fewer callables than the package exports.
"""

import enum
import inspect
import math

import numpy as np
import pytest

import cmc_annuli as ca

ANNULUS = ca.Annulus(0.5, 1.5)
DATA = ca.OuterBoundaryData(0.0, 0.1)
PROFILE = ca.HeightProfile(0.4, 1.0)
BOX = ca.bounding_box(0.4, ANNULUS, DATA)
GRAPH = PROFILE.as_radial_function(3.0)
GRID = ca.PolarGrid(ANNULUS, 5, 8)

# Valid arguments by parameter name. A float is a numeric parameter, an int a
# count, a tuple of floats a number and a tuple of ints a count at each
# position; anything else is not numeric.
CALLS = {
    "Annulus": (ca.Annulus, dict(a=0.5, b=1.5)),
    "OuterBoundaryData": (ca.OuterBoundaryData, dict(m=0.0, M=0.1)),
    "HeightProfile": (ca.HeightProfile, dict(h=0.4, alpha=1.0)),
    "HeightProfile.height": (PROFILE.height, dict(rho=2.0)),
    "HeightProfile.slope": (PROFILE.slope, dict(rho=2.0)),
    "HeightProfile.sample": (PROFILE.sample, dict(rho_max=2.0, n=5)),
    "HeightProfile.as_radial_function": (PROFILE.as_radial_function, dict(upper=3.0)),
    "RadialFunction": (
        ca.RadialFunction,
        dict(value=GRAPH.value, derivative=GRAPH.derivative, domain=(PROFILE.rho0, 3.0)),
    ),
    "AprioriBounds.sample": (BOX.sample, dict(n=5)),
    "boundary_radius": (ca.boundary_radius, dict(h=0.4, alpha=1.0)),
    "height": (ca.height, dict(h=0.4, alpha=1.0, rho=2.0)),
    "slope": (ca.slope, dict(h=0.4, alpha=1.0, rho=2.0)),
    "hole_threshold": (ca.hole_threshold, dict(h=0.4)),
    "param_small": (ca.param_small, dict(h=0.4, rho=0.5)),
    "param_large": (ca.param_large, dict(h=0.4, rho=0.5)),
    "sample_profile": (ca.sample_profile, dict(h=0.4, alpha=1.0, rho_max=2.0, n=5)),
    "upper_envelope": (ca.upper_envelope, dict(h=0.4, annulus=ANNULUS, M=0.1)),
    "lower_envelope": (ca.lower_envelope, dict(h=0.4, annulus=ANNULUS, m=0.0)),
    "bounding_box": (ca.bounding_box, dict(h=0.4, annulus=ANNULUS, data=DATA)),
    "dirichlet_feasibility": (
        ca.dirichlet_feasibility,
        dict(h=0.4, annulus=ANNULUS, inner_min=0.0, inner_max=0.1, data=DATA),
    ),
    "extremal_drops": (ca.extremal_drops, dict(h=0.4, annulus=ANNULUS)),
    "integrate_radial": (ca.integrate_radial, dict(h=0.4, annulus=ANNULUS, C=-1.0)),
    "solve_radial": (ca.solve_radial, dict(h=0.4, annulus=ANNULUS, u_a=0.1, u_b=0.0, tol=1e-10)),
    "euclidean_to_hyperbolic": (ca.euclidean_to_hyperbolic, dict(r=0.5)),
    "flux": (ca.flux, dict(slope=1.0, rho=1.0)),
    "mean_curvature_radial": (
        ca.mean_curvature_radial,
        dict(u=GRAPH, rho=2.0, step=1e-4),
    ),
    "PolarGrid": (ca.PolarGrid, dict(annulus=ANNULUS, n_rho=5, n_theta=8)),
    "cmc_residual": (ca.cmc_residual, dict(field2d=ca.Field2D(GRID, np.zeros((5, 8))), h=0.4)),
    "solve_dirichlet_2d": (
        ca.solve_dirichlet_2d,
        dict(h=0.4, annulus=ANNULUS, g_inner=0.1, g_outer=0.0, grid=(8, 8), tol=1e-8),
    ),
}

# Public callables the walk leaves out, each with the reason it takes no numeric input.
NOT_WALKED = {
    "max_gradient": "takes a Field2D only",
    "Field2D": "an array of heights on a grid, checked for its shape",
    "AprioriBounds": "a record of an annulus and two graphs",
    "FeasibilityResult": "a record the package returns",
    "FeasibleDropInterval": "a record the package returns",
    "RadialSolution": "a record the package returns",
    "SolverReport": "a record the package returns",
}

BAD = [None, "x", math.nan, math.inf, -math.inf]
BAD_COUNTS = BAD + [2.5]

#: (callable, parameter, bad value) that return a result by design
ALLOWED = {("flux", "slope", math.inf), ("flux", "slope", -math.inf)}


def _public_callables() -> set[str]:
    """Callable names of ``__all__`` and "Class.method" for the public methods of its classes.

    Exceptions and enums are left out: their constructors take no numeric input.
    """
    names = set()
    for name in ca.__all__:
        obj = getattr(ca, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, (Exception, enum.Enum))):
            continue
        names.add(name)
        if inspect.isclass(obj):
            names |= {
                f"{name}.{attr}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(member)
            }
    return names


def _cases():
    """(callable, parameter, position in a tuple or None, bad value), for every numeric parameter."""
    for call, (_, kwargs) in CALLS.items():
        for param, value in kwargs.items():
            if isinstance(value, float):
                yield from ((call, param, None, bad) for bad in BAD)
            elif isinstance(value, int):
                yield from ((call, param, None, bad) for bad in BAD_COUNTS)
            elif isinstance(value, tuple):
                bads = BAD if isinstance(value[0], float) else BAD_COUNTS
                for index in range(len(value)):
                    yield from ((call, param, index, bad) for bad in bads)


CASES = list(_cases())


def _case_id(case):
    call, param, index, bad = case
    return f"{call}-{param}{'' if index is None else f'[{index}]'}-{bad!r}"


def test_walk_reaches_every_public_callable():
    assert not set(CALLS) & set(NOT_WALKED)
    assert set(CALLS) | set(NOT_WALKED) == _public_callables()


@pytest.mark.parametrize("call", CALLS)
def test_every_parameter_is_given_and_valid(call):
    fn, kwargs = CALLS[call]
    assert set(kwargs) == set(inspect.signature(fn).parameters)
    fn(**kwargs)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(case) for case in CASES])
def test_bad_numeric_input_is_a_value_error(case):
    call, param, index, bad = case
    fn, kwargs = CALLS[call]
    if index is None:
        value = bad
    else:
        value = list(kwargs[param])
        value[index] = bad
        value = tuple(value)
    kwargs = {**kwargs, param: value}
    if (call, param, bad) in ALLOWED:
        assert fn(**kwargs) == math.copysign(math.sinh(kwargs["rho"]), bad)
        return
    with pytest.raises(ValueError):
        fn(**kwargs)
