"""Which heavy modules each entry point loads.

Point queries run on the standard library alone: importing the package and
its CLI, a ``check`` verdict, a radial solve that ends in exit 3, and the
library's slopes, heights, envelopes and radial solutions at single radii load
no numpy. numpy loads with the first table, figure or 2D solve, and no command
or first use loads scipy. Each check runs in a fresh interpreter, since this
test session has numpy and scipy loaded already (the tests use scipy as a
reference).
"""

import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import cmc_annuli

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, tmp_path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def _loaded(package: str) -> str:
    """Code printing, as a JSON list, the loaded modules of one top-level package."""
    return f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"


_SCIPY_LOADED = _loaded("scipy")
_NUMPY_LOADED = _loaded("numpy")


def test_package_and_cli_import_without_scipy(tmp_path):
    proc = _run(f"import json, sys\nimport cmc_annuli, cmc_annuli.cli\n{_SCIPY_LOADED}", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--h", "0.4", "--a", "0.5", "--b", "2", "--inner", "5", "--outer", "0"],
        ["bounds", "--h", "0.4", "--a", "0.5", "--b", "2", "--m", "0", "--M", "0", "--n", "16",
         "--out", "bounds.csv"],
        ["solve", "--h", "0.4", "--a", "0.5", "--b", "2", "--u-a", "0.1", "--u-b", "0", "--n", "16",
         "--out", "radial.csv"],
        ["figure", "box", "--h", "0.5", "--a", "1", "--b", "2", "--m", "0", "--M", "0", "--n", "16",
         "--out", "box.svg"],
        ["solve", "--h", "0.4", "--a", "0.5", "--b", "2", "--u-a", "0.1", "--u-b", "0", "--two-d",
         "--n-rho", "24", "--n-theta", "12", "--out", "field.csv"],
    ],
    ids=["check", "bounds", "solve", "figure", "solve-two-d"],
)
def test_light_commands_run_without_scipy(tmp_path, argv):
    code = f"import json, sys\nfrom cmc_annuli.cli import main\nassert main({argv!r}) == 0\n{_SCIPY_LOADED}"
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_package_and_cli_import_without_numpy(tmp_path):
    proc = _run(f"import json, sys\nimport cmc_annuli, cmc_annuli.cli\n{_NUMPY_LOADED}", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


_ANNULUS = ["--h", "0.4", "--a", "0.5", "--b", "2"]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["check", *_ANNULUS, "--inner", "5", "--outer", "0"], 0),
        (["check", *_ANNULUS, "--inner", "inner.csv", "--outer", "outer.csv"], 0),
        (["solve", *_ANNULUS, "--u-a", "5", "--u-b", "0", "--out", "unused.csv"], 3),
    ],
    ids=["check-number", "check-csv", "solve-infeasible"],
)
def test_point_queries_run_without_numpy(tmp_path, argv, exit_code):
    (tmp_path / "inner.csv").write_text("theta,u\n0,4.5\n1.5,5\n3,4.75\n")
    (tmp_path / "outer.csv").write_text("theta,u\n0,-0.25\n3,0.25\n")
    code = f"import json, sys\nfrom cmc_annuli.cli import main\nassert main({argv!r}) == {exit_code}\n{_NUMPY_LOADED}"
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_library_point_path_runs_without_numpy(tmp_path):
    code = f"""
import json, math, sys
import cmc_annuli as ca
annulus = ca.Annulus(0.5, 2.0)
assert ca.slope(0.4, 0.5, 1.2) > 0 and ca.height(0.4, 0.5, 1.2) > 0
profile = ca.height_profile(0.4, 0.5).as_radial_function()
assert profile.value(1.2) == ca.height(0.4, 0.5, 1.2) and profile.derivative(1.2) == ca.slope(0.4, 0.5, 1.2)
upper = ca.upper_envelope(0.4, annulus, 0.0)
assert isinstance(upper.value(1.2), float) and upper.derivative(0.5) == -math.inf
assert ca.lower_envelope(0.4, annulus, 0.0).derivative(0.5) == math.inf
assert upper.derivative(1.2) > upper.derivative(0.6)
evaluator = ca.solve_radial(0.4, annulus, -0.5, 0.0).evaluator
assert isinstance(evaluator.value(1.2), float)
assert math.isfinite(evaluator.derivative(0.5)) and math.isfinite(evaluator.derivative(1.2))
from cmc_annuli.carlson import rf_rj
assert all(isinstance(v, float) for v in rf_rj(0.0, 1.0, 2.0, 3.0))
{_NUMPY_LOADED}"""
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_two_d_names_resolve_on_first_use(tmp_path):
    code = """
import sys
import cmc_annuli
assert "cmc_annuli.pde2d" not in sys.modules
solve = cmc_annuli.solve_dirichlet_2d
assert "solve_dirichlet_2d" in vars(cmc_annuli)
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
from cmc_annuli import SolverReport
from cmc_annuli.pde2d import solve_dirichlet_2d
assert solve is solve_dirichlet_2d and SolverReport.__module__ == "cmc_annuli.pde2d"
namespace = {}
exec("from cmc_annuli import *", namespace)
assert all(name in namespace for name in cmc_annuli.__all__)
try:
    cmc_annuli.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")
"""
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name", [n for n in cmc_annuli.__all__ if dataclasses.is_dataclass(getattr(cmc_annuli, n))]
)
def test_public_dataclass_annotations_resolve(name):
    assert typing.get_type_hints(getattr(cmc_annuli, name))
