"""Every name a package module imports is referenced in that module.

No linter runs on the package, so an import left behind by a deletion would
go unnoticed; this parses each module with ``ast`` instead. A name counts as
referenced when it is loaded anywhere in the module, in a string annotation
too. ``__future__`` imports are directives, and a name the package's
``__init__`` lists in ``__all__`` is a re-export, so neither needs a reference.
"""

import ast
from pathlib import Path

import pytest

import cmc_annuli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmc_annuli"
MODULES = sorted(PACKAGE.glob("*.py"))


def _annotations(tree: ast.Module):
    """Every annotation expression in the tree: arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    """Names loaded in the tree, with those of string annotations parsed as expressions."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str, exempt=frozenset()) -> list[str]:
    """The names ``source`` imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    referenced = _referenced(tree) | exempt
    return [name for name in imported if name not in referenced]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_referenced(path):
    exempt = frozenset(cmc_annuli.__all__) if path.name == "__init__.py" else frozenset()
    assert unused_imports(path.read_text(encoding="utf-8"), exempt) == []


def test_the_check_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def f(x: 'np.ndarray') -> Optional[float]:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["os"]
