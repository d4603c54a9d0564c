"""Every name a package module imports is referenced in that module, and
every private module-level name is referenced somewhere in the package.

No linter runs on the package, so an import or a private helper left behind
by a deletion would go unnoticed; this parses each module with ``ast``
instead. An imported name counts as referenced when it is loaded anywhere in
the module, in a string annotation too. ``__future__`` imports are
directives, and a name the package's ``__init__`` lists in ``__all__`` is a
re-export, so neither needs a reference. A private name (a leading
underscore, not a dunder) defined at module level, a function, class or
constant, counts as referenced when any module loads it, reads it as an
attribute or imports it.
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


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private names the tree defines: functions, classes and assigned names, no dunders."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def _uses(tree: ast.Module) -> set[str]:
    """Names the tree loads, reads as attributes or imports from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name no module of ``sources`` uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(_uses, trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]


def test_every_private_name_is_used():
    assert dead_private_names({path.name: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_DEAD: int = 4\ndef _used():\n    return _LIMIT\ndef _dead():\n    pass\n",
        "b.py": "from .a import _used\nimport a\n_used()\n_x = a._LIMIT\n",
    }
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_dead", "b.py:_x"]
