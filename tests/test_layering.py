"""Module boundaries inside the package.

Each module of causelab uses the others through their public names only,
so a private helper can change without reaching past its own module.
"""

import ast
from pathlib import Path

import causelab

PACKAGE = Path(causelab.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """`module.name` for every `_`-prefixed name imported from causelab."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "causelab":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_guard_sees_private_imports():
    assert private_imports("from .hp import CandidateCause, _Search\n") == ["hp._Search"]
    assert private_imports("from causelab.model import _x\n") == ["causelab.model._x"]
    assert private_imports("from collections import _chain_map\n") == []
    assert private_imports("from . import hp\nimport causelab._private\n") == []
