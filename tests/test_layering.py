"""Module boundaries inside the package.

Each module of causelab uses the others through their public names only,
so a private helper can change without reaching past its own module.  The
brute-force oracle is a referee for the tests: nothing in the package
imports it or exports it, so it can move out of the package unchanged.
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


def imported_modules(source: str) -> set[str]:
    """Short names of the causelab modules a source imports, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found |= {p[1] for p in parts if p[0] == "causelab" and len(p) > 1}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "causelab":
                continue
            if node.level == 0:
                module = module[1:]
            if module and module[0]:
                found.add(module[0])
            else:  # `from . import x` or `from causelab import x`
                found |= {alias.name for alias in node.names}
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


def test_every_export_resolves_once():
    assert [name for name in causelab.__all__ if not hasattr(causelab, name)] == []
    assert len(causelab.__all__) == len(set(causelab.__all__))


def test_nothing_in_the_package_uses_the_oracle():
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracle.py" and "oracle" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == []
    assert "oracle" not in causelab.__all__
    assert [name for name in causelab.__all__ if "oracle" in getattr(getattr(causelab, name), "__module__", "")] == []


def test_guard_sees_oracle_imports():
    assert imported_modules("from .oracle import oracle_cause\n") == {"oracle"}
    assert imported_modules("from . import hp, oracle\n") == {"hp", "oracle"}
    assert imported_modules("import causelab.oracle as o\n") == {"oracle"}
    assert imported_modules("from causelab import oracle\n") == {"oracle"}
    assert imported_modules("from causelab.oracle import x\n") == {"oracle"}
    assert imported_modules("import oracle\nfrom elsewhere import oracle\n") == set()
