"""Module boundaries inside the package, and the names its documents cite.

Each module of causelab uses the others through their public names only,
so a private helper can change without reaching past its own module.  The
brute-force oracle is a referee for the tests: nothing in the package
imports it or exports it, so it can move out of the package unchanged.
No module calls the Python compiler (`eval`, `exec`, `compile`), so no
model text, which comes from users, can reach it.
No work counter is guarded: every engine entry counts into an `EngineStats`.
A backticked dotted name in the package's docstrings and comments, or in
the README from its layout section on, names something that exists, and
the README's library examples run.
"""

import ast
import importlib
import inspect
import io
import re
import textwrap
import tokenize
from pathlib import Path

import causelab

PACKAGE = Path(causelab.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def dotted(node: ast.expr) -> str | None:
    """`a.b.c` for a chain of attribute reads on a name; None otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (head := dotted(node.value)):
        return f"{head}.{node.attr}"
    return None


def private_imports(source: str) -> list[str]:
    """`module.name` for every `_`-prefixed name imported from causelab, or
    read as an attribute of a causelab module the source imports (dunder
    attributes such as `__name__` aside)."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "causelab" for alias in node.names if alias.name.split(".")[0] == "causelab"}
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "causelab":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
        if module in ("", "causelab"):  # `from . import hp` or `from causelab import hp`
            modules |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            owner = dotted(node.value)
            if owner is not None and owner.split(".")[0] in modules:
                found.append(f"{owner}.{node.attr}")
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


def test_guard_sees_private_attributes():
    assert private_imports("from . import dsl\nx = dsl._render_ctx(c)\n") == ["dsl._render_ctx"]
    assert private_imports("from causelab import hp as h\nh._Search\n") == ["h._Search"]
    assert private_imports("import causelab.dsl as d\nd._lex\n") == ["d._lex"]
    assert private_imports("import causelab.dsl\ncauselab.dsl._lex()\n") == ["causelab.dsl._lex"]
    assert private_imports("from . import dsl\nself._x\ndsl.__name__\nos._exit(0)\n") == []


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


# -- no Python compiler ------------------------------------------------------


def compiler_calls(source: str) -> list[str]:
    """`name:line` for every call of the builtin `eval`, `exec` or `compile`;
    an attribute call such as `re.compile` is not one."""
    return [
        f"{node.func.id}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("eval", "exec", "compile")
    ]


def test_no_module_calls_the_python_compiler():
    offenders = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := compiler_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_guard_sees_compiler_calls():
    assert compiler_calls("fn = eval(source, {})\n") == ["eval:1"]
    assert compiler_calls("x = 1\nexec(code)\ncompile(text, 'f', 'eval')\n") == ["exec:2", "compile:3"]
    assert compiler_calls("re.compile(p)\nself.eval(x)\nevaluate(y)\neval\n") == []


# -- one counting path --------------------------------------------------------


def counter_guards(source: str) -> list[int]:
    """The lines of `if` statements that test a `stats` name or attribute,
    or `TYPE_CHECKING`."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and any(
            (isinstance(n, ast.Name) and n.id in ("stats", "TYPE_CHECKING"))
            or (isinstance(n, ast.Attribute) and n.attr == "stats")
            for n in ast.walk(node.test)
        )
    ]


def test_every_counter_counts_unconditionally():
    """Each engine entry counts into an `EngineStats`, its caller's or a
    fresh one, so no count waits on a counter being passed, and the class is
    imported for real."""
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := counter_guards(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_guard_sees_counter_guards():
    assert counter_guards("if stats is not None:\n    stats.solves += 1\n") == [1]
    assert counter_guards("x = 1\nif self.stats:\n    pass\n") == [2]
    assert counter_guards("if TYPE_CHECKING:\n    from .hp import EngineStats\n") == [1]
    assert counter_guards("stats = stats if stats is not None else EngineStats()\nif solves:\n    pass\n") == []


# -- documented names --------------------------------------------------------

DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")


def documentation(source: str) -> list[str]:
    """The docstrings and comments of a Python source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    found = [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and (doc := ast.get_docstring(node)):
            found.append(doc)
    return found


def documented_names() -> set[tuple[str, str]]:
    """(where, name) for every backticked dotted name in the package's
    docstrings and comments and in the README from `## Layout` on; earlier
    README sections record names that were removed."""
    readme = README.read_text(encoding="utf-8")
    texts = [("README.md", readme[readme.index("## Layout"):])]
    for path in sorted(PACKAGE.glob("*.py")):
        texts += [(path.name, doc) for doc in documentation(path.read_text(encoding="utf-8"))]
    return {(where, m.group(1)) for where, text in texts for m in DOTTED.finditer(text)}


def package_roots() -> dict[str, object]:
    """The names a dotted reference may start with: causelab, its modules
    by short name, and the classes they define."""
    roots: dict[str, object] = {"causelab": causelab}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"causelab.{path.stem}")
        roots[path.stem] = module
        roots.update(
            (name, obj) for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        )
    return roots


def instance_attributes(cls: type) -> set[str]:
    """The names a class's methods assign as `self.name`, and its dataclass
    fields."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    found = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    return found | set(getattr(cls, "__dataclass_fields__", ()))


def resolves(dotted: str, roots: dict[str, object]) -> bool | None:
    """Whether `dotted` names a live attribute; None when it does not start
    at a name of the package, as a file name does."""
    head, *rest = dotted.split(".")
    if head not in roots:
        return None
    obj = roots[head]
    for k, part in enumerate(rest):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            last = k == len(rest) - 1
            return last and inspect.isclass(obj) and part in instance_attributes(obj)
    return True


def test_documented_names_resolve():
    roots = package_roots()
    assert sorted((where, name) for where, name in documented_names() if resolves(name, roots) is False) == []


def library_examples(readme: str) -> list[str]:
    """The ```python blocks of a README's "Library use" section, in order."""
    section = readme[readme.index("## Library use"):readme.index("\n## ", readme.index("## Library use") + 1)]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_readme_library_examples_run(monkeypatch):
    # The blocks share one namespace, as a reader typing them in order
    # would, and open the corpus by its path from the repository root.
    blocks = library_examples(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    monkeypatch.chdir(README.parent)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_guard_sees_stale_names():
    roots = package_roots()
    assert resolves("model.canonical", roots) and resolves("CausalModel.reads", roots)
    assert resolves("_Search.classes", roots)  # assigned in a method
    assert resolves("Witness.w_set", roots) and resolves("Witness.world", roots)  # dataclass fields
    assert resolves("model.fold", roots) is False
    assert resolves("CausalModel.reads.nope", roots) is False
    assert resolves("_Search.classes.nope", roots) is False
    assert resolves("expected.json", roots) is None
    assert ("README.md", "formula.valid") in documented_names()
    assert documentation('"""`a.b`"""\nx = "`c.d`"  # `e.f`\n') == ["# `e.f`", "`a.b`"]


# -- one wording per model-file rule ------------------------------------------
# The model layer checks these rules and the parser only places its errors,
# so each message is written in exactly one module.

RULE_MESSAGES = {
    "duplicate variable ": "model.py",
    " references undeclared variable ": "model.py",
    " is not a declared endogenous variable": "normality.py",
    " is outside the range of ": "normality.py",
}


def message_literals(source: str) -> list[str]:
    """The string constants of a source, f-string pieces included, but not
    its docstrings."""
    tree = ast.parse(source)
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def test_each_rule_message_is_written_once():
    literals = {path.name: message_literals(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    homes = {
        text: [name for name, found in literals.items() if any(text in literal for literal in found)]
        for text in RULE_MESSAGES
    }
    assert homes == {text: [home] for text, home in RULE_MESSAGES.items()}


def test_guard_sees_message_literals():
    source = '"""duplicate variable docs"""\ndef f(n):\n    """Doc."""\n    raise E(f"duplicate variable {n!r}")\n'
    assert message_literals(source) == ["duplicate variable "]
