"""Every name a regflood module imports is used in that module, and every
private module-level function and constant is read in the package.

No linter ships with the test dependencies, so these are the unused-import
and orphan checks.  For the first, each module of the package but
``__init__.py`` is parsed, and a name bound by an import statement must be
read somewhere else in the module, or listed in its ``__all__``.  For the
second, a name starting with one underscore that a module binds at its top
level by ``def`` or assignment must be read somewhere in the package
outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import regflood

_MODULES = sorted(
    p for p in Path(regflood.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from a.b import c, d\n"
        "os.sep\n"
        "print(d)\n"
    )
    assert unused_imports(source) == ["system", "c"]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of the private top-level functions and constants of
    ``sources`` (module name to source) that no module reads outside the
    name's own definition; a read is a loaded name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def reads(tree):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)
        )

    read = sum((reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            own = reads(node)
            unread += [
                f"{module}:{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
                and read[name] == own[name]
            ]
    return unread


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "_A = 1\n"
            "_B: int = 2\n"
            "_C = 3\n"
            "def _f():\n"
            "    return _f()\n"
            "def _g():\n"
            "    return _B\n"
        ),
        "b": "import a\nfrom a import _g\n_g()\nprint(a._C)\n",
    }
    assert unread_private_names(sources) == ["a:_A", "a:_f"]


def test_package_has_no_unread_private_name():
    package = Path(regflood.__file__).parent.glob("*.py")
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package}
    assert unread_private_names(sources) == []
