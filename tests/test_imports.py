"""Every name a regflood module imports is used in that module.

No linter ships with the test dependencies, so this is the unused-import
check: each module of the package but ``__init__.py`` is parsed, and a
name bound by an import statement must be read somewhere else in the
module, or listed in its ``__all__``.
"""

import ast
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
