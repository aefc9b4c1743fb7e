"""Every public function, class and method of the package has a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import regflood

MODULES = [
    importlib.import_module(f"regflood.{m.name}") for m in pkgutil.iter_modules(regflood.__path__)
]


def _public(module):
    """The module's ``__all__``, or else what it defines without a leading underscore."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name
            for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        ]
    objs = ((name, getattr(module, name)) for name in names)
    return [(name, obj) for name, obj in objs if inspect.isclass(obj) or inspect.isfunction(obj)]


def _documented(obj) -> bool:
    # a dataclass or named tuple without a docstring gets its signature as one
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    return bool(doc) and not doc.startswith(f"{obj.__name__}(")


def _methods(cls):
    """Public methods and properties defined in the class body, as functions."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        # property, cached_property, staticmethod and classmethod wrap a function
        for attr in ("fget", "func", "__func__"):
            member = getattr(member, attr, member)
        if inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_has_a_docstring(module):
    missing = []
    for name, obj in _public(module):
        if not _documented(obj):
            missing.append(name)
        if inspect.isclass(obj):
            missing += [f"{name}.{m}" for m, f in _methods(obj) if not f.__doc__]
    assert missing == []
