"""Each package's ``__all__`` is its public surface, lazy or not.

A package init names its exports and imports nothing until one is read
(``repro.lazy_package``); ``repro.sweep``, which loads whole, imports its
three modules. Either way every exported name resolves, by ``getattr``
and by ``from pkg import *``, to the object its home module binds,
``dir()`` lists it, and an unknown name is an ``AttributeError`` that
names the package.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path
from types import ModuleType
from typing import Any, List

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in SRC.glob("*/__init__.py"))


def submodules(package: ModuleType) -> List[ModuleType]:
    return [importlib.import_module(info.name) for info in
            pkgutil.walk_packages(package.__path__, package.__name__ + ".")
            if not info.name.endswith("__main__")]


def defined_in(package: ModuleType, name: str, value: Any) -> bool:
    """Whether *value* is what *name* means in its home module: the module
    that defines a class or function, else a module of *package* that
    binds it."""
    if inspect.isclass(value) or inspect.isfunction(value):
        home = importlib.import_module(value.__module__)
        return getattr(home, name, None) is value
    return any(getattr(module, name, None) is value
               for module in submodules(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_to_its_home_object(name):
    package = importlib.import_module(name)
    wrong = [export for export in package.__all__
             if export != "__version__"
             and not defined_in(package, export, getattr(package, export))]
    assert not wrong, f"{name} exports these from the wrong place: {wrong}"
    # a name read once is kept: the next read is a plain attribute
    assert set(package.__all__) <= set(vars(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_exported_name(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert {export: namespace.get(export) for export in package.__all__} == {
        export: getattr(package, export) for export in package.__all__}


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_exported_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"'{name}'"):
        package.no_such_name
