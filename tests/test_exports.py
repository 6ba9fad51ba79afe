"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import kamtori

MODULES = ["kamtori"] + [f"kamtori.{m.name}" for m in pkgutil.iter_modules(kamtori.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
