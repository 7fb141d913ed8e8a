"""Every name a pencil_forge module lists in __all__ exists, so that a
deleted function or class cannot stay exported by name."""

import importlib
import pkgutil

import pytest

import pencil_forge

MODULES = ["pencil_forge"] + [
    f"pencil_forge.{m.name}" for m in pkgutil.iter_modules(pencil_forge.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
