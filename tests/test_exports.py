"""Every name in a module's `__all__` resolves, so `from vw3d.<module> import *`
keeps working as public names are deleted."""

import importlib
import pkgutil

import pytest

import vw3d

MODULES = ["vw3d"] + [f"vw3d.{m.name}" for m in pkgutil.iter_modules(vw3d.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
    exec(f"from {name} import *", {})
