"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import sprayform

MODULES = sorted(m.name for m in pkgutil.iter_modules(sprayform.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"sprayform.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"sprayform.{name}.__all__ lists {missing}"
