"""Every public name a module declares is importable from it."""

import importlib
import pkgutil

import pytest

import wcost

MODULES = ["wcost"] + sorted(m.name for m in pkgutil.iter_modules(wcost.__path__, "wcost."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
