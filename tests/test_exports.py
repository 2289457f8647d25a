"""Every exported name resolves, so no retired name stays in an export
list."""

import importlib
import pkgutil

import pytest

import sparselms

MODULES = ["sparselms"] + [
    f"sparselms.{m.name}" for m in pkgutil.iter_modules(sparselms.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []
