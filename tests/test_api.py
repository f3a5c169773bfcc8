"""The public names of the package and of its submodules resolve."""
import importlib
import pkgutil

import pytest

import regionmedian

MODULES = ["regionmedian"] + [f"regionmedian.{m.name}" for m in pkgutil.iter_modules(regionmedian.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_star_import_runs():
    namespace = {}
    exec("from regionmedian import *", namespace)
    assert set(regionmedian.__all__) <= set(namespace)
