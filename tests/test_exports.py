"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import sumrankdec

MODULES = sorted(m.name for m in pkgutil.iter_modules(sumrankdec.__path__, "sumrankdec."))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
