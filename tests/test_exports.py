import importlib

import pytest


@pytest.mark.parametrize("module", ["collkit", "collkit.bench"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", ["collkit", "collkit.bench"])
def test_star_import_binds_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(importlib.import_module(module).__all__)
