import importlib
import sys
from pathlib import Path

import pytest

from collkit.topology import Topology

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


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


@pytest.mark.parametrize(
    "install",
    [
        workloads._install_sim_spans,
        workloads._install_sim_counters,
        lambda rec, patch: workloads._install_inproc_spans(rec, patch, Topology(2, 2, 1)),
    ],
    ids=["sim_spans", "sim_counters", "inproc_spans"],
)
def test_perfbench_hooks_bind(install):
    """perfbench's traced runs rebind library names found with ``getattr``;
    every hooked name must still exist."""
    patch = tracer.Patcher()
    try:
        install(tracer.Recorder(), patch)
        hooked = list(patch._saved)
    finally:
        patch.restore()
    assert hooked
    assert all(getattr(owner, attr) is value for owner, attr, value in hooked)
