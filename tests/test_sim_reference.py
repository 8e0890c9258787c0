"""Every simulated cell of the benchmark (``scale_ops`` and ``links_ops``)
against the seconds, NIC counters and message counts committed in
``perfbench/reference.json``. The file is only read, never re-recorded."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

OPS = workloads.scale_ops() + workloads.links_ops()


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_sim_cell_matches_committed_reference(op):
    assert workloads.sim_check(op, op.run(), workloads.load_reference())
