"""Record the simulated reference that the sim workloads check against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for every sim op, its exact result
(seconds as repr, NIC counters, message count) and the number of
messages it prices. Run once when the benchmark is defined; re-running it
on a later commit would hide a change in simulated results.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from collkit import simnet  # noqa: E402
from collkit.simnet import SimConfig  # noqa: E402
from collkit.topology import Topology  # noqa: E402

import workloads  # noqa: E402


def calibration_msgs() -> int:
    """Messages priced by the calibration, counted by simulating its cells."""
    total = 0
    for n in workloads.CALIB_NODES:
        config = SimConfig(
            topo=Topology(n, 1, 1), params=workloads.LINKS_PARAMS, phys_topology="ring_of_nodes"
        )
        for m in workloads.CALIB_SIZES:
            for algorithm in ("ring", "recursive"):
                result = simnet.simulate(config, "all_gather", algorithm, m)
                total += sum(s.message_count for s in result.trace.steps)
    return total


def main() -> None:
    reference = {}
    for op in workloads.scale_ops() + workloads.links_ops():
        summary = op.summary(op.run())
        msgs = summary["msgs"] if "msgs" in summary else calibration_msgs()
        reference[op.key] = {"result": summary, "msgs": msgs}
        print(op.key, msgs)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
