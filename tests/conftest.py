"""Shared helpers for the test suite."""
from collkit.hierarchy import INTER_COMM_ID, INTRA_COMM_ID, WORLD_COMM_ID
from collkit.transport.base import (
    COLLECTIVE_TAGS_PER_COMM,
    STEP_TAGS_PER_COLLECTIVE,
)

PHASE_OF_COMM_ID = {WORLD_COMM_ID: "flat", INTER_COMM_ID: "inter", INTRA_COMM_ID: "intra"}


def replay_schedule(log_records, collective, algorithm):
    """Group an instrumented transport log into the per-step message
    multisets of the synchronous schedule, ordered as the simulator orders
    its steps.

    Step indices are recovered from tags (step s of a collective uses
    base + s) and phases from the communicator id embedded in the tag
    (world, inter-node groups and intra-node groups each have one id).
    """
    buckets = {}
    for rec in log_records:
        comm_id = rec.tag // COLLECTIVE_TAGS_PER_COMM
        step = rec.tag % STEP_TAGS_PER_COLLECTIVE
        key = (PHASE_OF_COMM_ID[comm_id], step)
        buckets.setdefault(key, []).append((rec.src, rec.dst, rec.nbytes))
    if algorithm == "hierarchical":
        phases = ("inter", "intra") if collective == "all_gather" else ("intra", "inter")
    else:
        phases = ("flat",)
    order = [key for ph in phases for key in sorted(k for k in buckets if k[0] == ph)]
    assert len(order) == len(buckets), "log contains unexpected phases"
    return [sorted(buckets[key]) for key in order]


def simulated_step_multisets(result):
    """Per-step sorted (src, dst, bytes) triples from a recorded sim trace."""
    return [
        sorted((m["src"], m["dst"], m["bytes"]) for m in step.messages)
        for step in result.trace.steps
    ]
