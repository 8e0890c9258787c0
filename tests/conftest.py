"""Shared helpers for the test suite."""
from typing import NamedTuple

import numpy as np

from collkit import collectives
from collkit.hierarchy import (
    INTER_COMM_ID,
    INTRA_COMM_ID,
    WORLD_COMM_ID,
    HierPlan,
    hier_all_gather,
    hier_reduce_scatter,
)
from collkit.simnet import StepCoster, build_schedule, simulate
from collkit.transport import Communicator, run_ranks
from collkit.transport.base import (
    COLLECTIVE_TAGS_PER_COMM,
    STEP_TAGS_PER_COLLECTIVE,
)

PHASE_OF_COMM_ID = {WORLD_COMM_ID: "flat", INTER_COMM_ID: "inter", INTRA_COMM_ID: "intra"}

# Criterion 7's cells: (collective, algorithm, inter_alg, n_nodes, m_gpus,
# elements per block).
FIDELITY_CELLS = [
    ("all_gather", "ring", "ring", 4, 1, 16),
    ("reduce_scatter", "ring", "ring", 6, 1, 8),
    ("all_gather", "recursive", "ring", 8, 1, 4),
    ("reduce_scatter", "recursive", "ring", 16, 1, 4),
    ("all_gather", "hierarchical", "recursive", 4, 4, 8),
    ("reduce_scatter", "hierarchical", "ring", 2, 8, 8),
]


class Sent(NamedTuple):
    src: int
    dst: int
    tag: int
    nbytes: int


class LoggedEndpoint:
    """Transport endpoint wrapper that appends a :class:`Sent` record to
    ``log`` for every send. The sub-communicators that
    ``Communicator.subgroup`` derives share the wrapped endpoint, so the
    hierarchical phases are logged too."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log
        self.rank = inner.rank

    def send(self, dst, tag, payload):
        self._inner.send(dst, tag, payload)
        self._log.append(Sent(self.rank, dst, tag, len(payload)))

    def recv(self, src, tag):
        return self._inner.recv(src, tag)


def run_logged(num_ranks, fn):
    """``run_ranks(num_ranks, fn)`` with every rank's sends logged; returns
    (per-rank results, log)."""
    log = []

    def logged(comm):
        return fn(Communicator(LoggedEndpoint(comm.endpoint, log), comm.members))

    return run_ranks(num_ranks, logged), log


def replay_schedule(log_records, collective, algorithm):
    """Group a logged run's sends into the per-step message
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


def inprocess_log(topo, collective, algorithm, inter_alg, n_elems, seed):
    """Run one collective on the in-process backend over ``topo`` and
    return its log of sends. Each rank's input is integer-valued, drawn
    from ``seed``: ``n_elems`` elements for all-gather, ``p * n_elems``
    for reduce-scatter."""
    p = topo.world_size
    rng = np.random.default_rng(seed)
    size = n_elems if collective == "all_gather" else n_elems * p
    inputs = [rng.integers(-8, 8, size=size).astype(np.float32) for _ in range(p)]
    if algorithm == "hierarchical":
        plan = HierPlan(topo=topo, inter_alg=inter_alg)
        op = hier_all_gather if collective == "all_gather" else hier_reduce_scatter
        fn = lambda c: op(plan, c, inputs[c.rank])  # noqa: E731
    else:
        op = getattr(collectives, collective)
        fn = lambda c: op(c, algorithm, inputs[c.rank])  # noqa: E731
    return run_logged(p, fn)[1]


def price_log(config, log_records, collective, algorithm):
    """Price a real run's log as :func:`collkit.simnet.simulate` prices its
    schedule: each step of :func:`replay_schedule` through one
    ``StepCoster.charge_step``, a reduce-scatter step with one
    ``(dst, nbytes)`` reduction per message. Returns (seconds, counters,
    step count).

    Steps are charged in sorted message order, not the simulator's group
    order, and the log's own order follows thread timing. The seconds still
    match bit for bit: within one step every message carries the same
    ``width * block`` bytes, so each resource's ``bincount`` adds equal
    charges, and their sum does not depend on the order.
    """
    coster = StepCoster(config)
    steps = replay_schedule(log_records, collective, algorithm)
    reduces = collective == "reduce_scatter"
    seconds = 0.0
    for step in steps:
        reductions = [(dst, nbytes) for _, dst, nbytes in step] if reduces else ()
        seconds += coster.charge_step(step, reductions)
    return seconds, coster.counters, len(steps)


def seconds_ratio(config_a, config_b, collective, algorithm, m_bytes):
    """Simulated time of ``config_a`` over that of ``config_b``."""
    return (
        simulate(config_a, collective, algorithm, m_bytes).seconds
        / simulate(config_b, collective, algorithm, m_bytes).seconds
    )


def scheduled_step_multisets(config, collective, algorithm, m_bytes, inter_alg):
    """Per-step sorted (src, dst, bytes) triples of the schedule that
    :func:`collkit.simnet.simulate` prices, each run expanded to its
    ``repeat`` steps."""
    schedule = build_schedule(config, collective, algorithm, m_bytes, inter_alg)
    return [
        sorted(map(tuple, messages.tolist()))
        for messages, _, repeat in schedule
        for _ in range(repeat)
    ]
