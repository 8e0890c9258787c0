"""Payload ownership on the in-process data path: every send lends a
:class:`Loan` that is released before its collective returns, an
all-gather lends its returned output itself (the one copy per hop is the
receiver's), and a rank that overwrites its input and output right after
a call cannot corrupt what its peers receive."""
import functools

import numpy as np
import pytest

from collkit import collectives
from collkit.bench.oracles import expected_all_gather, expected_reduce_scatter
from collkit.hierarchy import HierPlan, hier_all_gather, hier_reduce_scatter
from collkit.topology import Topology
from collkit.transport import Communicator
from collkit.transport.base import Loan
from collkit.transport.inprocess import EAGER_BYTES, run_ranks

P = 4
BLOCK = EAGER_BYTES // 4  # so that every send lends instead of copying
TOPO = Topology(2, 2, 1)


class RecordingEndpoint:
    """Endpoint proxy that keeps every payload object sent and received."""

    def __init__(self, inner):
        self.inner = inner
        self.rank = inner.rank
        self.sent: list[tuple[int, object]] = []
        self.received: list[tuple[int, object]] = []

    def send(self, dst, tag, payload):
        self.sent.append((tag, payload))
        self.inner.send(dst, tag, payload)

    def recv(self, src, tag):
        data = self.inner.recv(src, tag)
        self.received.append((tag, data))
        return data


def _hier(fn, inter):
    return functools.partial(fn, HierPlan(topo=TOPO, inter_alg=inter))


CASES = {
    "ring_all_gather": ("all_gather", collectives.ring_all_gather),
    "recdbl_all_gather": ("all_gather", collectives.recdbl_all_gather),
    "ring_reduce_scatter": ("reduce_scatter", collectives.ring_reduce_scatter),
    "rechalf_reduce_scatter": ("reduce_scatter", collectives.rechalf_reduce_scatter),
    "hier_all_gather_ring": ("all_gather", _hier(hier_all_gather, "ring")),
    "hier_all_gather_recursive": ("all_gather", _hier(hier_all_gather, "recursive")),
    "hier_reduce_scatter_ring": ("reduce_scatter", _hier(hier_reduce_scatter, "ring")),
    "hier_reduce_scatter_recursive": ("reduce_scatter", _hier(hier_reduce_scatter, "recursive")),
}


def _inputs(collective, seed):
    rng = np.random.default_rng(seed)
    size = BLOCK if collective == "all_gather" else BLOCK * P
    return [rng.integers(-1024, 1025, size=size).astype(np.float32) for _ in range(P)]


def _expected(collective, inputs):
    if collective == "all_gather":
        return [expected_all_gather(inputs)] * P
    return expected_reduce_scatter(inputs)


def _recorded(fn, inputs):
    """Run ``fn`` once per rank over recording endpoints; returns the
    per-rank (endpoint, output)."""

    def rank_main(comm):
        ep = RecordingEndpoint(comm.endpoint)
        out = fn(Communicator(ep, comm.members), inputs[comm.rank])
        return ep, out

    return run_ranks(P, rank_main)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_loan_is_released_when_its_collective_returns(name):
    collective, fn = CASES[name]
    inputs = _inputs(collective, seed=2)

    def rank_main(comm):
        ep = RecordingEndpoint(comm.endpoint)
        fn(Communicator(ep, comm.members), inputs[comm.rank])
        return [payload.released for _tag, payload in ep.sent]

    for released in run_ranks(P, rank_main):
        assert released and all(released)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_send_lends_and_all_gather_lends_its_output(name):
    collective, fn = CASES[name]
    inputs = _inputs(collective, seed=3)
    recorded = _recorded(fn, inputs)
    sent = [payload for ep, _ in recorded for _tag, payload in ep.sent]
    received = [payload for ep, _ in recorded for _tag, payload in ep.received]
    # Each receiver got the very loan its sender made, not a copy of it.
    assert sent and sorted(map(id, sent)) == sorted(map(id, received))
    for ep, out in recorded:
        for _tag, payload in ep.sent:
            assert isinstance(payload, Loan)
            if collective == "all_gather":
                assert np.shares_memory(payload.array, out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_overwriting_input_and_output_after_return_leaves_peers_exact(name):
    collective, fn = CASES[name]
    calls = 8
    cases = [_inputs(collective, seed=10 + c) for c in range(calls)]
    wants = [_expected(collective, inputs) for inputs in cases]

    def rank_main(comm):
        outs = []
        for inputs, want in zip(cases, wants):
            buf = inputs[comm.rank].copy()
            out = fn(comm, buf)
            if comm.rank == 0:
                assert np.array_equal(out, want[0])
                out[...] = np.nan
                buf[...] = np.nan
            else:
                outs.append(out)
        return outs

    results = run_ranks(P, rank_main)
    for rank in range(1, P):
        for c in range(calls):
            assert np.array_equal(results[rank][c], wants[c][rank])
