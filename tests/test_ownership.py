"""Payload ownership on the in-process data path: ring all-gather forwards
the payload it received, no payload is a view of the caller's input or of
the returned output, and a rank that overwrites both right after a call
cannot corrupt what its peers receive."""
import functools

import numpy as np
import pytest

from collkit import collectives
from collkit.bench.oracles import expected_all_gather, expected_reduce_scatter
from collkit.hierarchy import HierPlan, hier_all_gather, hier_reduce_scatter
from collkit.topology import Topology
from collkit.transport import Communicator
from collkit.transport.inprocess import run_ranks

P = 4
BLOCK = 6
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


def test_ring_all_gather_forwards_the_received_payload():
    inputs = _inputs("all_gather", seed=1)
    for ep, _ in _recorded(collectives.ring_all_gather, inputs):
        assert len(ep.sent) == len(ep.received) == P - 1
        for s in range(1, P - 1):
            assert ep.sent[s][1] is ep.received[s - 1][1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_payload_is_a_view_of_input_or_output(name):
    collective, fn = CASES[name]
    inputs = _inputs(collective, seed=2)
    for rank, (ep, out) in enumerate(_recorded(fn, inputs)):
        assert ep.sent
        for _tag, payload in ep.sent:
            raw = np.frombuffer(payload, dtype=np.uint8)
            assert not np.shares_memory(raw, inputs[rank])
            assert not np.shares_memory(raw, out)


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
