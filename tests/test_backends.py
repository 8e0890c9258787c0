"""A collective gives the same outputs on the in-process and socket
backends, and its in-process run prices exactly like the simulator's
schedule of it. Both backends refuse a bad peer the same way."""
import threading

import numpy as np
import pytest
from conftest import price_log, run_logged

from collkit.collectives import (
    rechalf_reduce_scatter,
    ring_all_gather,
    ring_reduce_scatter,
)
from collkit.errors import IndexOutOfRange, SelfSend
from collkit.simnet import SimConfig, simulate
from collkit.topology import Topology
from collkit.transport import Communicator, InProcessTransport, connect_local_mesh

SIM_NAMES = {
    ring_all_gather: ("all_gather", "ring"),
    rechalf_reduce_scatter: ("reduce_scatter", "recursive"),
    ring_reduce_scatter: ("reduce_scatter", "ring"),
}


def _inputs(p, n, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.integers(-1024, 1025, size=n).astype(np.float32) for _ in range(p)]


def _run_socket(p, fn):
    endpoints = connect_local_mesh(p, connect_timeout=10.0)
    results = [None] * p
    errors = []

    def run(rank):
        try:
            results[rank] = fn(Communicator(endpoints[rank], range(p)))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    for ep in endpoints:
        ep.close()
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize(
    "collective,n_per_rank",
    [(ring_all_gather, 6), (rechalf_reduce_scatter, 16), (ring_reduce_scatter, 8)],
)
def test_backend_equivalent_outputs(collective, n_per_rank):
    p = 4
    inputs = _inputs(p, n_per_rank)
    fn = lambda comm: collective(comm, inputs[comm.rank])  # noqa: E731
    inproc, log = run_logged(p, fn)
    sockets = _run_socket(p, fn)
    for r in range(p):
        assert np.array_equal(inproc[r], sockets[r])

    name, algorithm = SIM_NAMES[collective]
    block = n_per_rank if name == "all_gather" else n_per_rank // p
    config = SimConfig(Topology(p, 1, 1))
    seconds, counters, steps = price_log(config, log, name, algorithm)
    sim = simulate(config, name, algorithm, p * block * 4)
    assert seconds == sim.seconds > 0
    assert counters == sim.counters
    assert steps == len(sim.trace.steps)


@pytest.fixture(params=["inprocess", "socket"])
def endpoint0(request):
    """Rank 0 of a two-rank world on each backend."""
    if request.param == "inprocess":
        yield InProcessTransport(2).endpoint(0)
        return
    endpoints = connect_local_mesh(2, connect_timeout=10.0)
    yield endpoints[0]
    for ep in endpoints:
        ep.close()


@pytest.mark.parametrize("call", ["send", "recv"])
@pytest.mark.parametrize(
    "peer,error", [(-1, IndexOutOfRange), (2, IndexOutOfRange), (0, SelfSend)]
)
def test_bad_peer_is_refused_before_waiting(endpoint0, call, peer, error):
    args = (peer, 1, b"") if call == "send" else (peer, 1)
    raised = []

    def attempt():
        try:
            getattr(endpoint0, call)(*args)
        except BaseException as exc:  # noqa: BLE001 - checked below
            raised.append(exc)

    thread = threading.Thread(target=attempt, daemon=True)
    thread.start()
    thread.join(timeout=2.0)
    assert not thread.is_alive(), f"{call} with peer {peer} is still waiting"
    assert len(raised) == 1 and isinstance(raised[0], error), raised
