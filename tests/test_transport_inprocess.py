import struct
import sys
import threading
import time

import pytest

from collkit.errors import LengthMismatch, SelfSend
from collkit.transport import InProcessTransport
from collkit.transport.inprocess import run_ranks


def test_loopback_round_trip():
    t = InProcessTransport(2)
    payload = bytes(range(8))

    def fn(comm):
        if comm.rank == 0:
            comm.send(1, 7, payload)
        else:
            return comm.recv(0, 7)

    results = run_ranks(2, fn, transport=t)
    assert results[1] == payload


def test_fifo_per_channel():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, 3, b"AAAA")
            comm.send(1, 3, b"BBBB")
        else:
            first = comm.recv(0, 3)
            second = comm.recv(0, 3)
            return first, second

    results = run_ranks(2, fn)
    assert results[1] == (b"AAAA", b"BBBB")


def test_self_send_rejected():
    t = InProcessTransport(2)
    ep = t.endpoint(0)
    with pytest.raises(SelfSend):
        ep.send(0, 0, b"")


def test_payload_must_be_whole_elements():
    t = InProcessTransport(2)
    with pytest.raises(LengthMismatch):
        t.endpoint(0).send(1, 0, b"abc")


def test_message_invariants():
    from collkit.transport.base import check_payload

    check_payload(0, 1, 3, b"abcd")
    with pytest.raises(LengthMismatch):
        check_payload(0, 1, 0, b"abc")
    with pytest.raises(ValueError):
        check_payload(0, 1, -1, b"")


def test_recv_posted_before_send():
    t = InProcessTransport(2)
    got = []

    def receiver():
        got.append(t.endpoint(1).recv(0, 5))

    th = threading.Thread(target=receiver)
    th.start()
    time.sleep(0.05)
    t.endpoint(0).send(1, 5, b"late")
    th.join(timeout=5)
    assert got == [b"late"]


def test_sendrecv_exchange():
    def fn(comm):
        out = bytes([comm.rank + 1] * 4)
        return comm.sendrecv(1 - comm.rank, 9, out)

    results = run_ranks(2, fn)
    assert results[0] == bytes([2] * 4)
    assert results[1] == bytes([1] * 4)


def test_sendrecv_empty_payloads():
    results = run_ranks(2, lambda comm: comm.sendrecv(1 - comm.rank, 2, b""))
    assert results == [b"", b""]


def test_sendrecv_disjoint_pairs_complete():
    def fn(comm):
        peer = comm.rank ^ 1
        return comm.sendrecv(peer, 4, bytes([comm.rank] * 4))

    results = run_ranks(4, fn)
    for rank, got in enumerate(results):
        assert got == bytes([rank ^ 1] * 4)


def test_sendrecv_with_self_rejected():
    with pytest.raises(SelfSend):
        run_ranks(1, lambda comm: comm.sendrecv(0, 0, b""))


def test_barrier_single_rank_returns():
    run_ranks(1, lambda comm: comm.barrier())


def test_barrier_waits_for_slowest():
    release_times = [0.0] * 4

    def fn(comm):
        if comm.rank == 3:
            time.sleep(0.1)
        comm.barrier()
        release_times[comm.rank] = time.monotonic()

    start = time.monotonic()
    run_ranks(4, fn)
    assert all(t - start >= 0.09 for t in release_times)


def test_repeated_barriers_do_not_interfere():
    def fn(comm):
        for _ in range(5):
            comm.barrier()

    run_ranks(4, fn)


def test_bounded_in_flight_during_collective():
    from collkit.collectives import ring_all_gather
    import numpy as np

    t = InProcessTransport(4)
    inputs = [np.arange(8, dtype=np.float32) + r for r in range(4)]
    run_ranks(4, lambda c: ring_all_gather(c, inputs[c.rank]), transport=t)
    assert t.max_in_flight() <= 2


def test_per_rank_wakeups_lose_no_message_under_contention():
    # More rank threads than CPUs and a short switch interval: a send that
    # woke the wrong rank, or no rank, would leave a receiver blocked.
    p, rounds = 8, 60
    t = InProcessTransport(p)
    got = [[] for _ in range(p)]

    def rank_main(r):
        ep = t.endpoint(r)
        for k in range(rounds):
            for d in range(p):
                if d != r:
                    ep.send(d, k, struct.pack("<II", r, k))
            for src in reversed(range(p)):
                if src != r:
                    got[r].append(struct.unpack("<II", ep.recv(src, k)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rank_main, args=(r,), daemon=True) for r in range(p)]
        for th in threads:
            th.start()
        deadline = time.monotonic() + 30
        for th in threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for r in range(p):
        want = [(src, k) for k in range(rounds) for src in reversed(range(p)) if src != r]
        assert got[r] == want
