import struct
import sys
import threading
import time

import numpy as np
import pytest

from collkit.errors import (
    IndexOutOfRange,
    LengthMismatch,
    PeerUnreachable,
    SelfSend,
    Timeout,
    Unsupported,
)
from collkit.transport import InProcessTransport
from collkit.transport import inprocess
from collkit.transport.base import Loan
from collkit.transport.inprocess import EAGER_BYTES, run_ranks


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

    check_payload(3, b"abcd")
    with pytest.raises(LengthMismatch):
        check_payload(0, b"abc")
    with pytest.raises(IndexOutOfRange):
        check_payload(-1, b"")


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


def exchange(comm, peer, tag, payload):
    """Send to and receive from one peer; sends never block on the receiver."""
    comm.send(peer, tag, payload)
    return comm.recv(peer, tag)


def test_sendrecv_exchange():
    def fn(comm):
        out = bytes([comm.rank + 1] * 4)
        return exchange(comm, 1 - comm.rank, 9, out)

    results = run_ranks(2, fn)
    assert results[0] == bytes([2] * 4)
    assert results[1] == bytes([1] * 4)


def test_sendrecv_empty_payloads():
    results = run_ranks(2, lambda comm: exchange(comm, 1 - comm.rank, 2, b""))
    assert results == [b"", b""]


def test_sendrecv_disjoint_pairs_complete():
    def fn(comm):
        peer = comm.rank ^ 1
        return exchange(comm, peer, 4, bytes([comm.rank] * 4))

    results = run_ranks(4, fn)
    for rank, got in enumerate(results):
        assert got == bytes([rank ^ 1] * 4)


def test_sendrecv_with_self_rejected():
    with pytest.raises(SelfSend):
        run_ranks(1, lambda comm: exchange(comm, 0, 0, b""))


def _rank_threads():
    return [t for t in threading.enumerate() if t.name.startswith("collkit-rank-")]


def test_rank_error_reaches_caller_while_peer_blocks():
    """Rank 1 fails while rank 0 waits in ``recv`` for a message rank 1
    will never send; the caller still gets rank 1's error, at once, and
    the woken rank 0 fails with ``PeerUnreachable`` instead of hanging."""
    woken = []

    def fn(comm):
        if comm.rank == 1:
            time.sleep(0.05)  # let rank 0 block first
            raise ValueError("boom")
        try:
            comm.recv(1, 0)
        except PeerUnreachable as exc:
            woken.append(exc)
            raise

    start = time.monotonic()
    with pytest.raises(ValueError, match="boom"):
        run_ranks(2, fn)
    assert time.monotonic() - start < 0.5
    assert len(woken) == 1 and "rank 1 failed" in str(woken[0])
    assert _rank_threads() == []


@pytest.mark.parametrize("nbytes", [4, EAGER_BYTES - 4, EAGER_BYTES])
def test_loans_under_the_eager_limit_are_copied_at_send(nbytes):
    """Rank 0 overwrites its array after ``send``; rank 1 reads the loan
    only after that, so it sees the original values only if it got a
    copy."""
    data = np.arange(nbytes // 4, dtype=np.float32)

    def fn(comm):
        if comm.rank == 0:
            loan = Loan(data.copy())
            comm.send(1, 0, loan)
            eager = loan.released
            loan.array[...] = -1
            comm.send(1, 1, b"")
            return eager
        comm.recv(0, 1)
        got = comm.recv(0, 0)
        values = got.array.copy()
        got.release()
        return values

    eager, values = run_ranks(2, fn)
    assert eager == (nbytes < EAGER_BYTES)
    assert np.array_equal(values, data if eager else np.full_like(data, -1))


def test_receiver_failing_while_it_holds_a_loan_unblocks_the_sender():
    """Rank 1 takes rank 0's loan and fails without releasing it; rank 0,
    waiting for the release, is woken with ``PeerUnreachable`` at once and
    the caller gets rank 1's error."""
    times = {}

    def fn(comm):
        if comm.rank == 1:
            assert not comm.recv(0, 0).released
            time.sleep(0.05)  # let rank 0 wait on the loan first
            times["raised"] = time.monotonic()
            raise ValueError("boom")
        loan = Loan(np.zeros(EAGER_BYTES // 4, dtype=np.float32))
        comm.send(1, 0, loan)
        try:
            loan.wait()
        except PeerUnreachable:
            times["woken"] = time.monotonic()
            raise

    with pytest.raises(ValueError, match="boom"):
        run_ranks(2, fn)
    assert times["woken"] - times["raised"] < 0.1
    assert _rank_threads() == []


def test_recv_after_a_rank_failed_raises_instead_of_waiting():
    def fn(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        time.sleep(0.05)  # rank 0 has failed by now
        comm.recv(0, 0)

    with pytest.raises(ValueError, match="boom"):
        run_ranks(2, fn)
    assert _rank_threads() == []


def test_deadlocked_ranks_time_out_and_are_released(monkeypatch):
    monkeypatch.setattr(inprocess, "RANKS_TIMEOUT_S", 0.1)
    with pytest.raises(Timeout):
        run_ranks(2, lambda comm: comm.recv(1 - comm.rank, 0))
    for t in _rank_threads():
        t.join(1.0)
    assert _rank_threads() == []


def test_a_rank_stuck_outside_the_transport_times_out_at_the_backstop(monkeypatch):
    # Rank 0 waits in recv while rank 1 blocks where the transport cannot
    # see it, so no deadlock is detected; RANKS_TIMEOUT_S still ends the run.
    monkeypatch.setattr(inprocess, "RANKS_TIMEOUT_S", 0.2)
    stuck = threading.Event()

    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, 0)
        else:
            stuck.wait(5.0)

    with pytest.raises(Timeout, match="did not finish within 0.2 s") as info:
        run_ranks(2, fn)
    assert info.match(": rank 1 still running, blocked outside the transport")
    stuck.set()
    for t in _rank_threads():
        t.join(1.0)
    assert _rank_threads() == []


def _timed_out(fn):
    """The ``Timeout`` that ``run_ranks(2, fn)`` raises, checked to come
    within 1 s and to leave no rank thread behind."""
    start = time.monotonic()
    with pytest.raises(Timeout) as info:
        run_ranks(2, fn)
    assert time.monotonic() - start < 1.0
    assert _rank_threads() == []
    return str(info.value)


def test_ranks_that_all_recv_first_are_a_deadlock_at_once():
    text = _timed_out(lambda comm: comm.recv(1 - comm.rank, 3 + comm.rank))
    assert "rank 0 waits in recv(src=1, tag=3)" in text
    assert "rank 1 waits in recv(src=0, tag=4)" in text


def test_a_rank_returning_while_its_peer_waits_on_it_is_a_deadlock():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, 5)
        else:
            time.sleep(0.05)  # let rank 0 park first

    assert "rank 0 waits in recv(src=1, tag=5)" in _timed_out(fn)


def test_a_loan_its_receiver_returns_without_releasing_is_a_deadlock():
    def fn(comm):
        if comm.rank == 0:
            loan = Loan(np.zeros(EAGER_BYTES // 4, dtype=np.float32))
            comm.send(1, 0, loan)
            loan.wait()
        else:
            comm.recv(0, 0)
            time.sleep(0.05)  # let rank 0 park first

    assert "rank 0 waits for rank 1 to release a loan" in _timed_out(fn)


def test_messages_match_on_tag_and_keep_fifo_order_within_one():
    def fn(comm):
        if comm.rank == 0:
            for tag, payload in ((1, b"one."), (2, b"two1"), (2, b"two2")):
                comm.send(1, tag, payload)
        else:
            return [comm.recv(0, tag) for tag in (2, 1, 2)]

    assert run_ranks(2, fn)[1] == [b"two1", b"one.", b"two2"]


def test_zero_ranks_is_refused():
    with pytest.raises(Unsupported):
        InProcessTransport(0)


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


def test_store_drops_drained_channels_and_keeps_high_water():
    from collkit.collectives import ring_all_gather, ring_reduce_scatter
    import numpy as np

    t = InProcessTransport(4)

    def fn(c):
        for _ in range(20):
            ring_all_gather(c, np.ones(8, np.float32))
            ring_reduce_scatter(c, np.ones(8, np.float32))
        c.barrier()

    run_ranks(4, fn, transport=t)
    assert t._store._queues == {}
    assert 1 <= t.max_in_flight() <= 2

    for payload in (b"aaaa", b"bbbb", b"cccc"):
        t.endpoint(0).send(1, 7, payload)
    assert t.max_in_flight() == 3
    assert [t.endpoint(1).recv(0, 7) for _ in range(3)] == [b"aaaa", b"bbbb", b"cccc"]
    assert t._store._queues == {}
    assert t.max_in_flight() == 3


def test_communicator_refuses_bad_comm_id_and_non_member():
    from collkit.transport.base import MAX_COMM_ID, Communicator

    ep = InProcessTransport(4).endpoint(2)
    for comm_id in (-1, MAX_COMM_ID + 1):
        with pytest.raises(IndexOutOfRange):
            Communicator(ep, range(4), comm_id)
    with pytest.raises(IndexOutOfRange):
        Communicator(ep, (0, 1))
    assert Communicator(ep, (1, 2), MAX_COMM_ID).rank == 1


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


def test_loans_lose_no_release_under_contention():
    # More rank threads than CPUs and a short switch interval: a release
    # that woke the wrong rank, or none, would leave a sender in ``wait``;
    # a ``wait`` that returned early would let its sender overwrite the
    # array while a receiver still reads it.
    p, rounds = 8, 30
    t = InProcessTransport(p)
    torn = []

    def rank_main(r):
        ep = t.endpoint(r)
        arr = np.empty(EAGER_BYTES // 4, dtype=np.float32)
        for k in range(rounds):
            arr[...] = r * rounds + k
            loans = []
            for d in range(p):
                if d != r:
                    loans.append(Loan(arr))
                    ep.send(d, k, loans[-1])
            for src in reversed(range(p)):
                if src != r:
                    loan = ep.recv(src, k)
                    if not np.all(loan.array == src * rounds + k):
                        torn.append((r, src, k))
                    loan.release()
            for loan in loans:
                loan.wait()

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
    assert torn == []


def test_collectives_under_contention_are_never_taken_for_a_deadlock():
    # More rank threads than CPUs and a short switch interval, with blocks
    # that are lent: a rank counted as parked after it was woken, or a
    # lost wake-up, would abort the run with ``Timeout``.
    from collkit import collectives
    from collkit.bench.oracles import expected_all_gather, expected_reduce_scatter

    p, n, rounds = 8, EAGER_BYTES // 4, 4
    ag = [np.arange(n, dtype=np.float32) + r for r in range(p)]
    rs = [np.arange(p * n, dtype=np.float32) * (r + 1) for r in range(p)]

    def fn(comm):
        outs = []
        for _ in range(rounds):
            for alg in ("ring", "recursive"):
                outs.append(collectives.all_gather(comm, alg, ag[comm.rank]))
                outs.append(collectives.reduce_scatter(comm, alg, rs[comm.rank]))
        return outs

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_ranks(p, fn)
    finally:
        sys.setswitchinterval(old)
    want_ag, want_rs = expected_all_gather(ag), expected_reduce_scatter(rs)
    for r, outs in enumerate(results):
        for k, out in enumerate(outs):
            assert np.array_equal(out, want_ag if k % 2 == 0 else want_rs[r]), (r, k)
