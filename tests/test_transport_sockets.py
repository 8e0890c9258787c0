import math
import socket
import struct
import threading
import time

import numpy as np
import pytest

from collkit.collectives import ring_all_gather
from collkit.errors import (
    IndexOutOfRange,
    LengthMismatch,
    PeerUnreachable,
    SelfSend,
    Timeout,
    Unsupported,
)
from collkit.transport import Communicator
from collkit.transport.base import Loan
from collkit.transport.sockets import (
    FRAME_HEADER,
    MAX_FRAME_PAYLOAD,
    HostEntry,
    SocketEndpoint,
    _send_parts,
    connect_local_mesh,
    frame_header,
    local_listeners,
    parse_host_file,
)


@pytest.fixture
def mesh4():
    endpoints = connect_local_mesh(4, connect_timeout=10.0)
    yield endpoints
    for ep in endpoints:
        ep.close()


def on_ranks(endpoints, fn):
    results = [None] * len(endpoints)
    errors = []

    def run(rank):
        try:
            results[rank] = fn(Communicator(endpoints[rank], range(len(endpoints))))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(r,)) for r in range(len(endpoints))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


def test_host_file_round_trip(tmp_path):
    path = tmp_path / "hosts"
    entries = [HostEntry(r, "127.0.0.1", 9000 + r) for r in range(3)]
    path.write_text("".join(f"{e.rank} {e.host} {e.port}\n" for e in reversed(entries)))
    assert parse_host_file(path) == entries


def test_host_file_rejects_rank_gaps(tmp_path):
    path = tmp_path / "hosts"
    path.write_text("0 127.0.0.1 9000\n2 127.0.0.1 9002\n")
    with pytest.raises(IndexOutOfRange):
        parse_host_file(path)


def test_failed_setup_closes_what_it_opened():
    """Rank 2 of 3 reaches rank 0 but not rank 1, which is not listening.
    Its constructor raises PeerUnreachable and leaves no connection thread
    running and its listener closed."""
    listeners, entries = local_listeners(3)
    listeners[1].close()
    before = threading.active_count()
    try:
        with pytest.raises(PeerUnreachable):
            SocketEndpoint(2, entries, connect_timeout=0.3, listener=listeners[2])
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert listeners[2].fileno() == -1
    finally:
        for sock in listeners:
            sock.close()


def test_port_in_use_is_peer_unreachable():
    listeners, entries = local_listeners(1)
    try:
        with pytest.raises(PeerUnreachable, match="in use"):
            SocketEndpoint(0, entries, connect_timeout=0.3)
    finally:
        listeners[0].close()


def test_frame_header_is_16_byte_little_endian():
    frame = FRAME_HEADER.pack(1, 2, 7, 12)
    assert len(frame) == 16
    assert struct.unpack("<IIII", frame) == (1, 2, 7, 12)


class FakeHugePayload:
    """Reports a length of 4 GiB without holding any bytes."""

    def __len__(self):
        return 1 << 32


def test_frame_length_limit_is_a_length_mismatch():
    assert MAX_FRAME_PAYLOAD == (1 << 32) - 1
    assert frame_header(1, 2, 7, MAX_FRAME_PAYLOAD - 3) == FRAME_HEADER.pack(
        1, 2, 7, MAX_FRAME_PAYLOAD - 3
    )
    with pytest.raises(LengthMismatch):
        frame_header(1, 2, 7, 1 << 32)


def test_send_refuses_payload_past_frame_limit(mesh4):
    with pytest.raises(LengthMismatch):
        mesh4[0].send(1, 3, FakeHugePayload())


class TrickleSocket:
    """Accepts at most 5 bytes per gathered send."""

    def __init__(self):
        self.data = bytearray()

    def sendmsg(self, buffers):
        chunk = b"".join(bytes(b) for b in buffers)[:5]
        self.data += chunk
        return len(chunk)


def test_partial_gathered_sends_resume_where_they_stopped():
    sock = TrickleSocket()
    header = frame_header(0, 1, 2, 12)
    payload = memoryview(np.arange(3, dtype=np.float32)).cast("B")
    _send_parts(sock, (header, payload))
    assert bytes(sock.data) == header + payload.tobytes()


def test_memoryview_payloads_round_trip(mesh4):
    data = np.arange(1 << 16, dtype=np.float32)

    def fn(comm):
        if comm.rank == 0:
            comm.send(1, 5, memoryview(data).cast("B"))
            comm.send(1, 5, b"")
        elif comm.rank == 1:
            return np.frombuffer(comm.recv(0, 5), np.float32), comm.recv(0, 5)

    got, empty = on_ranks(mesh4, fn)[1]
    assert np.array_equal(got, data)
    assert len(empty) == 0


def test_loan_is_copied_at_send_and_released_at_once(mesh4):
    """A strided loan and a C-contiguous one: each reads released once
    ``send`` returns, and overwriting it then does not reach the receiver."""
    grid = np.arange(4 * 3 * 5, dtype=np.float32).reshape(4, 3, 5)
    flat = np.arange(1 << 18, dtype=np.float32)
    want = [grid[:, 1, :].reshape(-1), flat.copy()]

    def fn(comm):
        if comm.rank == 0:
            loans = [Loan(grid[:, 1, :]), Loan(flat)]
            for tag, loan in enumerate(loans):
                comm.send(1, tag, loan)
                loan.array[...] = -1
            return [loan.released for loan in loans]
        if comm.rank == 1:
            return [np.frombuffer(comm.recv(0, tag), np.float32) for tag in range(2)]

    released, got = on_ranks(mesh4, fn)[:2]
    assert released == [True, True]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_round_trip_and_fifo(mesh4):
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, 3, b"AAAA")
            comm.send(1, 3, b"BBBB")
        elif comm.rank == 1:
            return comm.recv(0, 3), comm.recv(0, 3)

    results = on_ranks(mesh4, fn)
    assert results[1] == (b"AAAA", b"BBBB")


def test_sendrecv_and_barrier(mesh4):
    def fn(comm):
        comm.send(comm.rank ^ 1, 5, bytes([comm.rank] * 4))
        got = comm.recv(comm.rank ^ 1, 5)
        comm.barrier()
        return got

    results = on_ranks(mesh4, fn)
    for rank, got in enumerate(results):
        assert got == bytes([rank ^ 1] * 4)


def test_two_ranks_write_large_blocks_to_each_other_at_once():
    """Each rank sends more than the kernel buffers hold before it
    receives; the readers keep draining while both sends block."""
    endpoints = connect_local_mesh(2, connect_timeout=10.0)
    blocks = [np.full(1 << 20, r, dtype=np.float32) for r in range(2)]

    def fn(comm):
        for tag in range(8):
            comm.send(comm.rank ^ 1, tag, Loan(blocks[comm.rank]))
        return [np.frombuffer(comm.recv(comm.rank ^ 1, tag), np.float32) for tag in range(8)]

    try:
        results = on_ranks(endpoints, fn)
    finally:
        for ep in endpoints:
            ep.close()
    for rank, got in enumerate(results):
        assert got is not None and all(np.array_equal(g, blocks[rank ^ 1]) for g in got)


def test_collective_over_sockets(mesh4):
    inputs = [np.arange(6, dtype=np.float32) * (r + 1) for r in range(4)]
    outs = on_ranks(mesh4, lambda c: ring_all_gather(c, inputs[c.rank]))
    want = np.concatenate(inputs)
    assert all(np.array_equal(o, want) for o in outs)


def test_self_send_rejected(mesh4):
    with pytest.raises(SelfSend):
        mesh4[0].send(0, 0, b"")


def test_peer_crash_raises_unreachable():
    endpoints = connect_local_mesh(2, connect_timeout=10.0)
    try:
        endpoints[1].close()
        # Sends raise it too, never a raw BrokenPipeError or ConnectionResetError.
        deadline = time.monotonic() + 5.0
        with pytest.raises(PeerUnreachable):
            while time.monotonic() < deadline:
                endpoints[0].send(1, 0, bytes(1 << 16))
        with pytest.raises(PeerUnreachable):
            endpoints[0].recv(1, 0)
    finally:
        endpoints[0].close()


def test_send_to_a_peer_that_never_reads_times_out_then_is_unreachable():
    """Rank 0 accepts rank 1's dial and never reads. With ``recv_timeout``
    set, rank 1's send raises Timeout, the next send PeerUnreachable, and
    close returns at once."""
    listeners, entries = local_listeners(2)
    try:
        endpoint = SocketEndpoint(
            1, entries, connect_timeout=5.0, recv_timeout=0.3, listener=listeners[1]
        )
        stalled, _addr = listeners[0].accept()
        block = Loan(np.zeros(1 << 20, dtype=np.float32))
        start = time.monotonic()
        with pytest.raises(Timeout):
            for tag in range(64):
                endpoint.send(0, tag, block)
        assert time.monotonic() - start < 5.0
        with pytest.raises(PeerUnreachable):
            endpoint.send(0, 64, block)
        start = time.monotonic()
        endpoint.close()
        assert time.monotonic() - start < 1.0
        stalled.close()
    finally:
        for sock in listeners:
            sock.close()


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_recv_timeout_that_is_not_finite_and_positive_is_refused(monkeypatch, value):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened before recv_timeout was checked")

    monkeypatch.setattr(socket, "socket", no_socket)
    with pytest.raises(Unsupported):
        SocketEndpoint(0, [HostEntry(0, "127.0.0.1", 0)], recv_timeout=value)


def test_mesh_of_8_runs_one_reader_thread_per_peer_and_none_after_close():
    before = set(threading.enumerate())
    endpoints = connect_local_mesh(8, connect_timeout=10.0)
    try:
        started = set(threading.enumerate()) - before
        assert len(started) == 8 * 7
    finally:
        for ep in endpoints:
            ep.close()
    deadline = time.monotonic() + 5.0
    while any(t.is_alive() for t in started) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() <= len(before)


def test_close_delivers_every_frame_sent():
    endpoints = connect_local_mesh(2, connect_timeout=10.0)
    try:
        chunk = bytes(1 << 16)
        for tag in range(64):
            endpoints[0].send(1, tag, chunk)
        endpoints[0].close()
        assert [len(endpoints[1].recv(0, tag)) for tag in range(64)] == [len(chunk)] * 64
    finally:
        for ep in endpoints:
            ep.close()


def test_recv_timeout():
    endpoints = connect_local_mesh(2, connect_timeout=10.0, recv_timeout=0.2)
    try:
        with pytest.raises(Timeout):
            endpoints[0].recv(1, 42)
    finally:
        for ep in endpoints:
            ep.close()
