import struct
import threading
import time

import numpy as np
import pytest

from collkit.collectives import ring_all_gather
from collkit.errors import IndexOutOfRange, LengthMismatch, PeerUnreachable, SelfSend, Timeout
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
    grid = np.arange(4 * 3 * 5, dtype=np.float32).reshape(4, 3, 5)
    want = grid[:, 1, :].copy()

    def fn(comm):
        if comm.rank == 0:
            loan = Loan(grid[:, 1, :])
            comm.send(1, 7, loan)
            grid[...] = -1
            return loan.released
        if comm.rank == 1:
            return np.frombuffer(comm.recv(0, 7), np.float32)

    released, got = on_ranks(mesh4, fn)[:2]
    assert released
    assert np.array_equal(got, want.reshape(-1))


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
        with pytest.raises(PeerUnreachable):
            endpoints[0].recv(1, 0)
    finally:
        endpoints[0].close()


def test_close_delivers_the_frames_already_queued():
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
