"""Socket transport: one endpoint per rank over TCP streams.

Rendezvous is a plain-text host file with one ``rank host port`` line per
rank; no rank coordinates membership. Frames are a 16-byte little-endian
header (u32 src, u32 dst, u32 tag, u32 payload_len) followed by the
payload; header and payload go out in one gathered send and are never
concatenated, and each payload is read straight into one buffer of its
final size. ``send`` writes its frame on the caller's thread, while one
reader thread per peer delivers that peer's frames, so two ranks can
write large blocks to each other at once.

Each endpoint sets up its mesh on the caller's thread: it dials every
lower rank, retrying until the connect timeout elapses, then accepts
every higher rank. A dial completes in the peer's listen backlog, so no
rank waits on another rank's accept. When any part of setup fails, the
endpoint closes what it opened and raises :class:`PeerUnreachable`.
"""
from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from dataclasses import dataclass

from ..errors import IndexOutOfRange, LengthMismatch, PeerUnreachable, Timeout, Unsupported
from .base import ChannelStore, Loan, check_payload, check_peer

FRAME_HEADER = struct.Struct("<IIII")
MAX_FRAME_PAYLOAD = (1 << 32) - 1
DEFAULT_CONNECT_TIMEOUT = 30.0


@dataclass(frozen=True)
class HostEntry:
    rank: int
    host: str
    port: int


def parse_host_file(path) -> list[HostEntry]:
    """Read ``rank host port`` lines; '#' starts a comment."""
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rank, host, port = line.split()
                entries.append(HostEntry(int(rank), host, int(port)))
            except ValueError:
                raise Unsupported(
                    f"{path}:{lineno}: expected 'rank host port', got {line!r}"
                ) from None
    entries.sort(key=lambda e: e.rank)
    if [e.rank for e in entries] != list(range(len(entries))):
        raise IndexOutOfRange(f"{path}: ranks must be exactly 0..{len(entries) - 1}")
    return entries


def frame_header(src: int, dst: int, tag: int, nbytes: int) -> bytes:
    """Header of one frame; a payload too long for the u32 length field
    is refused rather than split."""
    if nbytes > MAX_FRAME_PAYLOAD:
        raise LengthMismatch(
            f"payload of {nbytes} bytes exceeds the frame limit of {MAX_FRAME_PAYLOAD}"
        )
    return FRAME_HEADER.pack(src, dst, tag, nbytes)


def _read_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            k = sock.recv_into(view[got:])
            if not k:
                raise ConnectionError("peer closed the stream")
            got += k
    return buf


def _send_parts(sock: socket.socket, parts) -> None:
    """Write ``parts`` back to back with gathered sends."""
    views = [memoryview(part).cast("B") for part in parts]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


class SocketEndpoint:
    """The transport endpoint owned by one rank.

    ``recv_timeout`` (seconds, > 0) bounds how long a receive, and each
    write of a send, may block; ``None`` blocks indefinitely. A timed-out
    send cuts its frame, so it leaves the peer unreachable. Construction
    blocks until the full mesh to all peers is up; dialing a peer, and
    each accept with its rank read, give up after ``connect_timeout``.
    """

    def __init__(
        self,
        rank: int,
        hosts: list[HostEntry],
        *,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        recv_timeout: float | None = None,
        listener: socket.socket | None = None,
    ):
        if recv_timeout is not None and not 0 < recv_timeout <= threading.TIMEOUT_MAX:
            raise Unsupported(f"recv_timeout must be in (0, {threading.TIMEOUT_MAX}] s, got {recv_timeout}")
        self.rank = rank
        self.hosts = sorted(hosts, key=lambda e: e.rank)
        self.size = len(self.hosts)
        self.recv_timeout = recv_timeout
        self._cond = threading.Condition()
        self._send_lock = threading.Lock()
        self._store = ChannelStore()
        self._dead: set[int] = set()
        self._socks: dict[int, socket.socket] = {}

        self._listener = listener or socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if listener is None:
                listener = self._listener
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self.hosts[rank].host, self.hosts[rank].port))
                listener.listen(self.size)
            for peer in range(rank):
                self._register_peer(peer, self._dial(peer, connect_timeout))
            listener.settimeout(connect_timeout)
            for _ in range(rank + 1, self.size):
                sock, _addr = listener.accept()
                try:
                    sock.settimeout(connect_timeout)
                    peer = struct.unpack("<I", _read_exact(sock, 4))[0]
                except BaseException:
                    sock.close()
                    raise
                self._register_peer(peer, sock)
        except Exception as exc:
            self.close()
            raise PeerUnreachable(f"rank {rank}: mesh setup failed ({exc})") from exc

    def _dial(self, peer: int, timeout: float) -> socket.socket:
        entry = self.hosts[peer]
        deadline = time.monotonic() + timeout
        while True:
            try:
                sock = socket.create_connection((entry.host, entry.port), timeout=2.0)
                sock.sendall(struct.pack("<I", self.rank))
                return sock
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise PeerUnreachable(
                        f"rank {self.rank}: cannot reach rank {peer} at "
                        f"{entry.host}:{entry.port} ({exc})"
                    ) from exc
                time.sleep(0.05)

    def _register_peer(self, peer: int, sock: socket.socket) -> None:
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.recv_timeout is not None:  # >= 1 us, as 0 means no timeout
            secs_usecs = divmod(max(1, round(self.recv_timeout * 1e6)), 10**6)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack("ll", *secs_usecs))
        self._socks[peer] = sock  # only the constructor writes it, before any send
        threading.Thread(target=self._read_loop, args=(peer, sock), daemon=True).start()

    def _read_loop(self, peer: int, sock: socket.socket) -> None:
        try:
            while True:
                src, dst, tag, length = FRAME_HEADER.unpack(_read_exact(sock, 16))
                payload = _read_exact(sock, length) if length else b""
                if dst != self.rank:
                    raise ConnectionError(f"misrouted frame for rank {dst}")
                with self._cond:
                    self._store.put(src, dst, tag, payload)
                    self._cond.notify_all()
        except OSError:  # ConnectionError included
            self._mark_dead(peer)

    def _mark_dead(self, peer: int) -> None:
        with self._cond:
            self._dead.add(peer)
            self._cond.notify_all()

    def send(self, dst: int, tag: int, payload) -> None:
        """Return once the frame is all in the kernel, so a loan is never
        bound: a C-contiguous array is written in place, a strided one copied."""
        check_peer(self.rank, dst, self.size)
        check_payload(tag, payload)
        header = frame_header(self.rank, dst, tag, len(payload))
        if isinstance(payload, Loan):
            array = payload.array
            payload = array if array.flags.c_contiguous else array.tobytes()
        with self._cond:
            if dst in self._dead:
                raise PeerUnreachable(f"rank {dst} is unreachable")
        # Never under _cond: the readers take it to deliver frames, and a
        # blocked write must not stop them draining the peer's sends to us.
        with self._send_lock:
            try:
                _send_parts(self._socks[dst], (header, payload))
            except OSError as exc:
                self._mark_dead(dst)
                with contextlib.suppress(OSError):  # the peer reads EOF, not half a frame
                    self._socks[dst].shutdown(socket.SHUT_RDWR)
                if isinstance(exc, BlockingIOError):
                    raise Timeout(f"send to rank {dst} timed out after {self.recv_timeout}s") from exc
                raise PeerUnreachable(f"rank {dst} is unreachable ({exc})") from exc

    def recv(self, src: int, tag: int):
        check_peer(self.rank, src, self.size)
        deadline = (
            time.monotonic() + self.recv_timeout if self.recv_timeout is not None else None
        )
        with self._cond:
            while True:
                data = self._store.try_pop(src, self.rank, tag)
                if data is not None:
                    return data
                if src in self._dead:
                    raise PeerUnreachable(f"rank {src} is unreachable")
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise Timeout(
                            f"recv(src={src}, tag={tag}) timed out after "
                            f"{self.recv_timeout}s"
                        )
                    self._cond.wait(remaining)

    def close(self) -> None:
        """Shut every connection down; each send wrote its frame already."""
        for sock in self._socks.values():
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            sock.close()
        self._listener.close()


def local_listeners(count: int, host: str = "127.0.0.1"):
    """Bind ``count`` listeners on OS-assigned ports; returns (listeners,
    host entries). Lets tests and single-host runs avoid port collisions."""
    listeners = []
    entries = []
    for rank in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        sock.listen(count)
        listeners.append(sock)
        entries.append(HostEntry(rank, host, sock.getsockname()[1]))
    return listeners, entries


def connect_local_mesh(
    count: int, *, connect_timeout: float = 10.0, recv_timeout: float | None = None
) -> list[SocketEndpoint]:
    """Construct a fully meshed set of endpoints on localhost, one per rank.
    They are built from the highest rank down on the caller's thread: each
    rank dials lower ranks that are already listening, and accepts the
    dials of higher ranks that wait in its backlog."""
    listeners, entries = local_listeners(count)
    endpoints: list[SocketEndpoint] = []
    try:
        for rank in reversed(range(count)):
            endpoint = SocketEndpoint(
                rank, entries, connect_timeout=connect_timeout, recv_timeout=recv_timeout,
                listener=listeners[rank],
            )
            endpoints.insert(0, endpoint)
    except BaseException:
        for ep in endpoints:
            ep.close()
        for sock in listeners:
            sock.close()
        raise
    return endpoints
