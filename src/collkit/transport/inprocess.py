"""In-process transport: every rank is a thread, messages cross a shared
queue structure, time is wall-clock. This is the reference backend that the
correctness tests and the oracle verification run against.
"""
from __future__ import annotations

import threading
import time

from ..errors import IndexOutOfRange, PeerUnreachable, Timeout, Unsupported
from .base import ChannelStore, Communicator, Loan, check_payload, check_peer

# Loans under this many bytes are sent as a private copy: below it, waiting
# for the release cost more than copying (1.25x per call at 4 KiB, p=2).
EAGER_BYTES = 1 << 16


class InProcessTransport:
    """Routing state shared by all rank endpoints of one communicator world."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise Unsupported(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        self._store = ChannelStore()
        # One condition per rank over a shared lock: a send wakes only the
        # rank it is addressed to, not every waiting rank.
        self._lock = threading.Lock()
        self._conds = [threading.Condition(self._lock) for _ in range(num_ranks)]
        self.abort_reason: str | None = None

    def endpoint(self, rank: int) -> "InProcessEndpoint":
        if not 0 <= rank < self.num_ranks:
            raise IndexOutOfRange(f"rank {rank} not in [0, {self.num_ranks})")
        return InProcessEndpoint(self, rank)

    def abort(self, reason: str) -> None:
        """Wake every rank waiting in ``recv`` or ``Loan.wait``, and make
        every such wait from now on raise :class:`PeerUnreachable`."""
        with self._lock:
            if self.abort_reason is None:
                self.abort_reason = reason
            for cond in self._conds:
                cond.notify_all()

    def max_in_flight(self) -> int:
        with self._lock:
            return self._store.max_in_flight()

    # endpoint plumbing

    def _send(self, src: int, dst: int, tag: int, payload) -> None:
        check_peer(src, dst, self.num_ranks)
        check_payload(tag, payload)
        if isinstance(payload, Loan):
            if len(payload) < EAGER_BYTES:
                payload = Loan(payload.array.copy())  # never bound, so released
            else:
                payload.bind(self, self._conds[src])
        with self._lock:
            self._store.put(src, dst, tag, payload)
            self._conds[dst].notify_all()

    def _recv(self, dst: int, src: int, tag: int):
        check_peer(dst, src, self.num_ranks)
        cond = self._conds[dst]
        with self._lock:
            while True:
                data = self._store.try_pop(src, dst, tag)
                if data is not None:
                    return data
                if self.abort_reason is not None:
                    raise PeerUnreachable(
                        f"rank {dst} waited on rank {src}, tag {tag}: {self.abort_reason}"
                    )
                cond.wait()


class InProcessEndpoint:
    def __init__(self, transport: InProcessTransport, rank: int):
        self.transport = transport
        self.rank = rank

    def send(self, dst: int, tag: int, payload) -> None:
        self.transport._send(self.rank, dst, tag, payload)

    def recv(self, src: int, tag: int):
        return self.transport._recv(self.rank, src, tag)


# Ranks still running this long after they started are taken to be deadlocked.
RANKS_TIMEOUT_S = 120.0


def run_ranks(num_ranks, fn, *, transport: InProcessTransport | None = None) -> list:
    """Run ``fn(comm)`` once per rank on concurrent threads over a world
    communicator and return the per-rank results in rank order.

    When a rank raises, the transport is aborted: every rank waiting in
    ``recv``, or about to wait, gets :class:`PeerUnreachable`, so all
    threads end and are joined. The caller then gets the error of the
    lowest rank that failed on its own. Ranks still running after
    :data:`RANKS_TIMEOUT_S` are aborted the same way, and :class:`Timeout`
    is raised.
    """
    transport = transport or InProcessTransport(num_ranks)
    results: list = [None] * num_ranks
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        comm = Communicator(transport.endpoint(rank), range(num_ranks))
        try:
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append((rank, exc))
            transport.abort(f"rank {rank} failed: {exc!r}")

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"collkit-rank-{r}", daemon=True)
        for r in range(num_ranks)
    ]
    for t in threads:
        t.start()
    timeout = RANKS_TIMEOUT_S
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    if any(t.is_alive() for t in threads):
        transport.abort(f"ranks did not finish within {timeout} s")
        raise Timeout(f"ranks did not finish within {timeout} s (possible deadlock)")
    if errors:
        # A rank woken by the abort fails with PeerUnreachable; report the
        # failure that caused it.
        errors.sort(key=lambda e: (isinstance(e[1], PeerUnreachable), e[0]))
        raise errors[0][1]
    return results
