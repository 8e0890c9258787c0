"""In-process transport: every rank is a thread, messages cross a shared
queue structure, time is wall-clock. This is the reference backend that the
correctness tests and the oracle verification run against.
"""
from __future__ import annotations

import threading
import time

from ..errors import IndexOutOfRange
from .base import ChannelStore, Communicator, MessageLog, check_payload


class InProcessTransport:
    """Routing state shared by all rank endpoints of one communicator world."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self._store = ChannelStore()
        # One condition per rank over a shared lock: a send wakes only the
        # rank it is addressed to, not every waiting rank.
        self._lock = threading.Lock()
        self._conds = [threading.Condition(self._lock) for _ in range(num_ranks)]
        self.log: MessageLog | None = None

    def start_logging(self) -> MessageLog:
        self.log = MessageLog()
        return self.log

    def endpoint(self, rank: int) -> "InProcessEndpoint":
        if not 0 <= rank < self.num_ranks:
            raise IndexOutOfRange(f"rank {rank} not in [0, {self.num_ranks})")
        return InProcessEndpoint(self, rank)

    def max_in_flight(self) -> int:
        with self._lock:
            return self._store.max_in_flight()

    # endpoint plumbing

    def _send(self, src: int, dst: int, tag: int, payload) -> None:
        check_payload(src, dst, tag, payload)
        if not 0 <= dst < self.num_ranks:
            raise IndexOutOfRange(f"dst {dst} not in [0, {self.num_ranks})")
        if self.log is not None:
            self.log.add(src, dst, tag, len(payload))
        with self._lock:
            self._store.put(src, dst, tag, payload)
            self._conds[dst].notify_all()

    def _recv(self, dst: int, src: int, tag: int):
        cond = self._conds[dst]
        with self._lock:
            while True:
                data = self._store.try_pop(src, dst, tag)
                if data is not None:
                    return data
                cond.wait()


class InProcessEndpoint:
    def __init__(self, transport: InProcessTransport, rank: int):
        self.transport = transport
        self.rank = rank

    def send(self, dst: int, tag: int, payload) -> None:
        self.transport._send(self.rank, dst, tag, payload)

    def recv(self, src: int, tag: int):
        return self.transport._recv(self.rank, src, tag)


def run_ranks(num_ranks, fn, *, transport: InProcessTransport | None = None) -> list:
    """Run ``fn(comm)`` once per rank on concurrent threads over a world
    communicator and return the per-rank results in rank order.

    The first exception raised by any rank is re-raised in the caller after
    all threads have been joined.
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

    threads = [
        threading.Thread(target=runner, args=(r,), daemon=True)
        for r in range(num_ranks)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 120.0
    while any(t.is_alive() for t in threads):
        if errors:
            # A failed rank strands its peers mid-collective; give them a
            # moment to fail on their own, then abandon the daemon threads.
            grace = time.monotonic() + 1.0
            while any(t.is_alive() for t in threads) and time.monotonic() < grace:
                time.sleep(0.01)
            break
        if time.monotonic() > deadline:
            raise RuntimeError("ranks did not finish (possible deadlock)")
        time.sleep(0.002)
    if errors:
        errors.sort(key=lambda e: e[0])
        raise errors[0][1]
    return results
