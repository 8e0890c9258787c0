"""Shared point-to-point machinery used by every transport backend.

Matching is exact on (source rank, tag) with FIFO delivery per
(src, dst, tag) channel; there are no wildcard receives.

Payload ownership contract: a payload is any bytes-like object whose
``len()`` is its byte count (``bytes``, or ``memoryview(arr).cast("B")``),
and that length must be a multiple of 4 (whole 32-bit elements). Backends
may hand the very object sent to the receiver without copying it, so the
sender never writes a payload after ``send``, and the receiver only reads
what ``recv`` returns. In particular a collective never sends a view of a
buffer its caller can see (the input, or the output it returns): a peer
may still be reading that view after this rank has returned.
"""
from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass

from ..errors import LengthMismatch, SelfSend, Unsupported

# Tag namespace layout. Each communicator owns a tag range derived from its
# id; each collective invocation on a communicator draws a fresh base tag
# and uses base + s for its step s. Fits in an unsigned 32-bit wire field.
STEP_TAGS_PER_COLLECTIVE = 1 << 13
COLLECTIVE_TAGS_PER_COMM = 1 << 26
MAX_COMM_ID = (1 << 32) // COLLECTIVE_TAGS_PER_COMM - 1


def check_payload(src: int, dst: int, tag: int, payload) -> None:
    if dst == src:
        raise SelfSend(f"rank {src} cannot send to itself")
    if tag < 0:
        raise ValueError(f"tag must be >= 0, got {tag}")
    if len(payload) % 4 != 0:
        raise LengthMismatch(
            f"payload length {len(payload)} is not a multiple of 4"
        )


@dataclass
class LogRecord:
    src: int
    dst: int
    tag: int
    nbytes: int


class MessageLog:
    """Thread-safe record of every send that passed through a transport."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: list[LogRecord] = []

    def add(self, src: int, dst: int, tag: int, nbytes: int) -> None:
        with self._lock:
            self.records.append(LogRecord(src, dst, tag, nbytes))

    def clear(self) -> None:
        with self._lock:
            self.records.clear()


class ChannelStore:
    """FIFO queues keyed by (src, dst, tag), with an in-flight high-water
    mark per channel. Callers provide their own locking."""

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int, int], deque[bytes]] = defaultdict(deque)
        self._high_water: dict[tuple[int, int, int], int] = defaultdict(int)

    def put(self, src: int, dst: int, tag: int, payload: bytes) -> None:
        key = (src, dst, tag)
        q = self._queues[key]
        q.append(payload)
        if len(q) > self._high_water[key]:
            self._high_water[key] = len(q)

    def has(self, src: int, dst: int, tag: int) -> bool:
        q = self._queues.get((src, dst, tag))
        return bool(q)

    def try_pop(self, src: int, dst: int, tag: int) -> bytes | None:
        q = self._queues.get((src, dst, tag))
        if q:
            return q.popleft()
        return None

    def max_in_flight(self) -> int:
        return max(self._high_water.values(), default=0)


class Communicator:
    """An ordered group of ranks sharing a transport endpoint.

    Peers are addressed by their position in ``members`` (the group rank);
    the underlying endpoint is addressed with world ranks. One communicator
    object belongs to exactly one rank and must only be used by that rank.
    """

    def __init__(self, endpoint, members, comm_id: int = 0):
        self.endpoint = endpoint
        self.members = tuple(members)
        if not 0 <= comm_id <= MAX_COMM_ID:
            raise ValueError(f"comm_id {comm_id} out of range")
        self.comm_id = comm_id
        try:
            self.rank = self.members.index(endpoint.rank)
        except ValueError:
            raise IndexError(
                f"rank {endpoint.rank} is not a member of {self.members}"
            ) from None
        self._next_seq = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def next_base_tag(self, steps: int = 1) -> int:
        """Fresh tag block for one collective invocation of ``steps``
        steps. All members call collectives in the same order, so the
        per-communicator sequence numbers agree across ranks without
        coordination. A collective with more steps than a block holds is
        refused before the block is drawn."""
        if steps > STEP_TAGS_PER_COLLECTIVE:
            raise Unsupported(
                f"{steps} steps exceed the {STEP_TAGS_PER_COLLECTIVE} tags of one collective"
            )
        seq = self._next_seq
        self._next_seq += 1
        seq %= COLLECTIVE_TAGS_PER_COMM // STEP_TAGS_PER_COLLECTIVE
        return self.comm_id * COLLECTIVE_TAGS_PER_COMM + seq * STEP_TAGS_PER_COLLECTIVE

    def send(self, dst: int, tag: int, payload) -> None:
        self.endpoint.send(self.members[dst], tag, payload)

    def recv(self, src: int, tag: int):
        return self.endpoint.recv(self.members[src], tag)

    def sendrecv(self, peer: int, tag: int, payload):
        """Exchange payloads with one peer without deadlock regardless of
        the peer's send/recv ordering (sends never block on the receiver)."""
        if peer == self.rank:
            raise SelfSend(f"rank {self.rank} cannot exchange with itself")
        self.send(peer, tag, payload)
        return self.recv(peer, tag)

    def barrier(self) -> None:
        """Dissemination barrier: no rank returns before every rank entered."""
        base = self.next_base_tag()
        p = self.size
        k = 0
        dist = 1
        while dist < p:
            to = (self.rank + dist) % p
            frm = (self.rank - dist) % p
            self.send(to, base + k, b"")
            self.recv(frm, base + k)
            dist <<= 1
            k += 1

    def subgroup(self, members, comm_id: int) -> "Communicator | None":
        """Communicator over a subset of world ranks, or ``None`` if this
        rank is not a member. All members must pass identical arguments."""
        members = tuple(members)
        if self.endpoint.rank not in members:
            return None
        return Communicator(self.endpoint, members, comm_id)
