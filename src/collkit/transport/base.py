"""Shared point-to-point machinery used by every transport backend.

Matching is exact on (source rank, tag) with FIFO delivery per
(src, dst, tag) channel; there are no wildcard receives.

Payload ownership contract: a payload is a :class:`Loan` of a float32
array, or a bytes-like object whose ``len()`` (its byte count) is a
multiple of 4. A loan lends the sender's array: the receiver reads
``loan.array`` and then calls ``release()``, and the sender writes that
array again only after ``loan.wait()`` returns. A backend that lends it
calls ``loan.bind(transport, owner_rank, peer)`` in ``send``: ``release``
and ``wait`` then go through ``transport.release_loan``/``wait_loan``, and
only the sending rank ``owner_rank`` waits. A backend may instead be done
with the array when ``send`` returns, leaving the loan released: sockets
write it to the kernel (a strided array through a copy), and the
in-process backend copies it under ``EAGER_BYTES``. Nothing writes a
bytes payload after ``send``.

Bad peers are refused before anything is queued or waited on: ``send``
and ``recv`` with a peer outside the world raise :class:`IndexOutOfRange`,
and with the rank itself :class:`SelfSend`.
"""
from __future__ import annotations

from collections import deque

from ..errors import IndexOutOfRange, LengthMismatch, SelfSend, Unsupported

# Tag namespace layout. Each communicator owns a tag range derived from its
# id; each collective invocation on a communicator draws a fresh base tag
# and uses base + s for its step s. Fits in an unsigned 32-bit wire field.
STEP_TAGS_PER_COLLECTIVE = 1 << 13
COLLECTIVE_TAGS_PER_COMM = 1 << 26
MAX_COMM_ID = (1 << 32) // COLLECTIVE_TAGS_PER_COMM - 1


def check_peer(rank: int, peer: int, size: int) -> None:
    if not 0 <= peer < size:
        raise IndexOutOfRange(f"peer {peer} not in [0, {size})")
    if peer == rank:
        raise SelfSend(f"rank {rank} cannot exchange with itself")


def check_payload(tag: int, payload) -> None:
    if tag < 0:
        raise IndexOutOfRange(f"tag must be >= 0, got {tag}")
    if len(payload) % 4 != 0:
        raise LengthMismatch(
            f"payload length {len(payload)} is not a multiple of 4"
        )


class Loan:
    """A payload that lends ``array`` (float32, any strides). It reads
    released until a backend binds it from rank ``owner`` to ``peer``."""

    __slots__ = ("array", "released", "owner", "peer", "_transport")

    def __init__(self, array) -> None:
        self.array = array
        self.released = True

    def __len__(self) -> int:
        return self.array.nbytes

    def bind(self, transport, owner_rank: int, peer: int) -> None:
        self.released = False
        self._transport, self.owner, self.peer = transport, owner_rank, peer

    def release(self) -> None:
        """Called by the receiver once it has read ``array``."""
        if not self.released:
            self._transport.release_loan(self)

    def wait(self) -> None:
        """Block until the receiver has released the array; raises
        :class:`PeerUnreachable` once ``transport.abort`` was called."""
        if not self.released:
            self._transport.wait_loan(self)


class ChannelStore:
    """FIFO queues keyed by (src, dst, tag). A channel's queue exists only
    while it holds messages, so tags used once leave nothing behind. Keeps
    the most messages any one channel has held at once. Callers provide
    their own locking."""

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int, int], deque] = {}
        self._high_water = 0

    def put(self, src: int, dst: int, tag: int, payload) -> None:
        q = self._queues.setdefault((src, dst, tag), deque())
        q.append(payload)
        if len(q) > self._high_water:
            self._high_water = len(q)

    def try_pop(self, src: int, dst: int, tag: int):
        key = (src, dst, tag)
        q = self._queues.get(key)
        if q is None:
            return None
        payload = q.popleft()
        if not q:
            del self._queues[key]
        return payload

    def max_in_flight(self) -> int:
        return self._high_water


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
            raise IndexOutOfRange(f"comm_id {comm_id} not in [0, {MAX_COMM_ID}]")
        self.comm_id = comm_id
        try:
            self.rank = self.members.index(endpoint.rank)
        except ValueError:
            raise IndexOutOfRange(
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
