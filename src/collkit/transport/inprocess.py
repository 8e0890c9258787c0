"""In-process transport: every rank is a thread, messages cross a shared
queue structure, time is wall-clock. This is the reference backend that the
correctness tests and the oracle verification run against.

Each rank waits, in ``recv`` or ``Loan.wait``, by acquiring its own doorbell,
a lock created held; whoever wakes the rank releases the bell once.
"""
from __future__ import annotations

import threading
import time

from ..errors import IndexOutOfRange, PeerUnreachable, Timeout, Unsupported
from .base import ChannelStore, Communicator, Loan, check_payload, check_peer

# Loans under this many bytes are sent as a private copy: below it, lending
# costs more than copying (1.3x per call at 4 KiB, p=2 on one CPU; level at
# 64 KiB; 0.75x at 256 KiB).
EAGER_BYTES = 1 << 16


class InProcessTransport:
    """Routing state shared by all rank endpoints of one communicator world."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise Unsupported(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        self._store = ChannelStore()
        # ``_lock`` guards all state. ``_parked[r]`` is what parked rank r
        # waits for, a (src, tag) pair or a loan; who clears it rings r's bell.
        # Once every rank of ``_live`` (those run_ranks runs and that have
        # not returned) is parked, none can be woken: the run is a deadlock.
        self._lock = threading.Lock()
        self._bells = [threading.Lock() for _ in range(num_ranks)]
        for bell in self._bells:
            bell.acquire()
        self._parked: list = [None] * num_ranks
        self._live: set[int] = set()
        self.abort_reason: str | None = None
        self._deadlock: str | None = None

    def endpoint(self, rank: int) -> "InProcessEndpoint":
        if not 0 <= rank < self.num_ranks:
            raise IndexOutOfRange(f"rank {rank} not in [0, {self.num_ranks})")
        return InProcessEndpoint(self, rank)

    def abort(self, reason: str) -> None:
        """Wake every rank waiting in ``recv`` or ``Loan.wait``, and make
        every such wait from now on raise :class:`PeerUnreachable`."""
        with self._lock:
            self._abort(reason)

    def max_in_flight(self) -> int:
        with self._lock:
            return self._store.max_in_flight()

    def release_loan(self, loan: Loan) -> None:
        with self._lock:
            loan.released = True
            self._ring(loan.owner)

    def wait_loan(self, loan: Loan) -> None:
        with self._lock:
            while not loan.released:
                if self.abort_reason is not None:
                    raise PeerUnreachable(f"loan never released: {self.abort_reason}")
                self._park(loan.owner, loan)

    # The rest run with ``_lock`` held.

    def _abort(self, reason: str) -> None:
        if self.abort_reason is None:
            self.abort_reason = reason
        for rank in range(self.num_ranks):
            self._ring(rank)

    def _ring(self, rank: int) -> None:
        if self._parked[rank] is not None:
            self._parked[rank] = None
            self._bells[rank].release()

    def _park(self, rank: int, waits_for) -> None:
        self._parked[rank] = waits_for
        self._check_deadlock()
        self._lock.release()
        self._bells[rank].acquire()
        self._lock.acquire()

    def _check_deadlock(self) -> None:
        if self._live and None not in [self._parked[r] for r in self._live]:
            self._deadlock = "deadlock: " + "; ".join(
                f"rank {r} waits for rank {w.peer} to release a loan" if isinstance(w, Loan)
                else f"rank {r} waits in recv(src={w[0]}, tag={w[1]})"
                for r, w in enumerate(self._parked) if r in self._live
            )
            self._abort(self._deadlock)


class InProcessEndpoint:
    """Rank ``rank``'s end of a transport; one thread uses it at a time."""

    def __init__(self, transport: InProcessTransport, rank: int):
        self.transport = transport
        self.rank = rank
        self._peers = frozenset(range(transport.num_ranks)) - {rank}
        self._lock, self._parked = transport._lock, transport._parked
        self._put, self._pop = transport._store.put, transport._store.try_pop

    def send(self, dst: int, tag: int, payload) -> None:
        lent = isinstance(payload, Loan)
        nbytes = payload.array.nbytes if lent else len(payload)
        if dst not in self._peers or tag < 0 or nbytes % 4:
            check_peer(self.rank, dst, self.transport.num_ranks)
            check_payload(tag, payload)
        if lent:
            if nbytes < EAGER_BYTES:
                payload = Loan(payload.array.copy())  # never bound, so released
            else:
                payload.bind(self.transport, self.rank, dst)
        with self._lock:
            self._put(self.rank, dst, tag, payload)
            if self._parked[dst] is not None:
                self.transport._ring(dst)

    def recv(self, src: int, tag: int):
        if src not in self._peers:
            check_peer(self.rank, src, self.transport.num_ranks)
        with self._lock:
            while (data := self._pop(src, self.rank, tag)) is None:
                if (reason := self.transport.abort_reason) is not None:
                    raise PeerUnreachable(f"rank {self.rank} waited on rank {src}, tag {tag}: {reason}")
                self.transport._park(self.rank, (src, tag))
            return data


# Ranks still running this long after they started are taken to be stuck
# outside the transport, where deadlock detection cannot see them.
RANKS_TIMEOUT_S = 120.0


def run_ranks(num_ranks, fn, *, transport: InProcessTransport | None = None) -> list:
    """Run ``fn(comm)`` once per rank on concurrent threads over a world
    communicator and return the per-rank results in rank order.

    When a rank raises, the transport is aborted: every rank waiting in
    ``recv``, or about to wait, gets :class:`PeerUnreachable`, so all
    threads end and are joined. The caller then gets the error of the
    lowest rank that failed on its own. Once every rank not yet returned
    waits in the transport, it is aborted the same way at once and
    :class:`Timeout` names each wait; so it is for ranks still running
    after :data:`RANKS_TIMEOUT_S`, naming the ranks outside the transport.
    """
    transport = transport or InProcessTransport(num_ranks)
    results: list = [None] * num_ranks
    errors: list[tuple[int, BaseException]] = []
    with transport._lock:
        transport._live.update(range(num_ranks))

    def runner(rank: int) -> None:
        comm = Communicator(transport.endpoint(rank), range(num_ranks))
        try:
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append((rank, exc))
            transport.abort(f"rank {rank} failed: {exc!r}")
        finally:
            with transport._lock:
                transport._live.discard(rank)
                transport._check_deadlock()

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
        late = f"ranks did not finish within {timeout} s"
        with transport._lock:
            alive = [r for r, t in enumerate(threads) if t.is_alive()]
            stuck = [r for r in alive if transport._parked[r] is None] or alive
            transport._abort(late)
        raise Timeout(f"{late}: {', '.join(map('rank {}'.format, stuck))} still running, blocked outside the transport")
    if transport._deadlock is not None:
        raise Timeout(transport._deadlock)
    if errors:
        # A rank woken by the abort fails with PeerUnreachable; report the
        # failure that caused it.
        errors.sort(key=lambda e: (isinstance(e[1], PeerUnreachable), e[0]))
        raise errors[0][1]
    return results
