"""Flat all-gather and reduce-scatter algorithms over one communicator.

All buffers are float32 arrays; payload sizes on the wire are element
counts times four bytes. Ring variants run in p-1 steps and work for any
group size; the recursive variants run in log2(p) steps and require a
power-of-two group.

Each algorithm is written once, as a schedule of :class:`Step` objects
over a p-rank group (:data:`SCHEDULES`). Two executors run a schedule
against a communicator, one for all-gather and one for reduce-scatter;
:func:`collkit.simnet.build_schedule` prices the very same steps.

Data path: each hop copies its bytes once. A collective's first send is
the one copy of the caller's data; after that, an all-gather forwards the
payload it received whenever it sends that range on, and a reduce-scatter
sends the partial sums it computed on the step before, which nothing
writes again. No payload is ever a view of the caller's input or of the
returned output, since a peer may still be reading it after this rank
returns (see :mod:`collkit.transport.base`).
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from .errors import LengthMismatch, NonPowerOfTwo, NotDivisible, Unsupported

if TYPE_CHECKING:
    from .transport.base import Communicator


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Step(NamedTuple):
    """One synchronous step over a p-rank group. Group rank r sends the
    ``width`` blocks starting at block ``first(r)`` to ``to[r]``, and
    receives from ``frm[r]`` (the inverse of ``to``) the blocks that rank
    sends. All-gather blocks are the ranks' contributions; reduce-scatter
    blocks are the chunks of the input, sent as partial sums."""

    to: tuple[int, ...]
    frm: tuple[int, ...]
    width: int
    first: Callable[[int], int]


def _ring(p: int, lag: int) -> Iterator[Step]:
    """Rank r sends to r+1; at step s it sends block r-s-lag (mod p)."""
    to = tuple((r + 1) % p for r in range(p))
    frm = tuple((r - 1) % p for r in range(p))
    for s in range(p - 1):
        yield Step(to, frm, 1, lambda r, d=s + lag: (r - d) % p)


def _xor(p: int, doubling: bool) -> Iterator[Step]:
    """Rank r swaps ``w`` blocks with partner r XOR w: for w = 1, 2, 4...
    the aligned range holding its own block (doubling), for w = p/2...1
    the range holding its partner's (halving)."""
    widths = [1 << k for k in range(p.bit_length() - 1)]
    for w in widths if doubling else reversed(widths):
        to = tuple(r ^ w for r in range(p))
        yield Step(to, to, w, lambda r, w=w, flip=0 if doubling else w: (r ^ flip) & -w)


# The one table of flat algorithms: (collective, algorithm) -> the steps
# of that algorithm over a p-rank group.
SCHEDULES: dict[tuple[str, str], Callable[[int], Iterator[Step]]] = {
    ("all_gather", "ring"): lambda p: _ring(p, lag=0),
    ("reduce_scatter", "ring"): lambda p: _ring(p, lag=1),
    ("all_gather", "recursive"): lambda p: _xor(p, doubling=True),
    ("reduce_scatter", "recursive"): lambda p: _xor(p, doubling=False),
}


def schedule(collective: str, algorithm: str, p: int) -> Iterator[Step]:
    """The steps of one flat algorithm over ``p`` ranks, generated lazily;
    raises before the first step for shapes the algorithm refuses."""
    make = SCHEDULES.get((collective, algorithm))
    if make is None:
        raise Unsupported(f"no flat schedule for {collective}/{algorithm}")
    if algorithm == "recursive" and not is_power_of_two(p):
        raise NonPowerOfTwo(f"recursive algorithms require power-of-two ranks, got {p}")
    return make(p)


@functools.lru_cache(maxsize=64)
def _steps(collective: str, algorithm: str, p: int) -> tuple[Step, ...]:
    """:func:`schedule`, kept for the executors, which run the same few
    group sizes over and over."""
    return tuple(schedule(collective, algorithm, p))


def as_elements(buf) -> np.ndarray:
    """View/convert input as a contiguous 1-D float32 array."""
    arr = np.ascontiguousarray(buf, dtype=np.float32)
    return arr.reshape(-1)


def to_payload(arr: np.ndarray) -> bytes:
    """A private copy of ``arr`` in C order (strided views included)."""
    return arr.tobytes()


def as_payload(arr: np.ndarray) -> memoryview:
    """Zero-copy payload over a C-contiguous array that nothing writes
    again; the receiver reads the sender's memory directly."""
    return memoryview(arr.reshape(-1)).cast("B")


def from_payload(data, expected_elems: int | None = None) -> np.ndarray:
    arr = np.frombuffer(data, dtype=np.float32)
    if expected_elems is not None and arr.size != expected_elems:
        raise LengthMismatch(
            f"received {arr.size} elements, expected {expected_elems}"
        )
    return arr


def reduce_inplace(acc: np.ndarray, other: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``acc[i] + other[i]`` in one pass, written to ``out``
    (default: into ``acc``); returns the destination."""
    if acc.shape != other.shape:
        raise LengthMismatch(f"length mismatch: {acc.shape} vs {other.shape}")
    return np.add(acc, other, out=acc if out is None else out)


def _summed(acc: np.ndarray, data) -> np.ndarray:
    """``acc`` plus a received payload of the same shape, in a new array."""
    other = from_payload(data, acc.size).reshape(acc.shape)
    return reduce_inplace(acc, other, out=np.empty(acc.shape, dtype=np.float32))


def _chunks(buf, p: int) -> np.ndarray:
    """Reduce-scatter input as an array whose row j is chunk j. An array
    whose leading axis already has length p is used as given, so a strided
    view (the hierarchical intra phase) is read without a copy; anything
    else is flattened and split into p equal chunks."""
    arr = np.asarray(buf, dtype=np.float32)
    if arr.ndim >= 2 and arr.shape[0] == p:
        return arr
    arr = arr.reshape(-1)
    if arr.size % p != 0:
        raise NotDivisible(f"input of {arr.size} elements not divisible by p={p}")
    return arr.reshape(p, arr.size // p)


def _gather_blocks(buf, p: int, r: int, out) -> np.ndarray:
    """The array whose row b receives block b of an all-gather, with this
    rank's block already in row r. ``out`` may be any (p, ...) view,
    strided ones included; ``None`` allocates a fresh one."""
    if out is None:
        src = as_elements(buf)
        blocks = np.empty((p, src.size), dtype=np.float32)
        blocks[r] = src
        return blocks
    src = np.asarray(buf, dtype=np.float32).reshape(out.shape[1:])
    mine = out[r]
    # The hierarchical intra phase passes row r itself as its input.
    if mine.__array_interface__ != src.__array_interface__:
        mine[...] = src
    return out


def all_gather(comm: Communicator, algorithm: str, buf, out: np.ndarray | None = None) -> np.ndarray:
    """Run the all-gather schedule of ``algorithm``. Returns the
    rank-ordered concatenation of all contributions, or ``out`` (a
    (p, ...) array whose row b receives block b) when given."""
    p, r = comm.size, comm.rank
    steps = _steps("all_gather", algorithm, p)
    blocks = _gather_blocks(buf, p, r, out)
    if steps:
        base = comm.next_base_tag(len(steps))
        got, payload = None, None  # the range received on the last step
        for s, (to, frm, w, first) in enumerate(steps):
            lo = first(r)
            if got != (lo, w):
                # The range sent lives in the returned output: copy it.
                payload = to_payload(blocks[lo : lo + w])
            comm.send(to[r], base + s, payload)
            payload = comm.recv(frm[r], base + s)
            got = (first(frm[r]), w)
            dst = blocks[got[0] : got[0] + w]
            dst[...] = from_payload(payload, dst.size).reshape(dst.shape)
    return blocks.reshape(-1) if out is None else out


def reduce_scatter(comm: Communicator, algorithm: str, buf) -> np.ndarray:
    """Run the reduce-scatter schedule of ``algorithm``. Rank r ends with
    chunk r of the element-wise sum over all ranks' inputs."""
    p, r = comm.size, comm.rank
    steps = _steps("reduce_scatter", algorithm, p)
    chunks = _chunks(buf, p)
    if not steps:
        return chunks[0].flatten()
    base = comm.next_base_tag(len(steps))
    # ``part`` holds the partials of chunks at..at+len(part)-1 computed on
    # the last step; every other chunk is still this rank's own input.
    part, at = chunks[:0], 0

    def rows(lo: int, w: int) -> tuple[np.ndarray, bool]:
        """This rank's value of chunks lo..lo+w-1, and whether it is a
        partial of the last step rather than the caller's input."""
        if at <= lo and lo + w <= at + len(part):
            return part[lo - at : lo - at + w], True
        return chunks[lo : lo + w], False

    for s, (to, frm, w, first) in enumerate(steps):
        sent, fresh = rows(first(r), w)
        comm.send(to[r], base + s, as_payload(sent) if fresh else to_payload(sent))
        lo = first(frm[r])
        part, at = _summed(rows(lo, w)[0], comm.recv(frm[r], base + s)), lo
    return part.reshape(-1)


def ring_all_gather(comm: Communicator, buf, out: np.ndarray | None = None) -> np.ndarray:
    """All-gather where each rank forwards one block per step around the
    ring: at step s rank r sends the block of rank r-s to r+1."""
    return all_gather(comm, "ring", buf, out)


def recdbl_all_gather(comm: Communicator, buf, out: np.ndarray | None = None) -> np.ndarray:
    """Recursive-doubling all-gather: at step k, rank r swaps its current
    2^k blocks with partner r XOR 2^k, doubling the gathered range."""
    return all_gather(comm, "recursive", buf, out)


def ring_reduce_scatter(comm: Communicator, buf) -> np.ndarray:
    """Reduce-scatter where the partial sum of each chunk travels once
    around the ring, gaining one local contribution per hop."""
    return reduce_scatter(comm, "ring", buf)


def rechalf_reduce_scatter(comm: Communicator, buf) -> np.ndarray:
    """Recursive-halving reduce-scatter: at step k, rank r sends partner
    r XOR 2^(log2(p)-1-k) the half of its active range that the partner
    keeps, and folds the partner's partials into its own half."""
    return reduce_scatter(comm, "recursive", buf)
