"""Flat all-gather and reduce-scatter algorithms over one communicator.

All buffers are float32 arrays; payload sizes on the wire are element
counts times four bytes. Ring variants run in p-1 steps and work for any
group size; the recursive variants run in log2(p) steps and require a
power-of-two group.

Each algorithm is written once, as a schedule over a p-rank group
(:data:`SCHEDULES`): a few :class:`Run` objects, each a run of identical
steps that send the same messages. A ring is one run of p-1 steps; a
recursive algorithm is log2(p) runs of one step each. Two executors run a
schedule against a communicator, one for all-gather and one for
reduce-scatter; :mod:`collkit.simnet` prices the very same runs, once per
run.

Data path: each hop copies its bytes at most once. Every send lends its
rows (an all-gather's output range, a reduce-scatter's input chunk or last
partial) as a :class:`~collkit.transport.base.Loan`, which the in-process
receiver reads in place from 64 KiB up: an all-gather copies it into its
output, a reduce-scatter adds it into a new partial and copies nothing. At
p=4 a rank copies 4 blocks per ring, recursive or 2x2 hierarchical
all-gather, its own included. Each collective waits for its loans to be
released before it returns, so its caller may then overwrite its buffers.
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import LengthMismatch, NonPowerOfTwo, NotDivisible, Unsupported
from .transport.base import Loan

if TYPE_CHECKING:
    from .transport.base import Communicator


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Run(NamedTuple):
    """``count`` synchronous steps over a p-rank group that send the same
    messages. At step i of the run, group rank r sends the ``width``
    blocks starting at block ``first(r, i)`` to ``to[r]``, and receives
    from ``frm[r]`` (the inverse of ``to``) the blocks that rank sends.
    All-gather blocks are the ranks' contributions; reduce-scatter blocks
    are the chunks of the input, sent as partial sums."""

    to: tuple[int, ...]
    frm: tuple[int, ...]
    width: int
    count: int
    first: Callable[[int, int], int]


def _ring(p: int, lag: int) -> tuple[Run, ...]:
    """Rank r sends to r+1; at step i it sends block r-i-lag (mod p)."""
    if p == 1:
        return ()
    to = (*range(1, p), 0)
    frm = (p - 1, *range(p - 1))
    return (Run(to, frm, 1, p - 1, lambda r, i: (r - i - lag) % p),)


def _xor(p: int, doubling: bool) -> tuple[Run, ...]:
    """Rank r swaps ``w`` blocks with partner r XOR w: for w = 1, 2, 4...
    the aligned range holding its own block (doubling), for w = p/2...1
    the range holding its partner's (halving). Each step is a run of one."""
    widths = [1 << k for k in range(p.bit_length() - 1)]
    ranks = np.arange(p)
    runs = []
    for w in widths if doubling else reversed(widths):
        to = tuple((ranks ^ w).tolist())
        flip = 0 if doubling else w
        runs.append(Run(to, to, w, 1, lambda r, i, w=w, flip=flip: (r ^ flip) & -w))
    return tuple(runs)


# The one table of flat algorithms: (collective, algorithm) -> the runs
# of that algorithm over a p-rank group.
SCHEDULES: dict[tuple[str, str], Callable[[int], tuple[Run, ...]]] = {
    ("all_gather", "ring"): lambda p: _ring(p, lag=0),
    ("reduce_scatter", "ring"): lambda p: _ring(p, lag=1),
    ("all_gather", "recursive"): lambda p: _xor(p, doubling=True),
    ("reduce_scatter", "recursive"): lambda p: _xor(p, doubling=False),
}


def schedule(collective: str, algorithm: str, p: int) -> tuple[Run, ...]:
    """The runs of one flat algorithm over ``p`` ranks; raises for shapes
    the algorithm refuses."""
    make = SCHEDULES.get((collective, algorithm))
    if make is None:
        raise Unsupported(f"no flat schedule for {collective}/{algorithm}")
    if algorithm == "recursive" and not is_power_of_two(p):
        raise NonPowerOfTwo(f"recursive algorithms require power-of-two ranks, got {p}")
    return make(p)


@functools.lru_cache(maxsize=64)
def _runs(collective: str, algorithm: str, p: int) -> tuple[Run, ...]:
    """:func:`schedule`, kept for the executors and the simulator, which
    run the same few group sizes over and over."""
    return schedule(collective, algorithm, p)


def as_elements(buf) -> np.ndarray:
    """View/convert input as a contiguous 1-D float32 array."""
    arr = np.ascontiguousarray(buf, dtype=np.float32)
    return arr.reshape(-1)


def reduce_inplace(acc: np.ndarray, other: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``acc[i] + other[i]`` in one pass, written to ``out``
    (default: into ``acc``); returns the destination."""
    if acc.shape != other.shape:
        raise LengthMismatch(f"length mismatch: {acc.shape} vs {other.shape}")
    return np.add(acc, other, out=acc if out is None else out)


@functools.lru_cache(maxsize=1024)
def _steps_of(collective: str, algorithm: str, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Group rank r's steps of one schedule, one ``(peer, source, send
    block, receive block, width)`` per step and tag: :func:`_runs`
    expanded, so that the executors unpack one tuple per step."""
    return tuple(
        (to[r], frm[r], first(r, i), first(frm[r], i), w)
        for to, frm, w, count, first in _runs(collective, algorithm, p)
        for i in range(count)
    )


def _borrow(recv, source: int, tag: int, shape) -> tuple[np.ndarray, Loan]:
    """Receive one payload as an array of ``shape``, and the loan to release
    once it is read. An in-process loan arrives in the shape it was sent
    in; bytes (from sockets) get a loan of their own."""
    loan = recv(source, tag)
    if not isinstance(loan, Loan):
        loan = Loan(np.frombuffer(loan, dtype=np.float32))
    elif loan.array.shape == shape:
        return loan.array, loan
    try:
        return loan.array.reshape(shape), loan
    except ValueError:
        raise LengthMismatch(f"received {loan.array.size} elements, expected {shape}") from None


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
    steps = _steps_of("all_gather", algorithm, p, r)
    blocks = _gather_blocks(buf, p, r, out)
    if steps:
        send, recv, world = comm.endpoint.send, comm.endpoint.recv, comm.members
        loans = []
        for tag, (peer, source, lo, got_lo, w) in enumerate(steps, comm.next_base_tag(len(steps))):
            loans.append(Loan(blocks[lo : lo + w]))
            send(world[peer], tag, loans[-1])
            dst = blocks[got_lo : got_lo + w]
            arr, got = _borrow(recv, world[source], tag, dst.shape)
            dst[...] = arr
            got.release()
        for loan in loans:
            loan.wait()
    return blocks.reshape(-1) if out is None else out


def reduce_scatter(comm: Communicator, algorithm: str, buf) -> np.ndarray:
    """Run the reduce-scatter schedule of ``algorithm``. Rank r ends with
    chunk r of the element-wise sum over all ranks' inputs."""
    p, r = comm.size, comm.rank
    steps = _steps_of("reduce_scatter", algorithm, p, r)
    chunks = _chunks(buf, p)
    if not steps:
        return chunks[0].flatten()
    send, recv, world = comm.endpoint.send, comm.endpoint.recv, comm.members
    # ``part`` holds the partials of chunks at..at+len(part)-1 computed on
    # the last step; every other chunk is still this rank's own input.
    part, at = chunks[:0], 0
    loans = []
    for tag, (peer, source, lo, got_lo, w) in enumerate(steps, comm.next_base_tag(len(steps))):
        k = lo - at
        loans.append(Loan(part[k : k + w] if 0 <= k <= len(part) - w else chunks[lo : lo + w]))
        send(world[peer], tag, loans[-1])
        k = got_lo - at
        mine = part[k : k + w] if 0 <= k <= len(part) - w else chunks[got_lo : got_lo + w]
        other, got = _borrow(recv, world[source], tag, mine.shape)
        part, at = reduce_inplace(mine, other, out=np.empty(mine.shape, dtype=np.float32)), got_lo
        got.release()
    for loan in loans:
        loan.wait()
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
