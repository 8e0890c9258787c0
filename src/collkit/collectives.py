"""Flat all-gather and reduce-scatter algorithms over one communicator.

All buffers are float32 arrays; payload sizes on the wire are element
counts times four bytes. Ring variants run in p-1 steps and work for any
group size; the recursive variants run in log2(p) steps and require a
power-of-two group.

Data path: each hop copies its bytes once. A collective's first send is
the one copy of the caller's data; after that, ring all-gather forwards
the payload it received, and the reduce-scatters send the partial sums
they just computed, which nothing writes again. No payload is ever a view
of the caller's input or of the returned output, since a peer may still
be reading it after this rank returns (see :mod:`collkit.transport.base`).
"""
from __future__ import annotations

import enum

import numpy as np

from .errors import LengthMismatch, NonPowerOfTwo, NotDivisible
from .transport.base import Communicator


class ReduceOp(enum.Enum):
    SUM = "sum"


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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


def reduce_inplace(
    acc: np.ndarray, other: np.ndarray, op: ReduceOp = ReduceOp.SUM, out: np.ndarray | None = None
) -> np.ndarray:
    """Element-wise ``acc[i] + other[i]`` in one pass, written to ``out``
    (default: into ``acc``); returns the destination."""
    if acc.shape != other.shape:
        raise LengthMismatch(f"length mismatch: {acc.shape} vs {other.shape}")
    if op is not ReduceOp.SUM:
        raise ValueError(f"unsupported reduce op {op}")
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


def _gather_blocks(buf, p: int, r: int, out) -> tuple[np.ndarray, np.ndarray]:
    """The array whose row b receives block b of an all-gather, with this
    rank's block already in row r, and that block. ``out`` may be any
    (p, ...) view, strided ones included; ``None`` allocates a fresh one."""
    if out is None:
        src = as_elements(buf)
        blocks = np.empty((p, src.size), dtype=np.float32)
        blocks[r] = src
        return blocks, src
    src = np.asarray(buf, dtype=np.float32).reshape(out.shape[1:])
    mine = out[r]
    # The hierarchical intra phase passes row r itself as its input.
    if mine.__array_interface__ != src.__array_interface__:
        mine[...] = src
    return out, src


def ring_all_gather(comm: Communicator, buf, out: np.ndarray | None = None) -> np.ndarray:
    """All-gather where each rank forwards one block per step around the
    ring. Rank r sends to r+1 and receives from r-1 (mod p); at step s it
    forwards the block originated by rank (r - s) mod p, which is the
    payload it received at step s-1. Returns the rank-ordered
    concatenation of all contributions, or ``out`` (a (p, ...) array whose
    row b receives block b) when given.
    """
    p, r = comm.size, comm.rank
    blocks, src = _gather_blocks(buf, p, r, out)
    if p > 1:
        base = comm.next_base_tag()
        nxt, prv = (r + 1) % p, (r - 1) % p
        shape = blocks.shape[1:]
        payload = to_payload(src)
        for s in range(p - 1):
            comm.send(nxt, base + s, payload)
            payload = comm.recv(prv, base + s)
            blocks[(r - s - 1) % p] = from_payload(payload, src.size).reshape(shape)
    return blocks.reshape(-1) if out is None else out


def ring_reduce_scatter(comm: Communicator, buf) -> np.ndarray:
    """Reduce-scatter where the partial sum of each chunk travels once
    around the ring, gaining one local contribution per hop. Rank r ends
    with chunk r of the element-wise sum over all ranks' inputs."""
    p, r = comm.size, comm.rank
    chunks = _chunks(buf, p)
    if p == 1:
        return chunks[0].flatten()
    base = comm.next_base_tag()
    nxt, prv = (r + 1) % p, (r - 1) % p
    # Partial for chunk (r-1) starts here; after p-1 hops the partial for
    # chunk r arrives fully accumulated.
    payload = to_payload(chunks[(r - 1) % p])
    for s in range(1, p):
        comm.send(nxt, base + s - 1, payload)
        carry = _summed(chunks[(r - s - 1) % p], comm.recv(prv, base + s - 1))
        payload = as_payload(carry)
    return carry.reshape(-1)


def recdbl_all_gather(comm: Communicator, buf, out: np.ndarray | None = None) -> np.ndarray:
    """Recursive-doubling all-gather: at step k, rank r swaps its current
    2^k blocks with partner r XOR 2^k, doubling the gathered range. Same
    output contract as :func:`ring_all_gather`, log2(p) steps."""
    p, r = comm.size, comm.rank
    if not is_power_of_two(p):
        raise NonPowerOfTwo(f"recursive doubling requires power-of-two ranks, got {p}")
    blocks, _ = _gather_blocks(buf, p, r, out)
    if p > 1:
        base = comm.next_base_tag()
        for k in range(p.bit_length() - 1):
            width = 1 << k
            partner = r ^ width
            my_start = (r >> k) << k
            peer_start = (partner >> k) << k
            # The range sent lives in the returned output: always a copy.
            payload = to_payload(blocks[my_start : my_start + width])
            dst = blocks[peer_start : peer_start + width]
            data = from_payload(comm.sendrecv(partner, base + k, payload), dst.size)
            dst[...] = data.reshape(dst.shape)
    return blocks.reshape(-1) if out is None else out


def rechalf_reduce_scatter(comm: Communicator, buf) -> np.ndarray:
    """Recursive-halving reduce-scatter: at step k, rank r exchanges the
    half of its active region owned by partner r XOR 2^(log2(p)-1-k),
    folds the received partials into its own half, and halves the active
    region. Same output contract as :func:`ring_reduce_scatter`."""
    p, r = comm.size, comm.rank
    if not is_power_of_two(p):
        raise NonPowerOfTwo(f"recursive halving requires power-of-two ranks, got {p}")
    work = _chunks(buf, p)
    if p == 1:
        return work[0].flatten()
    base = comm.next_base_tag()
    # ``work`` holds chunks lo..hi-1: the caller's input at step 0, then
    # the partials this rank computed in the step before.
    lo, hi = 0, p
    k = 0
    while hi - lo > 1:
        half = (hi - lo) // 2
        mid = lo + half
        partner = r ^ half
        if r < mid:
            mine = (lo, mid)
            theirs = (mid, hi)
        else:
            mine = (mid, hi)
            theirs = (lo, mid)
        sent = work[theirs[0] - lo : theirs[1] - lo]
        payload = to_payload(sent) if k == 0 else as_payload(sent)
        data = comm.sendrecv(partner, base + k, payload)
        work = _summed(work[mine[0] - lo : mine[1] - lo], data)
        lo, hi = mine
        k += 1
    return work.reshape(-1)
