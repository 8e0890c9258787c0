import math

import numpy as np
import pytest
from conftest import run_logged

from collkit.collectives import (
    recdbl_all_gather,
    rechalf_reduce_scatter,
    reduce_inplace,
    ring_all_gather,
    ring_reduce_scatter,
)
from collkit.errors import LengthMismatch, NonPowerOfTwo, NotDivisible
from collkit.transport.base import COLLECTIVE_TAGS_PER_COMM, STEP_TAGS_PER_COLLECTIVE
from collkit.transport.inprocess import run_ranks


# Brute-force oracles, kept independent of the library code paths.

def oracle_all_gather(inputs):
    out = []
    for buf in inputs:
        out.extend(float(x) for x in buf)
    return np.array(out, dtype=np.float32)


def oracle_reduce_scatter(inputs):
    p = len(inputs)
    total = [0.0] * len(inputs[0])
    for buf in inputs:
        for i, x in enumerate(buf):
            total[i] += float(x)
    n = len(total) // p
    return [np.array(total[r * n : (r + 1) * n], dtype=np.float32) for r in range(p)]


def integer_inputs(p, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(-1024, 1025, size=n).astype(np.float32) for _ in range(p)]


def test_reduce_inplace_examples():
    acc = np.array([1.0, 2.0], dtype=np.float32)
    out = reduce_inplace(acc, np.array([3.0, 4.0], dtype=np.float32))
    assert out is acc
    assert np.array_equal(acc, [4.0, 6.0])

    x = np.arange(5, dtype=np.float32)
    assert np.array_equal(reduce_inplace(x.copy(), np.zeros(5, np.float32)), x)


def test_reduce_inplace_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(64).astype(np.float32)
    b = rng.standard_normal(64).astype(np.float32)
    want = np.array([float(a[i]) + float(b[i]) for i in range(64)], dtype=np.float32)
    assert np.array_equal(reduce_inplace(a.copy(), b), want)


def test_reduce_inplace_length_mismatch():
    with pytest.raises(LengthMismatch):
        reduce_inplace(np.zeros(3, np.float32), np.zeros(4, np.float32))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
def test_ring_all_gather_matches_oracle(p):
    inputs = integer_inputs(p, 12, seed=p)
    outs = run_ranks(p, lambda c: ring_all_gather(c, inputs[c.rank]))
    want = oracle_all_gather(inputs)
    for out in outs:
        assert out.dtype == np.float32
        assert np.array_equal(out, want)


def test_ring_all_gather_identity_at_p1():
    out = run_ranks(1, lambda c: ring_all_gather(c, np.array([5.0], np.float32)))
    assert np.array_equal(out[0], [5.0])


def test_ring_all_gather_rank_blocks():
    p = 4
    inputs = [np.array([r], dtype=np.float32) for r in range(p)]
    outs = run_ranks(p, lambda c: ring_all_gather(c, inputs[c.rank]))
    for out in outs:
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
def test_ring_reduce_scatter_matches_oracle(p):
    inputs = integer_inputs(p, 6 * p, seed=100 + p)
    outs = run_ranks(p, lambda c: ring_reduce_scatter(c, inputs[c.rank]))
    want = oracle_reduce_scatter(inputs)
    for r, out in enumerate(outs):
        assert np.array_equal(out, want[r])


def test_ring_reduce_scatter_examples():
    inputs = [np.array([1.0, 2.0], np.float32), np.array([3.0, 4.0], np.float32)]
    outs = run_ranks(2, lambda c: ring_reduce_scatter(c, inputs[c.rank]))
    assert np.array_equal(outs[0], [4.0])
    assert np.array_equal(outs[1], [6.0])

    inputs4 = [np.full(4, r, dtype=np.float32) for r in range(4)]
    outs4 = run_ranks(4, lambda c: ring_reduce_scatter(c, inputs4[c.rank]))
    for out in outs4:
        assert np.array_equal(out, [6.0])


def test_ring_reduce_scatter_not_divisible():
    with pytest.raises(NotDivisible):
        run_ranks(2, lambda c: ring_reduce_scatter(c, np.zeros(3, np.float32)))


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_recdbl_all_gather_matches_oracle(p):
    inputs = integer_inputs(p, 8, seed=200 + p)
    outs = run_ranks(p, lambda c: recdbl_all_gather(c, inputs[c.rank]))
    want = oracle_all_gather(inputs)
    for out in outs:
        assert np.array_equal(out, want)


@pytest.mark.parametrize("p", [3, 6])
def test_recursive_rejects_non_power_of_two(p):
    with pytest.raises(NonPowerOfTwo):
        run_ranks(p, lambda c: recdbl_all_gather(c, np.zeros(2, np.float32)))
    with pytest.raises(NonPowerOfTwo):
        run_ranks(p, lambda c: rechalf_reduce_scatter(c, np.zeros(2 * p, np.float32)))


def test_recdbl_equals_ring_output():
    p = 8
    inputs = integer_inputs(p, 16, seed=77)
    ring = run_ranks(p, lambda c: ring_all_gather(c, inputs[c.rank]))
    rec = run_ranks(p, lambda c: recdbl_all_gather(c, inputs[c.rank]))
    for a, b in zip(ring, rec):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_rechalf_reduce_scatter_matches_oracle(p):
    inputs = integer_inputs(p, 4 * p, seed=300 + p)
    outs = run_ranks(p, lambda c: rechalf_reduce_scatter(c, inputs[c.rank]))
    want = oracle_reduce_scatter(inputs)
    for r, out in enumerate(outs):
        assert np.array_equal(out, want[r])


def test_rechalf_two_rank_example():
    inputs = [np.array([1.0, 2.0], np.float32), np.array([3.0, 4.0], np.float32)]
    outs = run_ranks(2, lambda c: rechalf_reduce_scatter(c, inputs[c.rank]))
    assert np.array_equal(outs[0], [4.0])
    assert np.array_equal(outs[1], [6.0])


def test_random_float_payloads_within_tolerance():
    # Non-integer floats: summation order may differ from the oracle's.
    p = 8
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal(8 * p).astype(np.float32) for _ in range(p)]
    outs = run_ranks(p, lambda c: rechalf_reduce_scatter(c, inputs[c.rank]))
    want = oracle_reduce_scatter(inputs)
    for r, out in enumerate(outs):
        np.testing.assert_allclose(out, want[r], rtol=1e-5)


def test_length_mismatch_across_ranks_detected():
    sizes = [4, 2]
    with pytest.raises(LengthMismatch):
        run_ranks(2, lambda c: ring_all_gather(c, np.zeros(sizes[c.rank], np.float32)))


def test_duality_reduce_scatter_chunks_reassemble_to_sum():
    p = 4
    inputs = integer_inputs(p, 3 * p, seed=55)
    outs = run_ranks(p, lambda c: ring_reduce_scatter(c, inputs[c.rank]))
    reassembled = np.concatenate(outs)
    total = np.zeros(3 * p, dtype=np.float32)
    for buf in inputs:
        total += buf
    assert np.array_equal(reassembled, total)


def _count_sends(log, p, n_elems):
    per_rank_sends = {r: 0 for r in range(p)}
    per_rank_bytes = {r: 0 for r in range(p)}
    for rec in log:
        per_rank_sends[rec.src] += 1
        per_rank_bytes[rec.src] += rec.nbytes
    return per_rank_sends, per_rank_bytes


@pytest.mark.parametrize("p", [2, 4, 8])
def test_ring_step_count_and_bytes_on_wire(p):
    n = 8
    inputs = integer_inputs(p, n, seed=1)
    _, log = run_logged(p, lambda c: ring_all_gather(c, inputs[c.rank]))
    sends, nbytes = _count_sends(log, p, n)
    assert all(v == p - 1 for v in sends.values())
    assert all(v == (p - 1) * n * 4 for v in nbytes.values())


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_recursive_step_count_and_bytes_on_wire(p):
    n = 8
    inputs = integer_inputs(p, n, seed=2)
    _, log = run_logged(p, lambda c: recdbl_all_gather(c, inputs[c.rank]))
    sends, nbytes = _count_sends(log, p, n)
    assert all(v == int(math.log2(p)) for v in sends.values())
    # sum over steps of 2^k * n * 4 equals (p-1) * n * 4, same as ring
    assert all(v == (p - 1) * n * 4 for v in nbytes.values())


def test_tag_sequence_wraps_safely_past_one_full_cycle():
    """A communicator reuses its tag blocks after
    ``COLLECTIVE_TAGS_PER_COMM // STEP_TAGS_PER_COLLECTIVE`` collectives.
    Ranks cannot drift a whole cycle apart, since every collective waits
    on its peer, so a reused block never meets a stale message: each of
    more than a cycle of alternating ring all-gathers and reduce-scatters
    returns its exact output."""
    cycle = COLLECTIVE_TAGS_PER_COMM // STEP_TAGS_PER_COLLECTIVE
    calls = cycle + 8

    def fn(comm):
        r = comm.rank
        wrong = []
        for i in range(calls):
            if i % 2:
                # Rank r contributes i + r to chunk 0 and 2i + r to chunk 1.
                got = ring_reduce_scatter(comm, np.array([i + r, 2 * i + r], np.float32))
                want = np.array([4 * i + 1 if r else 2 * i + 1], np.float32)
            else:
                got = ring_all_gather(comm, np.array([i, r], np.float32))
                want = np.array([i, 0, i, 1], np.float32)
            if got.tobytes() != want.tobytes():
                wrong.append(i)
        return wrong, comm.next_base_tag()

    results = run_ranks(2, fn)
    assert [wrong for wrong, _ in results] == [[], []]
    # The next collective draws block ``calls % cycle``: the sequence wrapped.
    assert [tag for _, tag in results] == [calls % cycle * STEP_TAGS_PER_COLLECTIVE] * 2
