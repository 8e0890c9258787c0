"""Invariants of the flat step schedules, checked on the schedules alone
(no transport, no rank threads), and the refusals the executors make
before drawing a tag. A schedule is written as runs of identical steps;
the tests expand the runs into single steps and compare them with a
step-by-step oracle of each algorithm."""
from typing import Callable, Iterator, NamedTuple

import numpy as np
import pytest

from collkit import collectives
from collkit.collectives import SCHEDULES, schedule
from collkit.errors import CollkitError, NonPowerOfTwo, Unsupported
from collkit.transport.base import STEP_TAGS_PER_COLLECTIVE, Communicator

KEYS = sorted(SCHEDULES)


class Step(NamedTuple):
    """One synchronous step: group rank r sends the ``width`` blocks
    starting at block ``first(r)`` to ``to[r]`` and receives from
    ``frm[r]``."""

    to: tuple[int, ...]
    frm: tuple[int, ...]
    width: int
    first: Callable[[int], int]


def oracle_ring(p: int, lag: int) -> Iterator[Step]:
    """Rank r sends to r+1; at step s it sends block r-s-lag (mod p)."""
    to = tuple((r + 1) % p for r in range(p))
    frm = tuple((r - 1) % p for r in range(p))
    for s in range(p - 1):
        yield Step(to, frm, 1, lambda r, d=s + lag: (r - d) % p)


def oracle_xor(p: int, doubling: bool) -> Iterator[Step]:
    """Rank r swaps ``w`` blocks with partner r XOR w: for w = 1, 2, 4...
    the aligned range holding its own block (doubling), for w = p/2...1
    the range holding its partner's (halving)."""
    widths = [1 << k for k in range(p.bit_length() - 1)]
    for w in widths if doubling else reversed(widths):
        to = tuple(r ^ w for r in range(p))
        yield Step(to, to, w, lambda r, w=w, flip=0 if doubling else w: (r ^ flip) & -w)


ORACLES = {
    ("all_gather", "ring"): lambda p: oracle_ring(p, lag=0),
    ("reduce_scatter", "ring"): lambda p: oracle_ring(p, lag=1),
    ("all_gather", "recursive"): lambda p: oracle_xor(p, doubling=True),
    ("reduce_scatter", "recursive"): lambda p: oracle_xor(p, doubling=False),
}


def expand(collective, algorithm, p) -> list[Step]:
    """The single steps that the runs of one schedule stand for."""
    return [
        Step(run.to, run.frm, run.width, lambda r, first=run.first, i=i: first(r, i))
        for run in schedule(collective, algorithm, p)
        for i in range(run.count)
    ]


def sizes(algorithm):
    return [p for p in range(1, 65) if algorithm == "ring" or p & (p - 1) == 0]


@pytest.mark.parametrize("collective,algorithm", KEYS)
def test_runs_expand_to_the_oracle_steps(collective, algorithm):
    assert sorted(ORACLES) == KEYS
    for p in sizes(algorithm):
        got = expand(collective, algorithm, p)
        want = list(ORACLES[collective, algorithm](p))
        assert len(got) == len(want), p
        for s, (a, b) in enumerate(zip(got, want)):
            assert (a.to, a.frm, a.width) == (b.to, b.frm, b.width), (p, s)
            assert [a.first(r) for r in range(p)] == [b.first(r) for r in range(p)], (p, s)


@pytest.mark.parametrize("collective,algorithm", KEYS)
def test_step_tables_are_the_expanded_runs(collective, algorithm):
    for p in [n for n in sizes(algorithm) if n <= 16]:
        steps = expand(collective, algorithm, p)
        for r in range(p):
            want = tuple((s.to[r], s.frm[r], s.first(r), s.first(s.frm[r]), s.width) for s in steps)
            assert collectives._steps_of(collective, algorithm, p, r) == want, (p, r)


def blocks(step, r):
    lo = step.first(r)
    return range(lo, lo + step.width)


@pytest.mark.parametrize("collective,algorithm", KEYS)
def test_each_step_pairs_every_rank_with_another(collective, algorithm):
    for p in sizes(algorithm):
        for step in expand(collective, algorithm, p):
            assert len(step.to) == len(step.frm) == p
            assert [step.frm[step.to[r]] for r in range(p)] == list(range(p))
            assert all(step.to[r] != r for r in range(p))
            assert all(0 <= b < p for r in range(p) for b in blocks(step, r))


@pytest.mark.parametrize("algorithm", ["ring", "recursive"])
def test_all_gather_delivers_each_foreign_block_once(algorithm):
    for p in sizes(algorithm):
        have = [{r} for r in range(p)]
        for step in expand("all_gather", algorithm, p):
            sent = [set(blocks(step, r)) for r in range(p)]
            for r in range(p):
                assert sent[r] <= have[r], (p, r)
            for r in range(p):
                got = sent[step.frm[r]]
                assert not got & have[r], (p, r)
                have[r] |= got
        assert all(h == set(range(p)) for h in have), p


@pytest.mark.parametrize("algorithm", ["ring", "recursive"])
def test_reduce_scatter_sums_each_chunk_once_at_its_owner(algorithm):
    """Models the executor: a rank sends and folds into the partials it
    computed on the step before when the range lies inside them, and its
    own input otherwise. Values are the sets of ranks summed so far."""
    for p in sizes(algorithm):
        part = [{} for _ in range(p)]  # rank -> {chunk: contributors}

        def current(r, rng):
            if all(c in part[r] for c in rng):
                return [part[r][c] for c in rng]
            return [frozenset({r})] * len(rng)

        for step in expand("reduce_scatter", algorithm, p):
            sent = [current(r, blocks(step, r)) for r in range(p)]
            new = []
            for r in range(p):
                rng = blocks(step, step.frm[r])
                mine = current(r, rng)
                got = sent[step.frm[r]]
                assert all(not a & b for a, b in zip(mine, got)), (p, r)
                new.append({c: a | b for c, a, b in zip(rng, mine, got)})
            part = new
        for r in range(p):
            final = part[r] if p > 1 else {0: frozenset({0})}
            assert final == {r: set(range(p))}, (p, r)


def test_unknown_algorithm_and_non_power_of_two_refused():
    with pytest.raises(Unsupported):
        schedule("all_gather", "butterfly", 4)
    with pytest.raises(NonPowerOfTwo):
        schedule("reduce_scatter", "recursive", 6)


class NoTrafficEndpoint:
    """Endpoint of rank 0 that fails the test on any send or receive."""

    rank = 0

    def send(self, dst, tag, payload):
        pytest.fail(f"send to {dst} with tag {tag}")

    def recv(self, src, tag):
        pytest.fail(f"recv from {src} with tag {tag}")


def test_schedule_over_tag_budget_refused_before_any_tag_or_send():
    comm = Communicator(NoTrafficEndpoint(), range(STEP_TAGS_PER_COLLECTIVE + 2))
    with pytest.raises(CollkitError):
        collectives.ring_all_gather(comm, np.zeros(1, np.float32))
    with pytest.raises(CollkitError):
        collectives.ring_reduce_scatter(comm, np.zeros(comm.size, np.float32))
    assert comm.next_base_tag(STEP_TAGS_PER_COLLECTIVE) == 0


def test_non_power_of_two_refused_before_any_tag_or_send():
    comm = Communicator(NoTrafficEndpoint(), range(3))
    with pytest.raises(NonPowerOfTwo):
        collectives.recdbl_all_gather(comm, np.zeros(1, np.float32))
    with pytest.raises(NonPowerOfTwo):
        collectives.rechalf_reduce_scatter(comm, np.zeros(3, np.float32))
    assert comm.next_base_tag() == 0
