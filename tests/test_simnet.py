import copy
import dataclasses
import functools
import gc
import itertools
import math
import operator
import pickle

import numpy as np
import pytest
from conftest import (
    FIDELITY_CELLS,
    inprocess_log,
    price_log,
    replay_schedule,
    run_logged,
    scheduled_step_multisets,
    seconds_ratio,
)
from hypothesis import given, settings, strategies as st

from collkit import simnet
from collkit.bench.sweep import calibrate_selector
from collkit.costmodel import CostParams, resolve_inter_algorithm, t_hierarchical, t_rec, t_ring
from collkit.errors import (
    CollkitError,
    IndexOutOfRange,
    LengthMismatch,
    NonPowerOfTwo,
    NotDivisible,
    Unsupported,
)
from collkit.hierarchy import HierPlan, hier_all_gather, hier_reduce_scatter
from collkit.simnet import (
    NIC_POLICIES,
    PHYS_TOPOLOGIES,
    REDUCE_PROFILES,
    NicCounters,
    SimConfig,
    SimStep,
    StepCoster,
    build_schedule,
    ring_hops,
    simulate,
)
from collkit.topology import Topology


def cfg(topo, params=None, **kw):
    return SimConfig(topo=topo, params=params or CostParams(), **kw)


def test_single_message_charge():
    config = cfg(Topology(2, 1, 1))
    coster = StepCoster(config)
    m = 1 << 20
    makespan = coster.charge_step([(0, 1, m)])
    params = config.params
    assert makespan == params.alpha_inter + params.beta_inter * m


@st.composite
def priced_steps(draw):
    """A random machine and config, and a few steps of messages and
    reductions between its ranks: repeated senders, zero sizes, intra- and
    inter-node traffic. Hypothesis picks the shapes; a seeded generator
    fills in costs and sizes with full mantissas, so that summing charges
    in another order would change the last bits of a busy time."""
    m = draw(st.integers(1, 8))
    k = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    topo = Topology(draw(st.integers(1, 9)), m, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = CostParams(
        alpha_inter=rng.uniform(0, 1e-4),
        beta_inter=rng.uniform(0, 1e-9),
        alpha_intra=rng.uniform(0, 1e-5),
        beta_intra=rng.uniform(0, 1e-10),
        packet_bytes=int(rng.integers(1, 5000)),
    )
    config = SimConfig(
        topo=topo,
        params=params,
        nic_policy=draw(st.sampled_from(["balanced", "single_nic"])),
        phys_topology=draw(st.sampled_from(["fully_connected", "ring_of_nodes"])),
        reduce_profile=draw(st.sampled_from(["fast", "slow"])),
    )
    senders = rng.choice(topo.world_size, size=draw(st.integers(1, topo.world_size)))

    def sizes(n):
        return np.where(rng.random(n) < 0.2, 0, rng.integers(1, 1 << 26, n)).tolist()

    steps = []
    for _ in range(draw(st.integers(1, 4))):
        n_msgs, n_reds = draw(st.integers(0, 64)), draw(st.integers(0, 10))
        src = rng.choice(senders, n_msgs).tolist()
        dst = rng.integers(0, topo.world_size, n_msgs).tolist()
        reds = rng.integers(0, topo.world_size, n_reds).tolist()
        steps.append((list(zip(src, dst, sizes(n_msgs))), list(zip(reds, sizes(n_reds)))))
    return config, steps


@settings(max_examples=200, deadline=None)
@given(case=priced_steps())
def test_charge_step_prices_lists_and_arrays_alike(case):
    config, steps = case
    from_lists, from_arrays = StepCoster(config), StepCoster(config)
    for messages, reductions in steps:
        want = from_lists.charge_step(messages, reductions)
        got = from_arrays.charge_step(
            np.array(messages, dtype=np.int64).reshape(-1, 3),
            np.array(reductions, dtype=np.int64).reshape(-1, 2),
        )
        assert got == want
        assert from_arrays.counters == from_lists.counters


@pytest.mark.parametrize("alpha, busiest", [(1e-6, "link 0->1"), (1e-5, "rank 0")])
def test_one_step_priced_by_hand(alpha, busiest):
    """On a 4x2x1 ring of nodes (rank r on node r // 2, one NIC each), rank
    0 sends to nodes 1 and 2 (links 0->1, then 0->1 and 1->2), rank 6 on
    node 3 to node 1 (links 3->0 and 0->1, ascending on the tie), and rank
    1 within node 0; rank 2 reduces. Each resource's busy time is the sum
    of its charges in message order, and the makespan is the largest."""
    beta, alpha_intra, beta_intra, gamma = 1e-9, 3e-7, 1e-10, 2e-10
    params = CostParams(
        alpha_inter=alpha,
        beta_inter=beta,
        alpha_intra=alpha_intra,
        beta_intra=beta_intra,
        gamma_reduce_fast=gamma,
        packet_bytes=1024,
    )
    config = cfg(
        Topology(4, 2, 1), params, nic_policy="single_nic", phys_topology="ring_of_nodes"
    )
    coster = StepCoster(config)
    a, b, d, c = 1000, 2000, 4000, 500
    makespan = coster.charge_step([(0, 2, a), (0, 4, b), (6, 2, d), (1, 0, c)], [(2, a)])
    busy = {
        "rank 0": (alpha + beta * a) + (alpha + beta * b),
        "rank 6": alpha + beta * d,
        "rank 1": alpha_intra + beta_intra * c,
        "reduce 2": gamma * a,
        "nic out, node 0": beta * a + beta * b,
        "nic out, node 3": beta * d,
        "nic in, node 1": beta * a + beta * d,
        "nic in, node 2": beta * b,
        "link 0->1": beta * a + beta * b + beta * d,
        "link 1->2": beta * b,
        "link 3->0": beta * d,
    }
    assert makespan == busy[busiest] == max(busy.values())
    pkts = 1 + 2 + 4  # ceil(a / 1024) + ceil(b / 1024) + ceil(d / 1024)
    assert coster.counters == NicCounters(1, [a + b + d], [a + b + d], [pkts], [pkts])


@st.composite
def simulated_runs(draw):
    """A random machine, config and collective run: flat ring or recursive,
    or hierarchical with a ring, recursive or auto inter-node phase.
    Recursive phases get power-of-two rank or node counts."""
    algorithm, inter_alg = draw(
        st.sampled_from(
            [("ring", "ring"), ("recursive", "ring")]
            + [("hierarchical", inter) for inter in ("ring", "recursive", "auto")]
        )
    )
    powers = st.sampled_from([1, 2, 4, 8])
    recursive = "recursive" in (algorithm, inter_alg)
    n = draw(powers if recursive else st.integers(1, 9))
    m = draw(powers if algorithm == "recursive" else st.integers(1, 8))
    k = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    topo = Topology(n, m, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = CostParams(
        alpha_inter=rng.uniform(0, 1e-4),
        beta_inter=rng.uniform(0, 1e-9),
        alpha_intra=rng.uniform(0, 1e-5),
        beta_intra=rng.uniform(0, 1e-10),
        gamma_reduce_fast=rng.uniform(0, 1e-11),
        gamma_reduce_slow=rng.uniform(0, 1e-9),
        packet_bytes=int(rng.integers(1, 5000)),
    )
    config = SimConfig(
        topo=topo,
        params=params,
        nic_policy=draw(st.sampled_from(["balanced", "single_nic"])),
        phys_topology=draw(st.sampled_from(["fully_connected", "ring_of_nodes"])),
        reduce_profile=draw(st.sampled_from(["fast", "slow"])),
    )
    collective = draw(st.sampled_from(["all_gather", "reduce_scatter"]))
    m_bytes = topo.world_size * int(rng.integers(0, 1 << 24))
    return config, collective, algorithm, m_bytes, inter_alg


def charge_every_step(config, collective, algorithm, m_bytes, inter_alg):
    """Reference run: a fresh pricer charges every step of every run of
    the schedule, and the makespans are summed in step order."""
    coster = StepCoster(config)
    total, steps = 0.0, []
    schedule = build_schedule(config, collective, algorithm, m_bytes, inter_alg)
    for messages, reductions, repeat in schedule:
        for _ in range(repeat):
            makespan = coster.charge_step(messages, reductions)
            total += makespan
            steps.append(
                SimStep(
                    len(steps), makespan, len(messages), int(np.sum(messages[:, 2])),
                    len(reductions),
                )
            )
    return total, steps, coster.counters


@settings(max_examples=150, deadline=None)
@given(run=simulated_runs())
def test_simulate_matches_charging_every_step(run):
    config, collective, algorithm, m_bytes, inter_alg = run
    want_seconds, want_steps, want_counters = charge_every_step(
        config, collective, algorithm, m_bytes, inter_alg
    )
    res = simulate(config, collective, algorithm, m_bytes, inter_alg=inter_alg)
    assert res.seconds == want_seconds
    seconds = simnet.seconds(config, collective, algorithm, m_bytes, inter_alg=inter_alg)
    assert seconds.hex() == want_seconds.hex()
    assert res.trace.steps == want_steps
    assert res.counters.bytes_in == want_counters.bytes_in
    assert res.counters.bytes_out == want_counters.bytes_out
    assert res.counters.posted_pkts == want_counters.posted_pkts
    assert res.counters.non_posted_pkts == want_counters.non_posted_pkts


@pytest.fixture
def priced(monkeypatch):
    """The message counts of every run ``simulate`` or ``seconds`` prices."""
    calls = []
    makespan = simnet._makespan

    def counted(run, *args):
        calls.append(run.messages)
        return makespan(run, *args)

    monkeypatch.setattr(simnet, "_makespan", counted)
    return calls


def test_flat_ring_prices_one_step(priced):
    topo = Topology(256, 8, 4)
    res = simulate(cfg(topo), "all_gather", "ring", topo.world_size * 64)
    assert len(res.trace.steps) == topo.world_size - 1
    assert priced == [topo.world_size]


@pytest.mark.parametrize("collective", ["all_gather", "reduce_scatter"])
def test_hierarchical_recursive_prices_each_inter_step_and_one_intra_step(priced, collective):
    topo = Topology(8, 8, 4)
    res = simulate(cfg(topo), collective, "hierarchical", 64 << 10, inter_alg="recursive")
    assert len(res.trace.steps) == 3 + 7
    assert len(priced) == 3 + 1


def test_flat_recursive_prices_every_step(priced):
    topo = Topology(16, 4, 2)
    simulate(cfg(topo), "reduce_scatter", "recursive", 64 << 10)
    assert len(priced) == 6


@pytest.mark.parametrize(
    "collective, algorithm, inter_alg, topo",
    [
        ("all_gather", "ring", "ring", Topology(256, 8, 4)),
        ("all_gather", "hierarchical", "recursive", Topology(8, 8, 4)),
        ("reduce_scatter", "hierarchical", "recursive", Topology(8, 8, 4)),
    ],
    ids=["ring-256x8x4", "ag-hier-recursive-8x8x4", "rs-hier-recursive-8x8x4"],
)
def test_seconds_prices_the_runs_simulate_prices(priced, collective, algorithm, inter_alg, topo):
    args = (cfg(topo), collective, algorithm, topo.world_size * 64, inter_alg)
    simulate(*args)
    by_simulate = list(priced)
    priced.clear()
    simnet.seconds(*args)
    assert priced == by_simulate != []


def test_simulate_makes_no_charge_step_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(StepCoster, "charge_step", lambda *args, **kw: calls.append(args))
    ring = simulate(cfg(Topology(4, 2, 1)), "all_gather", "ring", 8 << 10)
    simulate(
        cfg(Topology(4, 4, 2), phys_topology="ring_of_nodes", reduce_profile="slow"),
        "reduce_scatter", "hierarchical", 64 << 10, inter_alg="recursive",
    )
    assert calls == []
    assert len(ring.trace.steps) == 7


# Criterion 6's calibration grid, as the sim-links benchmark workload runs it.
CALIBRATION_NODES = (4, 8, 16, 32, 64, 128)
CALIBRATION_SIZES = tuple(2**i << 20 for i in range(4, 11))


def test_calibration_builds_one_census_per_node_count_and_algorithm(monkeypatch):
    censuses = []
    census = simnet._census

    def counted(*args):
        censuses.append(args)
        return census(*args)

    monkeypatch.setattr(simnet, "_census", counted)
    simnet._plan.cache_clear()
    calibrate_selector(
        CALIBRATION_NODES,
        CALIBRATION_SIZES,
        CostParams(alpha_inter=40e-6, beta_inter=0.004e-9),
        phys_topology="ring_of_nodes",
    )
    built = 2 * len(CALIBRATION_NODES)  # ring and recursive at each node count
    info = simnet._plan.cache_info()
    assert info.misses == built
    assert info.hits == built * (len(CALIBRATION_SIZES) - 1)
    assert len(censuses) == len(set(censuses)) == built


def test_census_holds_per_nic_counts_not_per_rank_arrays():
    topo = Topology(256, 8, 4)
    for kind, algorithm in (("world", "ring"), ("inter", "recursive"), ("intra", "ring")):
        census = simnet._census(topo, "balanced", "ring_of_nodes", kind, "all_gather", algorithm)
        for run in census:
            assert len(run.nic_out) == len(run.nic_in) == topo.nics_per_node
            for value in run:
                assert type(value) in (int, bool) or all(type(n) is int for n in value)
    for algorithm, inter in (("ring", None), ("hierarchical", "recursive")):
        plan = simnet._plan(
            topo.num_nodes, topo.gpus_per_node, topo.nics_per_node,
            "balanced", "ring_of_nodes", "all_gather", algorithm, inter,
        )
        for phase in plan:
            for run in phase.runs:
                assert all(type(n) in (int, bool) for n in run)
            for _, pairs in phase.nic_weights:
                assert len(pairs) <= 2 * topo.nics_per_node
                assert all(type(i) is type(n) is int for i, n in pairs)
            assert all(type(w) is int for widths, _ in phase.nic_weights for w in widths)


def test_ring_of_nodes_recursive_step_is_set_by_its_busiest_link():
    """On 16 ring-connected nodes the widest recursive exchange sends every
    message 8 hops the same way round, so one link carries 32 of them while
    a NIC carries 2: the link sets the makespan."""
    params = CostParams(alpha_inter=1e-9, beta_inter=0.37e-9)
    config = cfg(Topology(16, 4, 2), params, phys_topology="ring_of_nodes")
    census = simnet._census(
        config.topo, "balanced", "ring_of_nodes", "world", "reduce_scatter", "recursive"
    )
    assert max(run.link for run in census) == 32
    assert max(max(run.egress, run.ingress) for run in census) == 2
    m_bytes = 64 << 10
    res = simulate(config, "reduce_scatter", "recursive", m_bytes)
    want_seconds, want_steps, _ = charge_every_step(
        config, "reduce_scatter", "recursive", m_bytes, "ring"
    )
    assert res.seconds == want_seconds
    assert [s.makespan for s in res.trace.steps] == [s.makespan for s in want_steps]
    wire = params.beta_inter * (m_bytes // 2)  # the first step's messages
    assert res.trace.steps[0].makespan > 31 * wire


@st.composite
def census_steps(draw):
    """A random machine and config and one step with the properties a
    census needs: distinct senders, distinct reducers, and one size,
    ``width * block``, for every message and reduction. Returns the step
    with ``width`` and with ``width * block`` as its size."""
    m = draw(st.integers(1, 8))
    k = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    topo = Topology(draw(st.integers(1, 9)), m, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = CostParams(
        alpha_inter=rng.uniform(0, 1e-4),
        beta_inter=rng.uniform(0, 1e-9),
        alpha_intra=rng.uniform(0, 1e-5),
        beta_intra=rng.uniform(0, 1e-10),
        gamma_reduce_fast=rng.uniform(0, 1e-11),
        gamma_reduce_slow=rng.uniform(0, 1e-9),
        packet_bytes=int(rng.integers(1, 5000)),
    )
    config = SimConfig(
        topo=topo,
        params=params,
        nic_policy=draw(st.sampled_from(["balanced", "single_nic"])),
        phys_topology=draw(st.sampled_from(["fully_connected", "ring_of_nodes"])),
        reduce_profile=draw(st.sampled_from(["fast", "slow"])),
    )
    world = topo.world_size
    src = rng.permutation(world)[: draw(st.integers(1, world))]
    dst = rng.integers(0, world, len(src))
    reducers = rng.permutation(world)[: draw(st.integers(0, world))]
    width = draw(st.integers(1, 8))
    block = 0 if rng.random() < 0.1 else int(rng.integers(1, 1 << 22))

    def step(size):
        msgs = np.stack([src, dst, np.full(len(src), size)], axis=1)
        reds = np.stack([reducers, np.full(len(reducers), size)], axis=1)
        return msgs.astype(np.int64).reshape(-1, 3), reds.astype(np.int64).reshape(-1, 2)

    return config, step(width), step(width * block), block, draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(case=census_steps())
def test_census_prices_a_run_like_charging_each_step(case):
    config, (msgs, reds), (sized_msgs, sized_reds), block, count = case
    topo, params = config.topo, config.params
    coster = StepCoster(config)
    for _ in range(count):
        want = coster.charge_step(sized_msgs, sized_reds)
    run = simnet._run_census(topo, config.nic_policy, config.phys_topology, msgs, reds, count)
    phase = simnet._planned_phase("world", "ring", 1, (run,))
    gamma = params.gamma(config.reduce_profile)
    assert simnet._makespan(phase.runs[0], run.width * block, params, gamma) == want
    counts = [0] * (4 * topo.nics_per_node)
    simnet._count(counts, phase, block, params.packet_bytes)
    assert simnet._counters(topo.nics_per_node, counts) == coster.counters


def test_schedule_arrays_are_read_only():
    runs = list(build_schedule(cfg(Topology(4, 2, 1)), "reduce_scatter", "ring", 8 << 10))
    assert len(runs) == 1
    messages, reductions, repeat = runs[0]
    assert repeat == 7
    with pytest.raises(ValueError):
        messages[0, 2] = 0
    with pytest.raises(ValueError):
        reductions[0, 1] = 0


@st.composite
def ring_messages(draw):
    """Up to 200 (src_node, dst_node) pairs on a ring of N <= 64 nodes,
    some on their own node; on an even ring, half of them may be pairs
    N/2 apart, which tie and go ascending from either end."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 200))
    src = rng.integers(0, n, count)
    dst = rng.integers(0, n, count)
    if n % 2 == 0 and draw(st.booleans()):
        dst[::2] = (src[::2] + n // 2) % n
    return n, src, dst


@settings(max_examples=300, deadline=None)
@given(case=ring_messages())
def test_link_loads_count_every_hop_of_every_path(case):
    n, src, dst = case
    want = [0] * (2 * n)  # link a -> a+1 at 2a, link a -> a-1 at 2a+1
    for s, d in zip(src.tolist(), dst.tolist()):
        for a, b in ring_hops(n, s, d):
            want[2 * a + (b != (a + 1) % n)] += 1
    assert simnet._link_loads(n, src, dst).tolist() == want


def test_charge_step_refuses_bad_ranks_and_sizes():
    coster = StepCoster(cfg(Topology(2, 2, 1)))
    for messages, reductions in (
        ([(0, 4, 1)], ()),
        ([(-1, 0, 1)], ()),
        ([], [(4, 1)]),
    ):
        with pytest.raises(IndexOutOfRange):
            coster.charge_step(messages, reductions)
    with pytest.raises(LengthMismatch):
        coster.charge_step([(0, 2, -1)])
    assert coster.charge_step([]) == 0.0


@pytest.mark.parametrize("p", [2, 4, 8, 16, 64])
def test_flat_ring_matches_analytic_formula(p):
    params = CostParams()
    m = 32 << 20
    seconds = simulate(cfg(Topology(p, 1, 1), params), "all_gather", "ring", m).seconds
    assert math.isclose(seconds, t_ring(p, m, params), rel_tol=1e-12)


@pytest.mark.parametrize("p", [2, 4, 8, 16, 64])
def test_flat_recursive_matches_analytic_formula(p):
    params = CostParams()
    m = 32 << 20
    seconds = simulate(
        cfg(Topology(p, 1, 1), params), "all_gather", "recursive", m
    ).seconds
    assert math.isclose(seconds, t_rec(p, m, params), rel_tol=1e-12)


def test_single_nic_policy_concentrates_traffic():
    config = cfg(Topology(2, 8, 4), nic_policy="single_nic")
    res = simulate(config, "all_gather", "hierarchical", 16 << 20, inter_alg="ring")
    counters = res.counters
    assert counters.bytes_out[0] == sum(counters.bytes_out) > 0
    assert all(b == 0 for b in counters.bytes_out[1:])
    assert counters.bytes_in[3] == sum(counters.bytes_in) > 0
    assert all(b == 0 for b in counters.bytes_in[:3])


def test_balanced_hierarchical_per_nic_bytes_equal():
    config = cfg(Topology(4, 8, 4))
    res = simulate(config, "all_gather", "hierarchical", 32 << 20, inter_alg="recursive")
    out = res.counters.bytes_out
    assert max(out) == min(out) > 0
    assert max(out) / min(out) == 1.0


def test_conservation_of_inter_node_bytes():
    for policy in ("balanced", "single_nic"):
        topo = Topology(2, 4, 2)
        args = (cfg(topo, nic_policy=policy), "reduce_scatter", "hierarchical", 8 << 20, "ring")
        res = simulate(*args)
        inter_bytes = 0
        for messages, _, repeat in build_schedule(*args):
            src_node, dst_node = messages[:, :2].T // topo.gpus_per_node
            inter_bytes += repeat * int(messages[src_node != dst_node, 2].sum())
        assert inter_bytes > 0
        assert sum(res.counters.bytes_out) == inter_bytes
        assert sum(res.counters.bytes_in) == inter_bytes


def test_determinism_bit_identical():
    config = cfg(Topology(4, 4, 2), phys_topology="ring_of_nodes")
    a = simulate(config, "all_gather", "hierarchical", 16 << 20, inter_alg="recursive")
    b = simulate(config, "all_gather", "hierarchical", 16 << 20, inter_alg="recursive")
    assert a.seconds == b.seconds
    assert a.counters == b.counters
    assert [s.makespan for s in a.trace.steps] == [s.makespan for s in b.trace.steps]


def test_trace_total_equals_sum_of_step_makespans():
    res = simulate(cfg(Topology(4, 2, 1)), "reduce_scatter", "ring", 4 << 20)
    # Not ``sum``: on Python 3.12+ it compensates float rounding.
    assert res.seconds == functools.reduce(
        operator.add, (s.makespan for s in res.trace.steps), 0.0
    )


def test_steps_are_built_on_first_read(monkeypatch):
    built = []

    def counting_step(*args):
        built.append(args[0])
        return SimStep(*args)

    monkeypatch.setattr(simnet, "SimStep", counting_step)
    topo = Topology(256, 8, 4)
    res = simulate(cfg(topo), "all_gather", "ring", topo.world_size * 64)
    assert built == []
    steps = res.trace.steps
    assert built == list(range(topo.world_size - 1))
    again = res.trace.steps
    assert len(built) == topo.world_size - 1
    assert again == steps


def _live_steps() -> int:
    return sum(isinstance(o, SimStep) for o in gc.get_objects())


def test_the_trace_keeps_no_step_alive_once_its_reader_drops_them():
    topo = Topology(256, 8, 4)
    res = simulate(cfg(topo), "all_gather", "ring", topo.world_size * 64)
    before = _live_steps()
    first = [dataclasses.astuple(s) for s in res.trace.steps]
    assert len(first) == topo.world_size - 1
    assert _live_steps() == before
    assert [dataclasses.astuple(s) for s in res.trace.steps] == first


def test_a_read_trace_copies_and_pickles_without_its_readers_steps():
    res = simulate(cfg(Topology(4, 2, 1)), "reduce_scatter", "ring", 4 << 20)
    steps = res.trace.steps
    for other in (copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
        assert other.trace.steps == steps
        assert other.trace.steps is not steps
        assert other.seconds == res.seconds and other.counters == res.counters


FOLD_CELLS = {
    "ring-ring": ("ring", "ring", Topology(64, 8, 4)),
    "recursive-ring": ("recursive", "ring", Topology(64, 8, 4)),
    "hierarchical-recursive": ("hierarchical", "recursive", Topology(64, 8, 4)),
    # One flat ring run on each side of the step count above which the
    # fold switches from functools.reduce to np.add.accumulate.
    "ring-reduce": ("ring", "ring", Topology(simnet._ACCUMULATE_ABOVE + 1, 1, 1)),
    "ring-accumulate": ("ring", "ring", Topology(simnet._ACCUMULATE_ABOVE + 2, 1, 1)),
}


@pytest.mark.parametrize("algorithm, inter_alg, topo", FOLD_CELLS.values(), ids=FOLD_CELLS)
def test_seconds_fold_step_makespans_in_step_order(algorithm, inter_alg, topo):
    config = cfg(
        topo,
        CostParams(alpha_inter=40e-6, beta_inter=0.004e-9),
        phys_topology="ring_of_nodes",
        reduce_profile="slow",
    )
    m_bytes = topo.world_size << 17  # 64 MiB at 64x8x4
    res = simulate(config, "reduce_scatter", algorithm, m_bytes, inter_alg=inter_alg)
    assert res.seconds == functools.reduce(
        operator.add, (s.makespan for s in res.trace.steps), 0.0
    )


@st.composite
def folds(draw):
    """A start ``t`` (0.0 or positive), an addend ``w`` and a count ``k``:
    0, 1 (the fold's single add), or on either side of its switch. Hypothesis picks the exponents and
    counts; a seeded generator fills in full mantissas, so that adding in
    another order would change the last bits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = float(rng.uniform(1, 10)) * 10.0 ** draw(st.integers(-300, 2))
    t = 0.0
    if draw(st.booleans()):
        t = float(rng.uniform(1, 10)) * 10.0 ** draw(st.integers(-300, 2))
    threshold = simnet._ACCUMULATE_ABOVE
    k = draw(
        st.one_of(
            st.sampled_from([0, 1]),
            st.integers(0, 5000),
            st.integers(threshold - 2, threshold + 2),
        )
    )
    return t, w, k


@settings(max_examples=300, deadline=None)
@given(case=folds())
def test_step_fold_adds_one_at_a_time_in_order(case):
    t, w, k = case
    assert simnet._fold(t, w, k) == functools.reduce(operator.add, itertools.repeat(w, k), t)


def test_packet_counters_use_ceiling():
    params = CostParams(packet_bytes=1000)
    config = cfg(Topology(2, 1, 1), params)
    res = simulate(config, "all_gather", "ring", 2500 * 2)
    # one step, two messages of 2500 bytes each: ceil(2500/1000) = 3 packets
    assert res.counters.posted_pkts == res.counters.non_posted_pkts
    assert sum(res.counters.posted_pkts) == 6


def test_compare_policies_identity_with_single_nic_hardware():
    # K = 1: both policies pick the only NIC, so the ratio is exactly 1.
    topo = Topology(4, 2, 1)
    bal = cfg(topo)
    sgl = cfg(topo, nic_policy="single_nic")
    assert seconds_ratio(sgl, bal, "all_gather", "recursive", 8 << 20) == 1.0


def test_compare_policies_ratio_in_bandwidth_and_latency_regimes():
    topo = Topology(2, 8, 4)
    bal = cfg(topo)
    sgl = cfg(topo, nic_policy="single_nic")
    big = seconds_ratio(sgl, bal, "all_gather", "recursive", 256 << 20)
    assert 3.5 <= big <= 4.0
    small = seconds_ratio(sgl, bal, "all_gather", "recursive", 4096)
    assert abs(small - 1.0) <= 0.05


def test_reduce_profile_gap_identity_and_limits():
    def gap(params, m):
        slow = cfg(Topology(4, 1, 1), params, reduce_profile="slow")
        return seconds_ratio(slow, cfg(Topology(4, 1, 1), params), "reduce_scatter", "ring", m)

    equal_gamma = CostParams(gamma_reduce_slow=CostParams().gamma_reduce_fast)
    assert gap(equal_gamma, 64 << 20) == 1.0

    tiny = gap(CostParams(), 1024)
    assert abs(tiny - 1.0) <= 0.05
    gaps = [gap(CostParams(), m) for m in (1 << 20, 16 << 20, 256 << 20)]
    assert gaps == sorted(gaps)
    assert gaps[-1] > 3.0


def test_a_reduction_overlaps_the_send_of_its_step():
    """A reduction is its rank's own resource: a one-step 1x2x1 ring
    reduce-scatter costs the larger of the send and the reduction, not
    their sum."""
    config = cfg(Topology(1, 2, 1), reduce_profile="slow")
    params, m = config.params, 2 << 20
    b = m // 2
    send = params.alpha_intra + params.beta_intra * b
    reduce = params.gamma_reduce_slow * b
    assert simulate(config, "reduce_scatter", "ring", m).seconds == max(send, reduce)
    assert max(send, reduce) == reduce < send + reduce


def test_crossover_direction_flips_on_ring_of_nodes():
    params = CostParams(alpha_inter=40e-6, beta_inter=0.004e-9)

    def delta(n, m):
        config = cfg(Topology(n, 1, 1), params, phys_topology="ring_of_nodes")
        ring = simulate(config, "all_gather", "ring", m).seconds
        rec = simulate(config, "all_gather", "recursive", m).seconds
        return ring - rec

    # Fixed large m: small node counts favor ring, large favor recursive.
    assert delta(4, 1 << 30) < 0
    assert delta(128, 1 << 30) != delta(4, 1 << 30)
    # Fixed N >= 4: small m favors recursive.
    assert delta(64, 1 << 20) > 0
    assert delta(4, 1 << 30) < 0 < delta(64, 1 << 20)


def test_ring_hops_shortest_path_and_tie_break():
    assert ring_hops(8, 0, 1) == [(0, 1)]
    assert ring_hops(8, 1, 0) == [(1, 0)]
    assert ring_hops(8, 6, 1) == [(6, 7), (7, 0), (0, 1)]
    # Distance exactly N/2 ties; ascending direction wins.
    assert ring_hops(8, 0, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert ring_hops(8, 4, 0) == [(4, 5), (5, 6), (6, 7), (7, 0)]
    assert ring_hops(4, 2, 2) == []


def test_ring_of_nodes_charges_links():
    params = CostParams()
    m = 8 << 20
    flat = cfg(Topology(8, 1, 1), params)
    ringy = dataclasses.replace(flat, phys_topology="ring_of_nodes")
    # Neighbor-only traffic: ring algorithm is unaffected by link charges.
    assert (
        simulate(flat, "all_gather", "ring", m).seconds
        == simulate(ringy, "all_gather", "ring", m).seconds
    )
    # Long-range exchanges contend on shared links and slow down.
    assert (
        simulate(ringy, "all_gather", "recursive", m).seconds
        > simulate(flat, "all_gather", "recursive", m).seconds
    )


def test_validation_errors():
    config = cfg(Topology(3, 1, 1))
    with pytest.raises(NonPowerOfTwo):
        simulate(config, "all_gather", "recursive", 3 << 20)
    with pytest.raises(NotDivisible):
        simulate(config, "all_gather", "ring", 1000)
    with pytest.raises(LengthMismatch):
        simulate(config, "all_gather", "ring", -3 << 20)
    with pytest.raises(Unsupported):
        simulate(config, "all_to_all", "ring", 3 << 20)
    with pytest.raises(Unsupported):
        simulate(config, "all_gather", "butterfly", 3 << 20)
    with pytest.raises(Unsupported):
        simulate(config, "all_gather", "hierarchical", 3 << 20, inter_alg="tree")
    topo = Topology(2, 1, 1)
    for field_name in ("nic_policy", "phys_topology", "reduce_profile"):
        with pytest.raises(Unsupported):
            SimConfig(topo=topo, **{field_name: "bogus"})


# Shapes simulate refuses on three single-GPU nodes, and what it raises.
REFUSED = {
    "recursive-3-ranks": (NonPowerOfTwo, ("all_gather", "recursive", 3 << 20, "ring")),
    "inter-recursive-3-nodes": (
        NonPowerOfTwo, ("reduce_scatter", "hierarchical", 3 << 20, "recursive"),
    ),
    "indivisible": (NotDivisible, ("all_gather", "ring", 1000, "ring")),
    "negative": (LengthMismatch, ("all_gather", "ring", -3 << 20, "ring")),
    "collective": (Unsupported, ("all_to_all", "ring", 3 << 20, "ring")),
    "algorithm": (Unsupported, ("all_gather", "butterfly", 3 << 20, "ring")),
    "inter": (Unsupported, ("all_gather", "hierarchical", 3 << 20, "tree")),
}


@pytest.mark.parametrize("error, args", REFUSED.values(), ids=REFUSED)
def test_seconds_refuses_what_simulate_refuses(error, args):
    config = cfg(Topology(3, 1, 1))
    raised = []
    for price in (simulate, simnet.seconds):
        with pytest.raises(CollkitError) as caught:
            price(config, *args)
        raised.append(caught.type)
    assert raised == [error, error]


def test_a_size_that_is_not_an_integer_is_refused():
    config = cfg(Topology(4, 2, 1))
    for price in (simulate, simnet.seconds):
        with pytest.raises(Unsupported, match="m_bytes must be an integer"):
            price(config, "all_gather", "ring", float(1 << 20))
    with pytest.raises(Unsupported, match="m_bytes must be an integer"):
        calibrate_selector((2,), (float(1 << 20),))


def test_a_numpy_integer_size_prices_in_python_numbers():
    config = cfg(Topology(4, 2, 1))
    res = simulate(config, "reduce_scatter", "recursive", np.int64(1 << 20))
    assert res == simulate(config, "reduce_scatter", "recursive", 1 << 20)
    assert type(res.seconds) is float
    assert type(simnet.seconds(config, "all_gather", "ring", np.int64(1 << 20))) is float
    c = res.counters
    for counts in (c.bytes_in, c.bytes_out, c.posted_pkts, c.non_posted_pkts):
        assert all(type(n) is int for n in counts)
    assert all(type(run.bytes_total) is int for run in res.trace.runs)


def test_sim_config_refuses_a_topo_that_is_not_a_topology():
    with pytest.raises(Unsupported, match="topo must be a Topology"):
        SimConfig(topo=(4, 2, 1))


def test_a_negative_zero_wire_cost_prices_as_charging_every_step():
    """CostParams accepts beta_inter=-0.0. A NIC charged once holds
    0.0 + -0.0, which is 0.0, so no makespan is -0.0."""
    params = CostParams(0.0, -0.0, 0.0, 0.0, 0.0, 0.0)
    config = cfg(Topology(4, 2, 1), params)
    for algorithm in ("ring", "recursive"):
        res = simulate(config, "all_gather", algorithm, 8 << 10)
        want = charge_every_step(config, "all_gather", algorithm, 8 << 10, "ring")[1]
        assert [s.makespan.hex() for s in res.trace.steps] == [s.makespan.hex() for s in want]


def test_hierarchical_inter_auto_resolves():
    config = cfg(Topology(64, 2, 1))
    auto = simulate(config, "all_gather", "hierarchical", 128 << 10, inter_alg="auto")
    rec = simulate(config, "all_gather", "hierarchical", 128 << 10, inter_alg="recursive")
    assert auto.seconds == rec.seconds


def test_step1_concurrency_across_groups():
    # The merged inter-node phase of the hierarchical all-gather takes as
    # long as ONE sub-communicator running alone, not gpus_per_node times it.
    params = CostParams()
    topo = Topology(4, 4, 4)
    m = 16 << 20
    hier = simulate(cfg(topo, params), "all_gather", "hierarchical", m, inter_alg="ring")
    inter_steps = topo.num_nodes - 1
    hier_inter_time = sum(s.makespan for s in hier.trace.steps[:inter_steps])
    alone = simulate(
        cfg(Topology(4, 1, 1), params), "all_gather", "ring", m // topo.gpus_per_node
    ).seconds
    assert math.isclose(hier_inter_time, alone, rel_tol=1e-12)


@pytest.mark.parametrize(
    "collective,algorithm,inter_alg,n_nodes,m_gpus",
    [
        ("all_gather", "ring", "ring", 4, 1),
        ("reduce_scatter", "recursive", "ring", 8, 1),
        ("all_gather", "hierarchical", "recursive", 2, 4),
    ],
)
def test_schedule_fidelity_against_instrumented_run(
    collective, algorithm, inter_alg, n_nodes, m_gpus
):
    topo = Topology(n_nodes, m_gpus, 1)
    p = topo.world_size
    n_elems = 4
    m_bytes = p * n_elems * 4
    log = inprocess_log(topo, collective, algorithm, inter_alg, n_elems, seed=42)
    real_steps = replay_schedule(log, collective, algorithm)
    sim_steps = scheduled_step_multisets(cfg(topo), collective, algorithm, m_bytes, inter_alg)
    assert sim_steps == real_steps


def _real_and_scheduled_steps(topo, collective, plan, *inter_alg):
    """The steps a real run of ``plan`` logs and the steps ``build_schedule``
    yields for the same run, given ``inter_alg`` or left at its default.
    Each rank holds four float32 elements."""
    p, n_elems = topo.world_size, 4
    size = n_elems if collective == "all_gather" else n_elems * p
    op = hier_all_gather if collective == "all_gather" else hier_reduce_scatter
    _, log = run_logged(p, lambda c: op(plan, c, np.ones(size, np.float32)))
    schedule = build_schedule(cfg(topo), collective, "hierarchical", p * n_elems * 4, *inter_alg)
    sim_steps = [
        sorted(map(tuple, messages.tolist())) for messages, _, repeat in schedule for _ in range(repeat)
    ]
    return replay_schedule(log, collective, "hierarchical"), sim_steps


# Criterion 7's shapes, and 4x2x1, where analytic auto picks recursive.
DEFAULT_INTER_SHAPES = sorted({(n, m) for *_, n, m, _ in FIDELITY_CELLS} | {(4, 2)})


@pytest.mark.parametrize("n_nodes,m_gpus", DEFAULT_INTER_SHAPES)
@pytest.mark.parametrize("collective", ["all_gather", "reduce_scatter"])
def test_real_run_and_schedule_default_to_one_inter_algorithm(collective, n_nodes, m_gpus):
    """A real run of ``HierPlan(topo)`` and ``build_schedule``, both with
    the inter-node algorithm left at its default, send the same steps."""
    topo = Topology(n_nodes, m_gpus, 1)
    real_steps, sim_steps = _real_and_scheduled_steps(topo, collective, HierPlan(topo))
    assert sim_steps == real_steps


@pytest.mark.parametrize(
    "n_nodes,resolved", [(4, "recursive"), (3, "ring"), (2, "ring")]
)
@pytest.mark.parametrize("collective", ["all_gather", "reduce_scatter"])
def test_real_run_schedule_and_model_resolve_auto_alike(collective, n_nodes, resolved):
    """``auto`` resolves once, the same way, for a real run of
    ``HierPlan(topo, "auto")``, ``build_schedule`` and ``t_hierarchical``."""
    topo = Topology(n_nodes, 2, 1)
    m_bytes, params = topo.world_size * 16, CostParams()
    assert resolve_inter_algorithm("auto", n_nodes, m_bytes // 2, params) == resolved
    real_steps, sim_steps = _real_and_scheduled_steps(topo, collective, HierPlan(topo, "auto"), "auto")
    assert sim_steps == real_steps
    assert t_hierarchical(topo, m_bytes, "auto", params) == t_hierarchical(
        topo, m_bytes, resolved, params
    )


# Criterion 7's cells, two hierarchical cells with longer inter phases, and
# three small shapes: eight ranks (ring step count), one node (no NIC
# traffic) and two nodes (the inter-node alpha).
PRICED_LOG_CELLS = FIDELITY_CELLS + [
    ("all_gather", "hierarchical", "ring", 8, 8, 4),
    ("reduce_scatter", "hierarchical", "recursive", 4, 4, 4),
    ("all_gather", "ring", "ring", 8, 1, 4),
    ("all_gather", "ring", "ring", 1, 4, 4),
    ("all_gather", "ring", "ring", 2, 1, 8),
]


def _flat_steps(algorithm, p):
    return p - 1 if algorithm == "ring" else p.bit_length() - 1


@pytest.mark.parametrize(
    "collective,algorithm,inter_alg,n_nodes,m_gpus,n_elems", PRICED_LOG_CELLS
)
def test_real_run_logs_price_exactly_like_simulate(
    collective, algorithm, inter_alg, n_nodes, m_gpus, n_elems
):
    """An in-process run's log, priced step by step, gives the very
    seconds, NIC counters and step count of ``simulate``: for every NIC
    count that divides M, under every NIC policy, physical topology and
    reduce profile, at two inter-node alphas. The slow reduction, 1 us per
    byte, sets the makespan of these small reduce-scatter steps, so their
    reductions must be priced too."""
    if algorithm == "hierarchical":
        want_steps = _flat_steps(inter_alg, n_nodes) + _flat_steps("ring", m_gpus)
    else:
        want_steps = _flat_steps(algorithm, n_nodes * m_gpus)
    for nics in (k for k in (1, 2, 4) if m_gpus % k == 0):
        topo = Topology(n_nodes, m_gpus, nics)
        p = topo.world_size
        m_bytes = p * n_elems * 4
        log = inprocess_log(topo, collective, algorithm, inter_alg, n_elems, seed=p)
        for policy, phys, profile in itertools.product(
            NIC_POLICIES, PHYS_TOPOLOGIES, REDUCE_PROFILES
        ):
            seconds = []
            for alpha in (1e-6, 1e-3):
                params = CostParams(alpha_inter=alpha, gamma_reduce_slow=1e-6)
                config = SimConfig(topo, params, policy, phys, profile)
                got, counters, steps = price_log(config, log, collective, algorithm)
                sim = simulate(config, collective, algorithm, m_bytes, inter_alg)
                assert got == sim.seconds
                assert counters == sim.counters
                assert steps == len(sim.trace.steps) == want_steps
                seconds.append(got)
            if n_nodes == 1:
                assert sum(counters.bytes_out) == sum(counters.bytes_in) == 0
                assert seconds[0] == seconds[1] > 0
            else:
                assert sum(counters.bytes_out) == sum(counters.bytes_in) > 0
                assert seconds[1] > seconds[0]
