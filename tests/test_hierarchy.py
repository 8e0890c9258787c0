import numpy as np
import pytest
from conftest import run_logged
from hypothesis import example, given, settings, strategies as st

from collkit.bench.oracles import expected_all_gather, expected_reduce_scatter
from collkit.collectives import ring_all_gather, ring_reduce_scatter

from collkit.costmodel import CalibrationTable
from collkit.errors import EmptyTable, LengthMismatch, NonPowerOfTwo, Unsupported
from collkit.hierarchy import (
    HierPlan,
    _sub_communicators,
    hier_all_gather,
    hier_reduce_scatter,
    shuffle_global_to_local_major,
    shuffle_local_major_to_global,
)
from collkit.topology import Topology
from collkit.transport import Communicator
from collkit.transport.base import MAX_COMM_ID
from collkit.transport.inprocess import run_ranks


def oracle_all_gather(inputs):
    return np.concatenate(inputs)


def oracle_reduce_scatter(inputs):
    p = len(inputs)
    total = np.zeros_like(inputs[0])
    for buf in inputs:
        total = total + buf
    n = total.size // p
    return [total[r * n : (r + 1) * n] for r in range(p)]


def integer_inputs(p, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(-1024, 1025, size=n).astype(np.float32) for _ in range(p)]


def topo_for(n_nodes, m_gpus):
    nics = max(1, m_gpus // 2) if m_gpus % 2 == 0 else 1
    return Topology(n_nodes, m_gpus, nics)


# --- shuffles -------------------------------------------------------------


def test_shuffle_degenerate_axes_are_identity():
    buf = np.arange(12, dtype=np.float32)
    assert np.array_equal(shuffle_local_major_to_global(buf, 1, 4, 3), buf)
    assert np.array_equal(shuffle_local_major_to_global(buf, 4, 1, 3), buf)
    assert np.array_equal(shuffle_global_to_local_major(buf, 1, 4, 3), buf)


def test_shuffle_two_by_two_trace():
    # Blocks labeled by originating global rank, in local-major order
    # [(j=0,n=0), (j=0,n=1), (j=1,n=0), (j=1,n=1)] = [0, 2, 1, 3].
    local_major = np.array([0.0, 2.0, 1.0, 3.0], dtype=np.float32)
    assert np.array_equal(
        shuffle_local_major_to_global(local_major, 2, 2, 1), [0.0, 1.0, 2.0, 3.0]
    )
    assert np.array_equal(
        shuffle_global_to_local_major(np.arange(4, dtype=np.float32), 2, 2, 1),
        local_major,
    )


def test_shuffle_transpose_twice_with_swapped_axes_is_identity():
    rng = np.random.default_rng(0)
    buf = rng.standard_normal(2 * 3 * 4).astype(np.float32)
    once = shuffle_local_major_to_global(buf, 2, 3, 4)
    twice = shuffle_local_major_to_global(once, 3, 2, 4)
    assert np.array_equal(twice, buf)


@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    block=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(deadline=None, max_examples=40)
def test_shuffle_inverse_of_forward(n, m, block, seed):
    rng = np.random.default_rng(seed)
    buf = rng.standard_normal(n * m * block).astype(np.float32)
    forward = shuffle_local_major_to_global(buf, n, m, block)
    assert np.array_equal(shuffle_global_to_local_major(forward, n, m, block), buf)


def test_shuffle_length_mismatch():
    with pytest.raises(LengthMismatch):
        shuffle_local_major_to_global(np.zeros(5, np.float32), 2, 2, 1)


def test_shuffle_is_out_of_place():
    buf = np.arange(8, dtype=np.float32)
    out = shuffle_local_major_to_global(buf, 2, 2, 2)
    assert out is not buf
    assert not np.shares_memory(out, buf)


# --- plans ----------------------------------------------------------------


def test_plan_rejects_recursive_on_non_power_of_two_nodes():
    with pytest.raises(NonPowerOfTwo):
        HierPlan(topo=topo_for(3, 2), inter_alg="recursive")


def test_plan_auto_resolution():
    # Two nodes tie in the analytic model, so ring wins.
    plan2 = HierPlan(topo=topo_for(2, 2), inter_alg="auto")
    assert plan2.resolve_inter(1 << 20) == "ring"
    plan64 = HierPlan(topo=topo_for(64, 2), inter_alg="auto")
    assert plan64.resolve_inter(1 << 20) == "recursive"
    plan3 = HierPlan(topo=topo_for(3, 2), inter_alg="auto")
    assert plan3.resolve_inter(1 << 20) == "ring"


def test_plan_rejects_unknown_inter():
    with pytest.raises(Unsupported):
        HierPlan(topo=topo_for(2, 2), inter_alg="tree")


@pytest.mark.parametrize("table", [None, CalibrationTable()], ids=["none", "empty"])
def test_plan_refuses_table_mode_auto_without_entries(table):
    with pytest.raises(EmptyTable):
        HierPlan(topo=topo_for(4, 2), inter_alg="auto", selector_mode="table", table=table)
    # A fixed inter-node algorithm never reads the table.
    HierPlan(topo=topo_for(4, 2), inter_alg="ring", selector_mode="table", table=table)


def test_plan_rejects_unknown_selector_mode():
    with pytest.raises(Unsupported):
        HierPlan(topo=topo_for(2, 2), inter_alg="auto", selector_mode="tabel")


# --- collectives ----------------------------------------------------------


GRID = [(1, 1), (1, 2), (1, 8), (2, 2), (2, 4), (4, 2), (4, 8)]


@pytest.mark.parametrize("n_nodes,m_gpus", GRID)
@pytest.mark.parametrize("inter", ["ring", "recursive"])
def test_hier_all_gather_equals_flat_oracle(n_nodes, m_gpus, inter):
    topo = topo_for(n_nodes, m_gpus)
    p = topo.world_size
    plan = HierPlan(topo=topo, inter_alg=inter)
    inputs = integer_inputs(p, 6, seed=p * 13)
    outs = run_ranks(p, lambda c: hier_all_gather(plan, c, inputs[c.rank]))
    want = oracle_all_gather(inputs)
    for out in outs:
        assert np.array_equal(out, want)


@pytest.mark.parametrize("n_nodes,m_gpus", GRID)
@pytest.mark.parametrize("inter", ["ring", "recursive"])
def test_hier_reduce_scatter_equals_flat_oracle(n_nodes, m_gpus, inter):
    topo = topo_for(n_nodes, m_gpus)
    p = topo.world_size
    plan = HierPlan(topo=topo, inter_alg=inter)
    inputs = integer_inputs(p, 6 * p, seed=p * 17)
    outs = run_ranks(p, lambda c: hier_reduce_scatter(plan, c, inputs[c.rank]))
    want = oracle_reduce_scatter(inputs)
    for r, out in enumerate(outs):
        assert np.array_equal(out, want[r])


def test_hier_all_gather_single_node_reduces_to_intra():
    topo = topo_for(1, 4)
    plan = HierPlan(topo=topo, inter_alg="ring")
    inputs = integer_inputs(4, 3, seed=5)
    outs = run_ranks(4, lambda c: hier_all_gather(plan, c, inputs[c.rank]))
    for out in outs:
        assert np.array_equal(out, oracle_all_gather(inputs))


def test_hier_reduce_scatter_all_ones():
    topo = topo_for(2, 2)
    plan = HierPlan(topo=topo)
    inputs = [np.ones(4, dtype=np.float32) for _ in range(4)]
    outs = run_ranks(4, lambda c: hier_reduce_scatter(plan, c, inputs[c.rank]))
    for out in outs:
        assert np.array_equal(out, [4.0])


def test_hier_two_by_two_block_trace():
    topo = topo_for(2, 2)
    plan = HierPlan(topo=topo, inter_alg="ring")
    inputs = [np.array([float(g)], dtype=np.float32) for g in range(4)]
    outs = run_ranks(4, lambda c: hier_all_gather(plan, c, inputs[c.rank]))
    for out in outs:
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0])


def test_world_size_mismatch_raises():
    plan = HierPlan(topo=topo_for(2, 2))
    with pytest.raises(LengthMismatch):
        run_ranks(2, lambda c: hier_all_gather(plan, c, np.zeros(2, np.float32)))


def _inter_message_counts(topo, inter, n_elems=8):
    p = topo.world_size
    plan = HierPlan(topo=topo, inter_alg=inter)
    inputs = integer_inputs(p, n_elems, seed=3)
    _, log = run_logged(p, lambda c: hier_all_gather(plan, c, inputs[c.rank]))
    counts = {r: 0 for r in range(p)}
    for rec in log:
        if topo.node_of(rec.src) != topo.node_of(rec.dst):
            counts[rec.src] += 1
    return counts


def test_inter_node_message_count_ring_vs_recursive():
    topo = topo_for(4, 2)
    ring_counts = _inter_message_counts(topo, "ring")
    assert all(v == topo.num_nodes - 1 for v in ring_counts.values())
    rec_counts = _inter_message_counts(topo, "recursive")
    assert all(v == 2 for v in rec_counts.values())  # log2(4)


def test_hier_table_mode_uses_calibration():
    from collkit.costmodel import CalibrationEntry, CalibrationTable

    table = CalibrationTable()
    table.add(CalibrationEntry(4, 1 << 20, 1.0, 2.0, "ring"))
    plan = HierPlan(
        topo=topo_for(4, 2), inter_alg="auto", selector_mode="table", table=table
    )
    assert plan.resolve_inter(1 << 20) == "ring"


# --- sub-communicators ------------------------------------------------------


class StubEndpoint:
    """Endpoint that only knows its rank; any traffic is a test failure."""

    def __init__(self, rank):
        self.rank = rank

    def send(self, dst, tag, payload):
        raise AssertionError("unexpected send")

    def recv(self, src, tag):
        raise AssertionError("unexpected recv")


def test_sub_communicators_at_64_nodes_by_8_gpus():
    topo = Topology(64, 8, 4)
    plan = HierPlan(topo=topo, inter_alg="ring")
    p, m = topo.world_size, topo.gpus_per_node
    ids = set()
    for g in range(p):
        inter, intra = _sub_communicators(plan, Communicator(StubEndpoint(g), range(p)))
        node, local = divmod(g, m)
        assert inter.members == tuple(range(local, p, m))
        assert intra.members == tuple(range(node * m, (node + 1) * m))
        assert (inter.rank, intra.rank) == (node, local)
        ids.add((inter.comm_id, intra.comm_id))
    (inter_id, intra_id), = ids
    assert len({0, inter_id, intra_id}) == 3  # distinct from each other and the world
    assert max(inter_id, intra_id) <= MAX_COMM_ID


# --- strided phases against the flat ring -------------------------------------


@st.composite
def hier_shapes(draw):
    inter = draw(st.sampled_from(["ring", "recursive"]))
    if inter == "recursive":
        n_nodes = draw(st.sampled_from([1, 2, 4, 8]))
    else:
        n_nodes = draw(st.integers(1, 8))
    m_gpus = draw(st.integers(1, 8 // n_nodes))
    nics = draw(st.sampled_from([k for k in range(1, m_gpus + 1) if m_gpus % k == 0]))
    block = draw(st.integers(0, 5))
    return n_nodes, m_gpus, nics, block, inter


@given(shape=hier_shapes(), seed=st.integers(0, 2**16))
@example(shape=(1, 1, 1, 3, "ring"), seed=0)
@example(shape=(1, 4, 2, 2, "recursive"), seed=1)
@example(shape=(4, 1, 1, 2, "recursive"), seed=2)
@example(shape=(2, 3, 3, 1, "ring"), seed=3)
@example(shape=(3, 2, 1, 4, "ring"), seed=4)
@example(shape=(2, 4, 2, 0, "recursive"), seed=5)
@settings(deadline=None, max_examples=30)
def test_hier_strided_phases_match_flat_ring_and_oracle(shape, seed):
    n_nodes, m_gpus, nics, block, inter = shape
    topo = Topology(n_nodes, m_gpus, nics)
    p = topo.world_size
    plan = HierPlan(topo=topo, inter_alg=inter)

    ag_in = integer_inputs(p, block, seed)
    hier = run_ranks(p, lambda c: hier_all_gather(plan, c, ag_in[c.rank]))
    flat = run_ranks(p, lambda c: ring_all_gather(c, ag_in[c.rank]))
    want = expected_all_gather(ag_in)
    for h, f in zip(hier, flat):
        assert h.tobytes() == f.tobytes() == want.tobytes()

    rs_in = integer_inputs(p, block * p, seed + 1)
    hier = run_ranks(p, lambda c: hier_reduce_scatter(plan, c, rs_in[c.rank]))
    flat = run_ranks(p, lambda c: ring_reduce_scatter(c, rs_in[c.rank]))
    for h, f, w in zip(hier, flat, expected_reduce_scatter(rs_in)):
        assert h.tobytes() == f.tobytes() == w.tobytes()
