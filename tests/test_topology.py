import pytest
from hypothesis import given, strategies as st

from collkit.errors import IndexOutOfRange, InvalidTopology
from collkit.topology import Topology, inter_node_group, intra_node_group, nic_of


def test_build_singleton():
    topo = Topology(1, 1, 1)
    assert topo.world_size == 1


def test_build_two_nodes_eight_gpus_four_nics():
    topo = Topology(2, 8, 4)
    assert topo.world_size == 16
    assert topo.gpus_per_nic == 2


def test_build_rejects_indivisible_nics():
    with pytest.raises(InvalidTopology):
        Topology(2, 8, 3)


@pytest.mark.parametrize("counts", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 1)])
def test_build_rejects_nonpositive(counts):
    with pytest.raises(InvalidTopology):
        Topology(*counts)


def test_inter_node_group_members():
    topo = Topology(2, 2, 1)
    assert inter_node_group(topo, 0).members == (0, 2)
    assert inter_node_group(topo, 1).members == (1, 3)


def test_inter_node_group_rejects_bad_local():
    topo = Topology(3, 2, 1)
    with pytest.raises(IndexOutOfRange):
        inter_node_group(topo, 2)


def test_intra_node_group_members():
    assert intra_node_group(Topology(2, 2, 1), 1).members == (2, 3)
    assert intra_node_group(Topology(1, 4, 1), 0).members == (0, 1, 2, 3)


def test_intra_node_group_rejects_bad_node():
    with pytest.raises(IndexOutOfRange):
        intra_node_group(Topology(2, 2, 1), 2)


def test_nic_of_blocked_assignment():
    topo = Topology(1, 8, 4)
    assert nic_of(topo, 1) == 0
    assert nic_of(topo, 7) == 3
    single = Topology(1, 4, 1)
    assert nic_of(single, 3) == 0


def test_rank_id_coordinates():
    topo = Topology(3, 4, 2)
    assert (topo.node_of(7), topo.local_of(7)) == (1, 3)
    assert nic_of(topo, 7) == 1


small_topos = st.builds(
    lambda n, per_nic, k: Topology(n, per_nic * k, k),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)


@given(small_topos)
def test_groups_partition_world(topo):
    inter = [inter_node_group(topo, j).members for j in range(topo.gpus_per_node)]
    intra = [intra_node_group(topo, n).members for n in range(topo.num_nodes)]
    world = set(range(topo.world_size))
    for family in (inter, intra):
        seen = [r for members in family for r in members]
        assert len(seen) == len(set(seen)) == topo.world_size
        assert set(seen) == world


@given(small_topos, st.data())
def test_rank_numbering_round_trips(topo, data):
    g = data.draw(st.integers(0, topo.world_size - 1))
    assert topo.node_of(g) * topo.gpus_per_node + topo.local_of(g) == g
    assert topo.global_rank(topo.node_of(g), topo.local_of(g)) == g


@given(small_topos)
def test_nic_blocks_are_even(topo):
    per_nic = {}
    for local in range(topo.gpus_per_node):
        per_nic.setdefault(nic_of(topo, local), []).append(local)
    assert len(per_nic) == topo.nics_per_node
    for nic, locals_ in per_nic.items():
        assert len(locals_) == topo.gpus_per_nic
        assert locals_ == list(range(min(locals_), min(locals_) + topo.gpus_per_nic))
