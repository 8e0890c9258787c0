import numpy as np
import pytest
from hypothesis import given, strategies as st

from collkit.errors import InvalidTopology, Unsupported
from collkit.simnet import _nic_slots
from collkit.topology import Topology, groups


def balanced_nic(topo, rank):
    """The NIC a rank's messages leave through under the balanced policy."""
    nic_src, _ = _nic_slots(topo, "balanced", np.array([rank]), np.array([rank]))
    return int(nic_src[0])


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
    assert groups(Topology(2, 2, 1), "inter").tolist() == [[0, 2], [1, 3]]
    assert groups(Topology(3, 2, 1), "inter").tolist() == [[0, 2, 4], [1, 3, 5]]


def test_intra_node_group_members():
    assert groups(Topology(2, 2, 1), "intra")[1].tolist() == [2, 3]
    assert groups(Topology(1, 4, 1), "intra").tolist() == [[0, 1, 2, 3]]


def test_world_group_is_every_rank():
    assert groups(Topology(2, 3, 1), "world").tolist() == [[0, 1, 2, 3, 4, 5]]


def test_groups_reject_unknown_kind():
    with pytest.raises(Unsupported):
        groups(Topology(2, 2, 1), "node")


def test_nic_of_blocked_assignment():
    topo = Topology(1, 8, 4)
    assert balanced_nic(topo, 1) == 0
    assert balanced_nic(topo, 7) == 3
    single = Topology(1, 4, 1)
    assert balanced_nic(single, 3) == 0


def test_rank_id_coordinates():
    topo = Topology(3, 4, 2)
    assert (topo.node_of(7), topo.local_of(7)) == (1, 3)
    assert balanced_nic(topo, 7) == 1


small_topos = st.builds(
    lambda n, per_nic, k: Topology(n, per_nic * k, k),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)


@given(small_topos)
def test_groups_partition_world(topo):
    inter = groups(topo, "inter").tolist()
    intra = groups(topo, "intra").tolist()
    assert len(inter) == topo.gpus_per_node and len(intra) == topo.num_nodes
    world = set(range(topo.world_size))
    for family in (inter, intra):
        seen = [r for members in family for r in members]
        assert len(seen) == len(set(seen)) == topo.world_size
        assert set(seen) == world


@given(small_topos, st.data())
def test_rank_numbering_round_trips(topo, data):
    g = data.draw(st.integers(0, topo.world_size - 1))
    assert topo.node_of(g) * topo.gpus_per_node + topo.local_of(g) == g
    assert groups(topo, "intra")[topo.node_of(g), topo.local_of(g)] == g
    assert groups(topo, "inter")[topo.local_of(g), topo.node_of(g)] == g


@given(small_topos)
def test_nic_blocks_are_even(topo):
    per_nic = {}
    for local in range(topo.gpus_per_node):
        per_nic.setdefault(balanced_nic(topo, local), []).append(local)
    assert len(per_nic) == topo.nics_per_node
    for nic, locals_ in per_nic.items():
        assert len(locals_) == topo.gpus_per_nic
        assert locals_ == list(range(min(locals_), min(locals_) + topo.gpus_per_nic))
