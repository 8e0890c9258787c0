"""Machine model: nodes, GPUs per node, NICs per node, and rank groups.

Global ranks are node-major: ``rank = node * gpus_per_node + local``. With
that numbering, concatenating buffers by global rank is the same as
concatenating by (node, local), which keeps the block algebra of the
hierarchical collectives simple. Each NIC serves a block of
``gpus_per_node // nics_per_node`` consecutive local ranks.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, InvalidTopology


@dataclass(frozen=True)
class Topology:
    """A homogeneous machine shape.

    Attributes:
        num_nodes: number of nodes (N >= 1).
        gpus_per_node: ranks per node (M >= 1).
        nics_per_node: NICs per node (K >= 1, K must divide M).
    """

    num_nodes: int
    gpus_per_node: int
    nics_per_node: int

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1 or self.nics_per_node < 1:
            raise InvalidTopology(f"all counts must be >= 1, got {self}")
        if self.gpus_per_node % self.nics_per_node != 0:
            raise InvalidTopology(
                f"nics_per_node={self.nics_per_node} does not divide "
                f"gpus_per_node={self.gpus_per_node}"
            )

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def gpus_per_nic(self) -> int:
        return self.gpus_per_node // self.nics_per_node

    def check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.world_size:
            raise IndexOutOfRange(f"rank {rank} not in [0, {self.world_size})")
        return rank

    def node_of(self, rank: int) -> int:
        return self.check_rank(rank) // self.gpus_per_node

    def local_of(self, rank: int) -> int:
        return self.check_rank(rank) % self.gpus_per_node

    def global_rank(self, node: int, local: int) -> int:
        if not 0 <= node < self.num_nodes:
            raise IndexOutOfRange(f"node {node} not in [0, {self.num_nodes})")
        if not 0 <= local < self.gpus_per_node:
            raise IndexOutOfRange(f"local {local} not in [0, {self.gpus_per_node})")
        return node * self.gpus_per_node + local


@dataclass(frozen=True)
class GroupSpec:
    """An ordered group of global ranks forming a sub-communicator.

    ``kind`` is ``"inter_node"`` (one rank per node, all sharing the same
    local index) or ``"intra_node"`` (all ranks of one node). ``index`` is
    the local rank for inter-node groups and the node for intra-node
    groups.
    """

    kind: str
    index: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def inter_node_group(topo: Topology, local_rank: int) -> GroupSpec:
    """The group of the ranks with the given local index, one per node,
    ordered by ascending node index."""
    if not 0 <= local_rank < topo.gpus_per_node:
        raise IndexOutOfRange(
            f"local rank {local_rank} not in [0, {topo.gpus_per_node})"
        )
    members = tuple(
        node * topo.gpus_per_node + local_rank for node in range(topo.num_nodes)
    )
    return GroupSpec("inter_node", local_rank, members)


def intra_node_group(topo: Topology, node: int) -> GroupSpec:
    """The group of all ranks on one node, ordered by local rank."""
    if not 0 <= node < topo.num_nodes:
        raise IndexOutOfRange(f"node {node} not in [0, {topo.num_nodes})")
    base = node * topo.gpus_per_node
    return GroupSpec("intra_node", node, tuple(range(base, base + topo.gpus_per_node)))


def nic_of(topo: Topology, rank: int) -> int:
    """NIC index serving a rank: local ranks are assigned to NICs in
    consecutive blocks of ``gpus_per_node // nics_per_node``."""
    return topo.local_of(rank) // topo.gpus_per_nic
