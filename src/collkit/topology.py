"""Machine model: nodes, GPUs per node, NICs per node, and rank groups.

Global ranks are node-major: ``rank = node * gpus_per_node + local``. With
that numbering, concatenating buffers by global rank is the same as
concatenating by (node, local), which keeps the block algebra of the
hierarchical collectives simple. :func:`groups` lays out the sub-groups
once, as rows of that grid: the hierarchical collectives take their
sub-communicators from it and the simulator its phases. Each NIC serves
a block of ``gpus_per_node // nics_per_node`` consecutive local ranks
(the simulator maps messages to NICs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidTopology, Unsupported


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


def groups(topo: Topology, kind: str) -> np.ndarray:
    """The rank groups of one kind, one row of world ranks per group.

    ``"world"`` is one row of every rank. ``"inter"`` has row j for the
    ranks of local index j, one per node by ascending node: column j of
    the node-major grid. ``"intra"`` has row n for the ranks of node n.
    """
    grid = np.arange(topo.world_size, dtype=np.int64)
    if kind == "world":
        return grid.reshape(1, -1)
    grid = grid.reshape(topo.num_nodes, topo.gpus_per_node)
    if kind == "inter":
        return grid.T
    if kind == "intra":
        return grid
    raise Unsupported(f"unknown group kind {kind!r}")
