"""Two-level hierarchical all-gather and reduce-scatter.

Their phases are :func:`collkit.costmodel.hierarchical_phases`, which the
simulator and the cost model read too: all-gather runs the inter-node
phase on the per-local-rank sub-communicators (all at once), then an
intra-node ring; reduce-scatter runs them in reverse. Each phase is a flat
collective on the sub-communicator of its kind, reading and writing
strided views of the caller's input and of the single output array, so no
separate transpose pass runs (the ``shuffle_*`` functions remain as
standalone utilities). The inter-node algorithm is ring (the default),
recursive, or auto via the cost model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import collectives, costmodel

# The flat wrappers stay importable from here: perfbench rebinds them by name.
from .collectives import (  # noqa: F401
    as_elements,
    is_power_of_two,
    recdbl_all_gather,
    rechalf_reduce_scatter,
    ring_all_gather,
    ring_reduce_scatter,
)
from .errors import LengthMismatch, NonPowerOfTwo, NotDivisible, Unsupported
from .topology import Topology, groups

if TYPE_CHECKING:
    from .transport.base import Communicator

# Communicator ids of the sub-groups, agreed by all ranks. Inter-node
# groups are disjoint from each other, and so are intra-node groups, so
# no two groups sharing an id share a (src, dst) channel.
WORLD_COMM_ID, INTER_COMM_ID, INTRA_COMM_ID = 0, 1, 2


@dataclass(frozen=True)
class HierPlan:
    """Configuration for one hierarchical collective.

    ``inter_alg`` is "ring" (the default, as in :func:`collkit.simnet.simulate`),
    "recursive", or "auto"; auto resolves per call through
    :func:`collkit.costmodel.choose_inter_algorithm` with ``params``, as
    the simulator and :func:`collkit.costmodel.t_hierarchical` resolve it.
    """

    topo: Topology
    inter_alg: str = "ring"
    params: costmodel.CostParams = field(default_factory=costmodel.CostParams)

    def __post_init__(self) -> None:
        if self.inter_alg not in costmodel.INTER_ALGORITHMS:
            raise Unsupported(f"inter_alg must be one of {costmodel.INTER_ALGORITHMS}")
        if self.inter_alg == "recursive" and not is_power_of_two(self.topo.num_nodes):
            raise NonPowerOfTwo(
                f"recursive inter-node algorithm requires a power-of-two node "
                f"count, got {self.topo.num_nodes}"
            )

    def resolve_inter(self, sub_m_bytes: int) -> str:
        """Concrete inter-node algorithm for a sub-collective of
        ``sub_m_bytes`` (the gathered output / reduced input size)."""
        return costmodel.resolve_inter_algorithm(
            self.inter_alg, self.topo.num_nodes, sub_m_bytes, self.params
        )


def _transposed_blocks(buf, rows: int, cols: int, block_len: int) -> np.ndarray:
    """A rows x cols grid of blocks, transposed into a new cols x rows grid."""
    arr = as_elements(buf)
    expected = rows * cols * block_len
    if arr.size != expected:
        raise LengthMismatch(f"buffer has {arr.size} elements, expected {expected}")
    if block_len == 0:
        return arr.copy()
    grid = arr.reshape(rows, cols, block_len)
    return np.ascontiguousarray(grid.transpose(1, 0, 2)).reshape(-1)


def shuffle_local_major_to_global(buf, num_nodes: int, gpus_per_node: int, block_len: int) -> np.ndarray:
    """Transpose an M x N grid of blocks (local-major order, as produced by
    the intra-node all-gather) into N x M (global rank order). Out of
    place: output block n*M + j is input block j*N + n."""
    return _transposed_blocks(buf, gpus_per_node, num_nodes, block_len)


def shuffle_global_to_local_major(buf, num_nodes: int, gpus_per_node: int, block_len: int) -> np.ndarray:
    """Exact inverse of :func:`shuffle_local_major_to_global`."""
    return _transposed_blocks(buf, num_nodes, gpus_per_node, block_len)


def _sub_communicators(plan: HierPlan, comm_world: Communicator):
    topo = plan.topo
    if comm_world.size != topo.world_size:
        raise LengthMismatch(
            f"communicator size {comm_world.size} != topology world {topo.world_size}"
        )
    node, local = divmod(comm_world.rank, topo.gpus_per_node)
    inter = comm_world.subgroup(groups(topo, "inter")[local].tolist(), INTER_COMM_ID)
    intra = comm_world.subgroup(groups(topo, "intra")[node].tolist(), INTRA_COMM_ID)
    return inter, intra


def _phases(plan: HierPlan, collective: str, comm_world: Communicator, sub_m_bytes: int):
    """(group kind, sub-communicator, flat algorithm) of each phase, in run
    order; ``auto`` resolves on the inter-node phase's ``sub_m_bytes``."""
    comms = dict(zip(("inter", "intra"), _sub_communicators(plan, comm_world)))
    inter = plan.resolve_inter(sub_m_bytes)
    phases = costmodel.hierarchical_phases(plan.topo, collective, inter)
    return [(kind, comms[kind], alg) for kind, alg, _ in phases]


def hier_all_gather(plan: HierPlan, comm_world: Communicator, buf) -> np.ndarray:
    """Hierarchical all-gather; output is identical to a flat
    :func:`collkit.collectives.ring_all_gather` on the world communicator."""
    src = as_elements(buf)
    topo = plan.topo
    n = src.size
    phases = _phases(plan, "all_gather", comm_world, topo.num_nodes * n * 4)
    # Block (node, j) of the output is global rank node*M + j. The inter
    # phase of local rank j fills column j; the intra phase then gathers
    # the columns, so the output ends up in global order with no transpose.
    out = np.empty(topo.world_size * n, dtype=np.float32)
    grid = out.reshape(topo.num_nodes, topo.gpus_per_node, n)
    outs = {"inter": grid[:, topo.local_of(comm_world.rank), :], "intra": grid.transpose(1, 0, 2)}
    data = src
    for kind, comm, alg in phases:
        data = collectives.all_gather(comm, alg, data, out=outs[kind])
    return out


def hier_reduce_scatter(plan: HierPlan, comm_world: Communicator, buf) -> np.ndarray:
    """Hierarchical reduce-scatter; output is identical to a flat
    :func:`collkit.collectives.ring_reduce_scatter` on the world communicator."""
    src = as_elements(buf)
    topo = plan.topo
    p = topo.world_size
    if src.size % p != 0:
        raise NotDivisible(f"input of {src.size} elements not divisible by p={p}")
    n = src.size // p
    phases = _phases(plan, "reduce_scatter", comm_world, topo.num_nodes * n * 4)
    # Chunk j of the intra phase is every block bound for inter-node group
    # j, read as a strided view of the input instead of a transposed copy.
    data = src.reshape(topo.num_nodes, topo.gpus_per_node, n).transpose(1, 0, 2)
    for _, comm, alg in phases:
        data = collectives.reduce_scatter(comm, alg, data)
    return data
