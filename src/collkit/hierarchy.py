"""Two-level hierarchical all-gather and reduce-scatter.

All-gather runs an inter-node phase on the per-local-rank sub-communicators
(all of them concurrently), then an intra-node phase. Reduce-scatter
mirrors it: the intra-node phase first, then the inter-node phase. The
block transpose between global rank order and local-major order is fused
into the phases: they read and write strided views of the caller's input
and of the single output array, so no separate transpose pass runs (the
``shuffle_*`` functions remain as standalone utilities). The intra-node
algorithm is always ring; the inter-node algorithm is selectable (ring,
recursive, or auto via the cost model).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import costmodel
from .collectives import (
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

INTER_ALGORITHMS = ("ring", "recursive", "auto")

# Communicator ids of the sub-groups, agreed by all ranks. Inter-node
# groups are disjoint from each other, and so are intra-node groups, so
# no two groups sharing an id share a (src, dst) channel.
WORLD_COMM_ID, INTER_COMM_ID, INTRA_COMM_ID = 0, 1, 2


@dataclass(frozen=True)
class HierPlan:
    """Configuration for one hierarchical collective.

    ``inter_alg`` is "ring", "recursive", or "auto"; auto resolves per call
    through :func:`collkit.costmodel.choose_inter_algorithm` using
    ``params`` (analytic mode) or ``table`` (table mode).
    """

    topo: Topology
    inter_alg: str = "auto"
    params: costmodel.CostParams = field(default_factory=costmodel.CostParams)
    selector_mode: str = "analytic"
    table: "costmodel.CalibrationTable | None" = None

    def __post_init__(self) -> None:
        if self.inter_alg not in INTER_ALGORITHMS:
            raise Unsupported(f"inter_alg must be one of {INTER_ALGORITHMS}")
        if self.selector_mode not in costmodel.SELECTOR_MODES:
            raise Unsupported(f"selector_mode must be one of {costmodel.SELECTOR_MODES}")
        if self.inter_alg == "recursive" and not is_power_of_two(self.topo.num_nodes):
            raise NonPowerOfTwo(
                f"recursive inter-node algorithm requires a power-of-two node "
                f"count, got {self.topo.num_nodes}"
            )

    def resolve_inter(self, sub_m_bytes: int) -> str:
        """Concrete inter-node algorithm for a sub-collective of
        ``sub_m_bytes`` (the gathered output / reduced input size)."""
        return costmodel.resolve_inter_algorithm(
            self.inter_alg,
            self.topo.num_nodes,
            sub_m_bytes,
            self.params,
            mode=self.selector_mode,
            table=self.table,
        )


def shuffle_local_major_to_global(buf, num_nodes: int, gpus_per_node: int, block_len: int) -> np.ndarray:
    """Transpose an M x N grid of blocks (local-major order, as produced by
    the intra-node all-gather) into N x M (global rank order). Out of
    place: output block n*M + j is input block j*N + n."""
    arr = as_elements(buf)
    expected = num_nodes * gpus_per_node * block_len
    if arr.size != expected:
        raise LengthMismatch(f"buffer has {arr.size} elements, expected {expected}")
    if block_len == 0:
        return arr.copy()
    grid = arr.reshape(gpus_per_node, num_nodes, block_len)
    return np.ascontiguousarray(grid.transpose(1, 0, 2)).reshape(-1)


def shuffle_global_to_local_major(buf, num_nodes: int, gpus_per_node: int, block_len: int) -> np.ndarray:
    """Exact inverse of :func:`shuffle_local_major_to_global`."""
    arr = as_elements(buf)
    expected = num_nodes * gpus_per_node * block_len
    if arr.size != expected:
        raise LengthMismatch(f"buffer has {arr.size} elements, expected {expected}")
    if block_len == 0:
        return arr.copy()
    grid = arr.reshape(num_nodes, gpus_per_node, block_len)
    return np.ascontiguousarray(grid.transpose(1, 0, 2)).reshape(-1)


def _sub_communicators(plan: HierPlan, comm_world: Communicator):
    topo = plan.topo
    if comm_world.size != topo.world_size:
        raise LengthMismatch(
            f"communicator size {comm_world.size} != topology world {topo.world_size}"
        )
    g = comm_world.rank
    node, local = topo.node_of(g), topo.local_of(g)
    inter = comm_world.subgroup(groups(topo, "inter")[local].tolist(), INTER_COMM_ID)
    intra = comm_world.subgroup(groups(topo, "intra")[node].tolist(), INTRA_COMM_ID)
    return inter, intra


def _inter_all_gather(alg: str, comm: Communicator, buf, out: np.ndarray) -> np.ndarray:
    if alg == "recursive":
        return recdbl_all_gather(comm, buf, out=out)
    return ring_all_gather(comm, buf, out=out)


def _inter_reduce_scatter(alg: str, comm: Communicator, buf) -> np.ndarray:
    if alg == "recursive":
        return rechalf_reduce_scatter(comm, buf)
    return ring_reduce_scatter(comm, buf)


def hier_all_gather(plan: HierPlan, comm_world: Communicator, buf) -> np.ndarray:
    """Hierarchical all-gather; output is identical to a flat
    :func:`collkit.collectives.ring_all_gather` on the world communicator."""
    src = as_elements(buf)
    topo = plan.topo
    n_nodes, m_gpus = topo.num_nodes, topo.gpus_per_node
    n = src.size
    inter, intra = _sub_communicators(plan, comm_world)
    alg = plan.resolve_inter(n_nodes * n * 4)
    # Block (node, j) of the output is global rank node*M + j. The inter
    # phase of local rank j fills column j; the intra phase then gathers
    # the columns, so the output ends up in global order with no transpose.
    out = np.empty(n_nodes * m_gpus * n, dtype=np.float32)
    grid = out.reshape(n_nodes, m_gpus, n)
    column = grid[:, intra.rank, :]
    _inter_all_gather(alg, inter, src, column)
    ring_all_gather(intra, column, out=grid.transpose(1, 0, 2))
    return out


def hier_reduce_scatter(plan: HierPlan, comm_world: Communicator, buf) -> np.ndarray:
    """Hierarchical reduce-scatter; output is identical to a flat
    :func:`collkit.collectives.ring_reduce_scatter` on the world
    communicator."""
    src = as_elements(buf)
    topo = plan.topo
    n_nodes, m_gpus = topo.num_nodes, topo.gpus_per_node
    p = topo.world_size
    if src.size % p != 0:
        raise NotDivisible(f"input of {src.size} elements not divisible by p={p}")
    n = src.size // p
    inter, intra = _sub_communicators(plan, comm_world)
    alg = plan.resolve_inter(n_nodes * n * 4)
    # Chunk j of the intra phase is every block bound for inter-node group
    # j, read as a strided view of the input instead of a transposed copy.
    by_local = src.reshape(n_nodes, m_gpus, n).transpose(1, 0, 2)
    node_partials = ring_reduce_scatter(intra, by_local)
    return _inter_reduce_scatter(alg, inter, node_partials)
