"""All-gather and reduce-scatter collectives over pluggable transports,
with an analytic cost model, a deterministic virtual-time network
simulator, and a benchmark harness."""

from . import bench, collectives, costmodel, errors, hierarchy, simnet, topology, transport
from .collectives import (
    recdbl_all_gather,
    rechalf_reduce_scatter,
    reduce_inplace,
    ring_all_gather,
    ring_reduce_scatter,
)
from .costmodel import (
    CalibrationTable,
    CostParams,
    choose_inter_algorithm,
    t_hierarchical,
    t_rec,
    t_ring,
)
from .hierarchy import (
    HierPlan,
    hier_all_gather,
    hier_reduce_scatter,
    shuffle_global_to_local_major,
    shuffle_local_major_to_global,
)
from .simnet import SimConfig, compare_policies, reduce_profile_gap, simulate
from .topology import (
    GroupSpec,
    Topology,
    inter_node_group,
    intra_node_group,
    nic_of,
)
from .transport import Communicator, InProcessTransport, VirtualTransport, run_ranks

__version__ = "0.1.0"

__all__ = [
    "bench",
    "collectives",
    "costmodel",
    "errors",
    "hierarchy",
    "simnet",
    "topology",
    "transport",
    "recdbl_all_gather",
    "rechalf_reduce_scatter",
    "reduce_inplace",
    "ring_all_gather",
    "ring_reduce_scatter",
    "CalibrationTable",
    "CostParams",
    "choose_inter_algorithm",
    "t_hierarchical",
    "t_rec",
    "t_ring",
    "HierPlan",
    "hier_all_gather",
    "hier_reduce_scatter",
    "shuffle_global_to_local_major",
    "shuffle_local_major_to_global",
    "SimConfig",
    "compare_policies",
    "reduce_profile_gap",
    "simulate",
    "GroupSpec",
    "Topology",
    "inter_node_group",
    "intra_node_group",
    "nic_of",
    "Communicator",
    "InProcessTransport",
    "VirtualTransport",
    "run_ranks",
]
