"""Deterministic virtual-time network simulator.

The simulator prices, one synchronous step at a time, the step schedules
of :mod:`collkit.collectives`: the very steps the real collectives execute,
so both send the same messages in the same steps. Each step is priced
against modeled resources:

* every message charges ``alpha + beta * bytes`` (at its inter/intra level)
  to its source rank, which serializes that rank's message launches;
* an inter-node message additionally charges ``beta_inter * bytes`` of
  serialization to its source NIC (egress) and destination NIC (ingress),
  and, under the ring-of-nodes physical topology, to every directed
  node-to-node link on its shortest ring path (ascending on ties);
* a reduction of ``b`` bytes charges ``gamma * b`` to the rank that folds
  the received data in.

A step's makespan is the maximum busy time over all resources touched in
that step; virtual time is the sum of step makespans. Intra-node traffic
never touches NICs or links. NIC byte/packet counters accumulate per NIC
index (summed over nodes); packets are ``ceil(bytes / packet_bytes)``.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat

from . import collectives
from .costmodel import CostParams
from .errors import ConfigMismatch, NotDivisible, Unsupported
from .hierarchy import INTER_ALGORITHMS, HierPlan
from .topology import Topology, inter_node_group, intra_node_group

NIC_POLICIES = ("balanced", "single_nic")
PHYS_TOPOLOGIES = ("fully_connected", "ring_of_nodes")
REDUCE_PROFILES = ("fast", "slow")

COLLECTIVES = ("all_gather", "reduce_scatter")
ALGORITHMS = ("ring", "recursive", "hierarchical")


@dataclass(frozen=True)
class SimConfig:
    topo: Topology
    params: CostParams = field(default_factory=CostParams)
    nic_policy: str = "balanced"
    phys_topology: str = "fully_connected"
    reduce_profile: str = "fast"

    def __post_init__(self) -> None:
        if self.nic_policy not in NIC_POLICIES:
            raise ValueError(f"nic_policy must be one of {NIC_POLICIES}")
        if self.phys_topology not in PHYS_TOPOLOGIES:
            raise ValueError(f"phys_topology must be one of {PHYS_TOPOLOGIES}")
        if self.reduce_profile not in REDUCE_PROFILES:
            raise ValueError(f"reduce_profile must be one of {REDUCE_PROFILES}")


@dataclass
class NicCounters:
    """Per-NIC-index byte and packet accounting, summed over nodes.

    ``posted_pkts`` counts packets written to a NIC by the network
    (ingress), ``non_posted_pkts`` packets read from it for transmission
    (egress)."""

    nics: int
    bytes_in: list[int] = field(default_factory=list)
    bytes_out: list[int] = field(default_factory=list)
    posted_pkts: list[int] = field(default_factory=list)
    non_posted_pkts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("bytes_in", "bytes_out", "posted_pkts", "non_posted_pkts"):
            if not getattr(self, name):
                setattr(self, name, [0] * self.nics)

    def total_bytes_in(self) -> int:
        return sum(self.bytes_in)

    def total_bytes_out(self) -> int:
        return sum(self.bytes_out)


@dataclass
class SimStep:
    index: int
    makespan: float
    message_count: int
    bytes_total: int
    reduction_count: int = 0
    messages: list[dict] | None = None


@dataclass
class StepTrace:
    steps: list[SimStep] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(s.makespan for s in self.steps)


@dataclass
class SimResult:
    seconds: float
    counters: NicCounters
    trace: StepTrace


def ring_hops(n_nodes: int, src_node: int, dst_node: int) -> list[tuple[int, int]]:
    """Directed links on the shortest ring path between two nodes,
    ascending direction on distance ties."""
    up = (dst_node - src_node) % n_nodes
    down = (src_node - dst_node) % n_nodes
    if up <= down:
        return [
            ((src_node + i) % n_nodes, (src_node + i + 1) % n_nodes)
            for i in range(up)
        ]
    return [
        ((src_node - i) % n_nodes, (src_node - i - 1) % n_nodes)
        for i in range(down)
    ]


class StepCoster:
    """Prices one synchronous step at a time and accumulates NIC counters.

    Also used by the simulated transport backend, so that executing real
    rank code under virtual time and replaying a generated schedule price
    messages identically.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.topo = config.topo
        self.params = config.params
        self.gamma = config.params.gamma(config.reduce_profile)
        self.counters = NicCounters(nics=self.topo.nics_per_node)

    def _nics_for(self, src: int, dst: int) -> tuple[int, int]:
        topo = self.topo
        if self.config.nic_policy == "single_nic":
            # All writes leave through NIC 0, all reads arrive at NIC K-1.
            return 0, topo.nics_per_node - 1
        return (
            topo.local_of(src) // topo.gpus_per_nic,
            topo.local_of(dst) // topo.gpus_per_nic,
        )

    def charge_step(
        self,
        messages,
        reductions=(),
        record: bool = False,
    ) -> tuple[float, list[dict] | None]:
        """Charge one step of ``(src, dst, nbytes)`` messages and
        ``(rank, nbytes)`` reductions; returns (makespan, records)."""
        topo = self.topo
        params = self.params
        pkt = params.packet_bytes
        busy: dict[tuple, float] = defaultdict(float)
        recorded: list[dict] | None = [] if record else None
        for src, dst, nbytes in messages:
            src_node, dst_node = topo.node_of(src), topo.node_of(dst)
            if src_node == dst_node:
                busy[("rank_net", src)] += params.alpha_intra + params.beta_intra * nbytes
                nic_src = nic_dst = None
            else:
                busy[("rank_net", src)] += params.alpha_inter + params.beta_inter * nbytes
                nic_src, nic_dst = self._nics_for(src, dst)
                wire = params.beta_inter * nbytes
                busy[("nic_out", src_node, nic_src)] += wire
                busy[("nic_in", dst_node, nic_dst)] += wire
                if self.config.phys_topology == "ring_of_nodes":
                    for a, b in ring_hops(topo.num_nodes, src_node, dst_node):
                        busy[("link", a, b)] += wire
                pkts = math.ceil(nbytes / pkt) if nbytes else 0
                c = self.counters
                c.bytes_out[nic_src] += nbytes
                c.non_posted_pkts[nic_src] += pkts
                c.bytes_in[nic_dst] += nbytes
                c.posted_pkts[nic_dst] += pkts
            if recorded is not None:
                recorded.append(
                    {
                        "src": src,
                        "dst": dst,
                        "bytes": nbytes,
                        "nic_src": nic_src,
                        "nic_dst": nic_dst,
                    }
                )
        for rank, nbytes in reductions:
            busy[("rank_reduce", rank)] += self.gamma * nbytes
        return (max(busy.values(), default=0.0), recorded)


# --- schedules ---------------------------------------------------------------
#
# A schedule yields (messages, reductions) per synchronous step, with
# messages as (src_world, dst_world, nbytes) and reductions as
# (rank_world, nbytes). Its steps are the flat algorithms' steps from
# collkit.collectives, the ones the real collectives execute, generated
# one at a time and never kept.


def _phase(collective: str, algorithm: str, groups, m_bytes: int):
    """Steps of one flat algorithm over ``m_bytes``, run at once by every
    group of ``groups`` (world-rank tuples of equal size): step i carries
    each group's step-i messages and reductions, group by group."""
    p = len(groups[0])
    if m_bytes % p != 0:
        raise NotDivisible(f"m_bytes={m_bytes} not divisible by p={p}")
    block = m_bytes // p
    reduces = collective == "reduce_scatter"
    for step in collectives.schedule(collective, algorithm, p):
        nbytes = step.width * block
        msgs: list = []
        reds: list = []
        for g in groups:
            msgs.extend(zip(g, [g[d] for d in step.to], repeat(nbytes)))
            if reduces:
                reds.extend(zip(g, repeat(nbytes)))
        yield msgs, reds


def _hier_schedule(config: SimConfig, collective: str, inter_alg: str, m_bytes: int):
    topo = config.topo
    p = topo.world_size
    if m_bytes % p != 0:
        raise NotDivisible(f"m_bytes={m_bytes} not divisible by p={p}")
    if inter_alg not in INTER_ALGORITHMS:
        raise Unsupported(f"unknown inter algorithm {inter_alg!r}")
    sub_m = m_bytes // topo.gpus_per_node
    inter_alg = HierPlan(topo, inter_alg, params=config.params).resolve_inter(sub_m)
    inter = [inter_node_group(topo, j).members for j in range(topo.gpus_per_node)]
    intra = [intra_node_group(topo, n).members for n in range(topo.num_nodes)]
    if collective == "all_gather":
        yield from _phase(collective, inter_alg, inter, sub_m)
        yield from _phase(collective, "ring", intra, m_bytes)
    else:
        yield from _phase(collective, "ring", intra, m_bytes)
        yield from _phase(collective, inter_alg, inter, sub_m)


def build_schedule(
    config: SimConfig,
    collective: str,
    algorithm: str,
    m_bytes: int,
    inter_alg: str = "ring",
):
    """Iterator of (messages, reductions) steps for one collective run.

    ``m_bytes`` is the gathered output size for all-gather and the
    per-rank input size for reduce-scatter (both equal p times the block).
    """
    if collective not in COLLECTIVES:
        raise Unsupported(f"unknown collective {collective!r}")
    if algorithm not in ALGORITHMS:
        raise Unsupported(f"unknown algorithm {algorithm!r}")
    if algorithm == "hierarchical":
        return _hier_schedule(config, collective, inter_alg, m_bytes)
    return _phase(collective, algorithm, [tuple(range(config.topo.world_size))], m_bytes)


def simulate(
    config: SimConfig,
    collective: str,
    algorithm: str,
    m_bytes: int,
    inter_alg: str = "ring",
    record_messages: bool = False,
) -> SimResult:
    """Run one collective schedule to completion under virtual time.

    Deterministic: identical inputs give bit-identical times, counters,
    and traces.
    """
    coster = StepCoster(config)
    trace = StepTrace()
    total = 0.0
    schedule = build_schedule(config, collective, algorithm, m_bytes, inter_alg)
    for index, (messages, reductions) in enumerate(schedule):
        makespan, recorded = coster.charge_step(
            messages, reductions, record=record_messages
        )
        total += makespan
        trace.steps.append(
            SimStep(
                index=index,
                makespan=makespan,
                message_count=len(messages),
                bytes_total=sum(m[2] for m in messages),
                reduction_count=len(reductions),
                messages=recorded,
            )
        )
    return SimResult(seconds=total, counters=coster.counters, trace=trace)


def compare_policies(
    config_a: SimConfig,
    config_b: SimConfig,
    collective: str,
    algorithm: str,
    m_bytes: int,
    inter_alg: str = "ring",
) -> float:
    """Virtual-time ratio of the single-NIC run over the balanced run for
    two configs that are identical apart from ``nic_policy``."""
    if dataclasses.replace(config_a, nic_policy="balanced") != dataclasses.replace(
        config_b, nic_policy="balanced"
    ):
        raise ConfigMismatch("configs differ beyond nic_policy")
    policies = {config_a.nic_policy, config_b.nic_policy}
    if policies != {"balanced", "single_nic"}:
        raise ConfigMismatch(f"need one balanced and one single_nic config, got {policies}")
    single = config_a if config_a.nic_policy == "single_nic" else config_b
    balanced = config_b if single is config_a else config_a
    t_single = simulate(single, collective, algorithm, m_bytes, inter_alg).seconds
    t_balanced = simulate(balanced, collective, algorithm, m_bytes, inter_alg).seconds
    return t_single / t_balanced


def reduce_profile_gap(
    config: SimConfig,
    m_bytes: int,
    algorithm: str = "ring",
    inter_alg: str = "ring",
) -> float:
    """Simulated reduce-scatter time with the slow reduction profile over
    the fast one, all else fixed."""
    slow = dataclasses.replace(config, reduce_profile="slow")
    fast = dataclasses.replace(config, reduce_profile="fast")
    t_slow = simulate(slow, "reduce_scatter", algorithm, m_bytes, inter_alg).seconds
    t_fast = simulate(fast, "reduce_scatter", algorithm, m_bytes, inter_alg).seconds
    return t_slow / t_fast


def trace_to_jsonl(trace: StepTrace, path) -> None:
    """One JSON record per step: index, messages (when recorded), and the
    step makespan in seconds."""
    with open(path, "w") as fh:
        for step in trace.steps:
            rec = {
                "step": step.index,
                "messages": step.messages if step.messages is not None else [],
                "makespan_s": step.makespan,
            }
            fh.write(json.dumps(rec) + "\n")


def counters_to_csv(counters: NicCounters, path) -> None:
    with open(path, "w") as fh:
        fh.write("nic,bytes_in,bytes_out,posted_pkts,non_posted_pkts\n")
        for nic in range(counters.nics):
            fh.write(
                f"{nic},{counters.bytes_in[nic]},{counters.bytes_out[nic]},"
                f"{counters.posted_pkts[nic]},{counters.non_posted_pkts[nic]}\n"
            )
