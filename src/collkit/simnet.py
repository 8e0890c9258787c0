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
* a reduction of ``b`` bytes charges ``gamma * b`` to the reduction unit
  of the rank that folds the received data in: a resource of its own, so
  a rank's reduction overlaps its send in the same step, as in a
  pipelined GPU kernel, and the step costs the larger of the two.

A step's makespan is the maximum busy time over all resources touched in
that step; virtual time is the sum of step makespans. Intra-node traffic
never touches NICs or links. NIC byte/packet counters accumulate per NIC
index (summed over nodes); packets are ``ceil(bytes / packet_bytes)``.

:class:`StepCoster` prices any step of ``(src, dst, bytes)`` messages
literally, as the model above reads: one message at a time, adding each
charge to its resource's busy time, from 0.0 and in message order.

:func:`simulate` prices the runs of identical steps that a schedule is
made of (a ring phase is one run of p-1 steps, a recursive phase log2(p)
runs of one; a phase runs in every row of :func:`collkit.topology.groups`
at once) from a *census*: per run, its block width and step count,
its message and reduction counts, whether any message is inter- or
intra-node, the most inter-node messages on one NIC egress slot, one NIC
ingress slot and one ring link (counted with one difference array per
ring direction), and the inter-node messages sent and received per NIC
index. Three properties of the schedules make it exact, and the census
builder checks the first two:

1. every rank sends at most one message per step, and reduces at most
   once, so its busy time is ``0.0 + c``, which is ``c``;
2. every message of a run carries ``width * block`` bytes, so a NIC or
   link charged k times holds the sum of k equal charges ``w`` added in
   sequence from ``0.0``, as :class:`StepCoster` adds them;
3. adding ``w >= 0`` never decreases a float, so the resource charged
   most often holds the largest of those sums.

A census depends on the machine shape, the NIC policy, the physical
topology and the phase's algorithm, never on sizes or costs. So
:func:`_plan`, the one planner of :func:`simulate` and
:func:`build_schedule`, is cached per shape: (the topology's three
counts, NIC policy, physical topology, collective, algorithm, resolved
inter-node algorithm). A hierarchical run's phases are those of
:func:`collkit.costmodel.hierarchical_phases`, which the real
hierarchical collectives loop over too. For each phase the plan holds
the divisor of ``m_bytes`` that gives the block, one :class:`RunPrice`
per run, the seven numbers of its census that pricing and the trace read
(the busiest resource's charge count among them), and the phase's
NIC-counter weights. A warm call validates ``m_bytes``, resolves
``auto`` and prices each run with a few float operations in
:func:`_price`, the one pricing loop; :func:`simulate` also adds each
phase's counters once, in exact integer arithmetic.

A run's makespan is added once per step, in step order (:func:`_fold`: a
loop of ``+=`` up to ``_ACCUMULATE_ABOVE`` steps, above it
``np.add.accumulate``, which also adds strictly in sequence). So
seconds, counters and the trace (one :class:`TraceRun` per run;
``trace.steps`` builds the :class:`SimStep` list on read, anew unless a
reader holds the last one) are ``==`` to charging every step of
:func:`build_schedule` through :class:`StepCoster`, as the tests check.
:func:`seconds` costs O(runs), with no counters or trace. The trace
holds no messages: :func:`build_schedule` walks the same plan and yields
them.
"""
from __future__ import annotations

import functools
import itertools
import operator
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import collectives
from .costmodel import CostParams, hierarchical_phases, resolve_inter_algorithm
from .errors import LengthMismatch, NotDivisible, Unsupported
from .topology import Topology, groups

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
        if not isinstance(self.topo, Topology):
            raise Unsupported(f"topo must be a Topology, got {self.topo!r}")
        if self.nic_policy not in NIC_POLICIES:
            raise Unsupported(f"nic_policy must be one of {NIC_POLICIES}")
        if self.phys_topology not in PHYS_TOPOLOGIES:
            raise Unsupported(f"phys_topology must be one of {PHYS_TOPOLOGIES}")
        if self.reduce_profile not in REDUCE_PROFILES:
            raise Unsupported(f"reduce_profile must be one of {REDUCE_PROFILES}")


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
        for counts in (self.bytes_in, self.bytes_out, self.posted_pkts, self.non_posted_pkts):
            if not counts:
                counts.extend([0] * self.nics)


@dataclass(slots=True)
class SimStep:
    index: int
    makespan: float
    message_count: int
    bytes_total: int
    reduction_count: int = 0


class TraceRun(NamedTuple):
    """One run of identical steps as the trace keeps it: the steps
    ``first .. first + count - 1`` each have this makespan, message count,
    byte total and reduction count."""

    first: int
    count: int
    makespan: float
    message_count: int
    bytes_total: int
    reduction_count: int


class _Steps(list):
    __slots__ = ("__weakref__",)  # a plain list cannot be weakly referenced


@dataclass(eq=False)
class StepTrace:
    """The steps of a simulated run, kept as one record per run; two
    traces are ``==`` when their steps are."""

    runs: list[TraceRun] = field(default_factory=list)

    @property
    def steps(self) -> list[SimStep]:
        """One :class:`SimStep` per step, built on read: anew unless a reader
        holds the last list, as the trace keeps only a weak reference to it."""
        steps = getattr(self, "_steps", lambda: None)()
        if steps is None:
            steps = _Steps([
                SimStep(index, makespan, n, size, reductions)
                for first, count, makespan, n, size, reductions in self.runs
                for index in range(first, first + count)
            ])
            self._steps = weakref.ref(steps)
        return steps

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepTrace):
            return NotImplemented
        return self.steps == other.steps

    def __getstate__(self) -> dict:  # copies and pickles build their own steps
        return {"runs": self.runs}


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
    """Prices one synchronous step at a time and accumulates NIC counters."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.topo = config.topo
        self.params = config.params
        self.gamma = config.params.gamma(config.reduce_profile)
        self.counters = NicCounters(nics=self.topo.nics_per_node)

    def charge_step(self, messages, reductions=()) -> float:
        """Charge one step of ``(src, dst, nbytes)`` messages and
        ``(rank, nbytes)`` reductions, given as sequences of tuples or as
        ``(k, 3)`` and ``(k, 2)`` integer arrays; returns its makespan.

        Each charge is added, message by message, to the busy time of the
        resource it occupies, from 0.0; the makespan is the largest."""
        topo, params, config, c = self.topo, self.params, self.config, self.counters
        messages, reductions = _rows(topo, messages, 3), _rows(topo, reductions, 2)
        busy = defaultdict(float)
        for src, dst, nbytes in messages:
            src_node, dst_node = topo.node_of(src), topo.node_of(dst)
            if src_node == dst_node:
                busy["rank", src] += params.alpha_intra + params.beta_intra * nbytes
                continue
            busy["rank", src] += params.alpha_inter + params.beta_inter * nbytes
            nic_src, nic_dst = _nic_slots(topo, config.nic_policy, src, dst)
            wire = params.beta_inter * nbytes
            busy["nic_out", src_node, nic_src] += wire
            busy["nic_in", dst_node, nic_dst] += wire
            if config.phys_topology == "ring_of_nodes":
                for hop in ring_hops(topo.num_nodes, src_node, dst_node):
                    busy["link", hop] += wire
            pkts = -(-nbytes // params.packet_bytes)
            c.bytes_out[nic_src] += nbytes
            c.non_posted_pkts[nic_src] += pkts
            c.bytes_in[nic_dst] += nbytes
            c.posted_pkts[nic_dst] += pkts
        for rank, nbytes in reductions:
            busy["reduce", rank] += self.gamma * nbytes
        return max(busy.values(), default=0.0)


def _rows(topo: Topology, rows, width: int) -> list[list[int]]:
    """``rows`` as lists of ``width`` ints, after one bounds check: every
    rank (all columns but the last) in range, then no negative size."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, width).tolist()
    for row in rows:
        for rank in row[:-1]:
            topo.check_rank(rank)
    smallest = min((row[-1] for row in rows), default=0)
    if smallest < 0:
        raise LengthMismatch(f"negative byte count {smallest}")
    return rows


def _nic_slots(topo: Topology, nic_policy: str, src, dst):
    """The NIC index a message leaves through and arrives at, for one
    message or for arrays of them."""
    if nic_policy == "single_nic":
        # All writes leave through NIC 0, all reads arrive at NIC K-1.
        return src * 0, dst * 0 + topo.nics_per_node - 1
    m, per_nic = topo.gpus_per_node, topo.gpus_per_nic
    return src % m // per_nic, dst % m // per_nic


# --- schedules ---------------------------------------------------------------
#
# A schedule yields (messages, reductions, repeat) per run of identical
# synchronous steps: a (k, 3) int64 array of (src_world, dst_world, nbytes)
# rows and a (k, 2) array of (rank_world, nbytes) rows, both read-only, sent
# on each of ``repeat`` consecutive steps. Its runs are the flat algorithms'
# runs from collkit.collectives, the ones the real collectives execute,
# generated one at a time and never kept.

_NO_REDUCTIONS = np.empty((0, 2), dtype=np.int64)
_NO_REDUCTIONS.flags.writeable = False


def _phase(collective: str, algorithm: str, members: np.ndarray, block: int):
    """Runs of one flat algorithm over blocks of ``block`` bytes, run at
    once by every group of ``members``: each step of run j carries each
    group's run-j messages and reductions, group by group."""
    reduces = collective == "reduce_scatter"
    for run in collectives._runs(collective, algorithm, members.shape[1]):
        msgs = np.empty((members.size, 3), dtype=np.int64)
        msgs[:, 0] = members.reshape(-1)
        msgs[:, 1] = members[:, np.array(run.to)].reshape(-1)
        msgs[:, 2] = run.width * block
        msgs.flags.writeable = False
        yield msgs, msgs[:, ::2] if reduces else _NO_REDUCTIONS, run.count


def build_schedule(
    config: SimConfig,
    collective: str,
    algorithm: str,
    m_bytes: int,
    inter_alg: str = "ring",
):
    """Iterator of (messages, reductions, repeat) runs of identical steps
    for one collective run.

    ``m_bytes`` is the gathered output size for all-gather and the
    per-rank input size for reduce-scatter (both equal p times the block).
    """
    plan, m_bytes = _plan_of(config, collective, algorithm, m_bytes, inter_alg)
    return itertools.chain.from_iterable(
        _phase(
            collective, phase.algorithm, groups(config.topo, phase.kind), m_bytes // phase.divisor
        )
        for phase in plan
    )


# --- census and plan ---------------------------------------------------------


class RunCensus(NamedTuple):
    """What pricing a run of identical steps needs to know of its messages,
    whatever the block size (see the module docstring). Its first six
    fields are :class:`RunPrice`'s first six."""

    width: int  # blocks per message
    count: int  # steps in the run
    messages: int
    reductions: int
    inter: bool  # any message crosses nodes
    intra: bool  # any message stays on its node
    egress: int  # most inter-node messages on one NIC egress slot, node*K + nic
    ingress: int  # most inter-node messages on one NIC ingress slot
    link: int  # most inter-node messages on one directed ring link
    nic_out: tuple[int, ...]  # inter-node messages sent per NIC index
    nic_in: tuple[int, ...]  # inter-node messages received per NIC index


def _link_loads(n_nodes: int, src_node: np.ndarray, dst_node: np.ndarray) -> np.ndarray:
    """Messages per directed ring link (link a -> a+1 at 2a, a -> a-1 at
    2a+1), in O(messages + nodes): each shortest path is a range of
    consecutive links of one direction, so one difference array per
    direction marks +1 at its first link and -1 past its last. The links,
    numbered by the node they leave, are laid out twice so that no range
    wraps, and the two halves are folded after the running sum."""
    up = (dst_node - src_node) % n_nodes
    down = (src_node - dst_node) % n_nodes
    ascending = up <= down
    # Ascending: links src .. src+up-1. Descending: src-down+1 .. src, + N.
    first = np.where(ascending, src_node, src_node - down + 1 + n_nodes)
    stop = np.where(ascending, src_node + up, src_node + 1 + n_nodes)
    loads = np.empty((n_nodes, 2), dtype=np.int64)
    size = 2 * n_nodes + 1
    for direction, on in enumerate((ascending, ~ascending)):
        diff = np.bincount(first[on], minlength=size) - np.bincount(stop[on], minlength=size)
        loads[:, direction] = np.cumsum(diff)[:-1].reshape(2, n_nodes).sum(axis=0)
    return loads.reshape(-1)


def _run_census(topo: Topology, nic_policy: str, phys_topology: str, msgs, reds, count) -> RunCensus:
    """Census of one step of ``msgs`` and ``reds`` repeated ``count``
    times. Checks that every rank sends at most once and reduces at most
    once, and that every message carries the same bytes; the sizes are
    taken as the run's width."""
    src, dst, width = msgs.T
    assert np.bincount(src).max(initial=0) <= 1, "a rank sends twice in one step"
    assert np.bincount(reds[:, 0]).max(initial=0) <= 1, "a rank reduces twice in one step"
    assert (width == width[0]).all() and (reds[:, 1] == width[0]).all(), "sizes differ in a step"
    nics = topo.nics_per_node
    src_node, dst_node = src // topo.gpus_per_node, dst // topo.gpus_per_node
    inter = src_node != dst_node
    src_node, dst_node = src_node[inter], dst_node[inter]
    nic_src, nic_dst = _nic_slots(topo, nic_policy, src[inter], dst[inter])
    link = 0
    if phys_topology == "ring_of_nodes":
        link = int(_link_loads(topo.num_nodes, src_node, dst_node).max(initial=0))
    return RunCensus(
        width=int(width[0]),
        count=count,
        messages=len(msgs),
        reductions=len(reds),
        inter=bool(inter.any()),
        intra=not inter.all(),
        egress=int(np.bincount(src_node * nics + nic_src).max(initial=0)),
        ingress=int(np.bincount(dst_node * nics + nic_dst).max(initial=0)),
        link=link,
        nic_out=tuple(np.bincount(nic_src, minlength=nics).tolist()),
        nic_in=tuple(np.bincount(nic_dst, minlength=nics).tolist()),
    )


def _census(
    topo: Topology, nic_policy: str, phys_topology: str, kind: str, collective: str, algorithm: str
) -> tuple[RunCensus, ...]:
    """Census of every run of one phase, built from its schedule with
    one-byte blocks, so a message's size is its width."""
    return tuple(
        _run_census(topo, nic_policy, phys_topology, msgs, reds, count)
        for msgs, reds, count in _phase(collective, algorithm, groups(topo, kind), 1)
    )


class RunPrice(NamedTuple):
    """What pricing and the trace read of a run: its census's first six
    fields and its busiest NIC slot's or link's count, max(egress, ingress,
    link)."""

    width: int
    count: int
    messages: int
    reductions: int
    inter: bool
    intra: bool
    busiest: int


class Phase(NamedTuple):
    """One phase of a collective run as :func:`_plan` caches it: what
    pricing reads of its census on every call."""

    kind: str  # world, inter or intra group
    algorithm: str  # the flat algorithm its groups run
    divisor: int  # its block is m_bytes // divisor
    runs: tuple[RunPrice, ...]
    # The NIC-counter weights: the inter-node runs grouped by messages
    # moved per NIC index, (nic_in + nic_out) * count; per group, its runs'
    # widths and its non-zero (index, n) pairs. Index i gets n times the
    # widths' sum in blocks, and n times the sum of each width's packets,
    # since packets round up per message.
    nic_weights: tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]


def _planned_phase(kind: str, algorithm: str, divisor: int, census: tuple[RunCensus, ...]) -> Phase:
    """A :class:`Phase`, with what it reads on every call taken from
    ``census``."""
    widths = {}  # column of messages moved per NIC -> widths of its runs
    for run in census:
        if run.inter:
            moved = tuple(n * run.count for n in run.nic_in + run.nic_out)
            widths.setdefault(moved, []).append(run.width)
    return Phase(
        kind,
        algorithm,
        divisor,
        tuple(RunPrice(*run[:6], max(run.egress, run.ingress, run.link)) for run in census),
        tuple(
            (tuple(w), tuple((i, n) for i, n in enumerate(moved) if n))
            for moved, w in widths.items()
        ),
    )


@functools.lru_cache(maxsize=256)
def _plan(
    num_nodes: int,
    gpus_per_node: int,
    nics_per_node: int,
    nic_policy: str,
    phys_topology: str,
    collective: str,
    algorithm: str,
    inter: str | None,
) -> tuple[Phase, ...]:
    """The phases of one collective run, in order, each with its census:
    the world phase of a flat run, or the phases of
    :func:`collkit.costmodel.hierarchical_phases` for a hierarchical one
    over its resolved inter-node algorithm ``inter``.
    Cached per shape, never per size or cost, on the topology's counts: a
    Topology's hash and == run in Python. Refuses what the schedules do."""
    topo = Topology(num_nodes, gpus_per_node, nics_per_node)
    if algorithm == "hierarchical":
        phases = hierarchical_phases(topo, collective, inter)
    else:
        phases = [("world", algorithm, topo.world_size)]
    return tuple(
        _planned_phase(
            kind, alg, divisor, _census(topo, nic_policy, phys_topology, kind, collective, alg)
        )
        for kind, alg, divisor in phases
    )


def check_bytes(m_bytes: int, p: int) -> int:
    """``m_bytes`` as an int, refusing a size that is not an integer, then
    one that does not split evenly over ``p`` ranks, then a negative one."""
    try:
        m_bytes = operator.index(m_bytes)
    except TypeError:
        raise Unsupported(f"m_bytes must be an integer, got {m_bytes!r}") from None
    if m_bytes % p != 0:
        raise NotDivisible(f"m_bytes={m_bytes} not divisible by p={p}")
    if m_bytes < 0:
        raise LengthMismatch(f"negative byte count {m_bytes}")
    return m_bytes


def _plan_of(config: SimConfig, collective: str, algorithm: str, m_bytes: int, inter_alg: str):
    """The cached plan of one collective run and ``m_bytes`` as an int, after
    the checks: the names, then the size, then the shape (in :func:`_plan`).
    ``auto`` resolves on the run's sub-collective of m_bytes / M bytes."""
    if collective not in COLLECTIVES:
        raise Unsupported(f"unknown collective {collective!r}")
    if algorithm not in ALGORITHMS:
        raise Unsupported(f"unknown algorithm {algorithm!r}")
    topo = config.topo
    m_bytes = check_bytes(m_bytes, topo.world_size)
    inter = None
    if algorithm == "hierarchical":
        inter = resolve_inter_algorithm(
            inter_alg, topo.num_nodes, m_bytes // topo.gpus_per_node, config.params
        )
    shape = (topo.num_nodes, topo.gpus_per_node, topo.nics_per_node)
    plan = _plan(*shape, config.nic_policy, config.phys_topology, collective, algorithm, inter)
    return plan, m_bytes


# --- pricing -----------------------------------------------------------------

# Above this many adds, np.add.accumulate's fixed cost (about 1 us) is less
# than a Python loop's per-add cost.
_ACCUMULATE_ABOVE = 100


def _fold(total: float, w: float, k: int) -> float:
    """``total`` plus ``k`` adds of ``w``, one at a time in order: the float
    adds of ``total += w`` in a loop. ``np.add.accumulate`` adds strictly in
    sequence too, so it gives the same bits for long runs."""
    if k <= _ACCUMULATE_ABOVE:
        for _ in itertools.repeat(None, k):
            total += w
        return total
    terms = np.empty(k + 1)
    terms.fill(w)
    terms[0] = total
    return float(np.add.accumulate(terms)[-1])


def _makespan(run: RunPrice, b: int, params: CostParams, gamma: float) -> float:
    """The makespan :meth:`StepCoster.charge_step` gives one step of
    ``run`` with ``b`` bytes per message: the busiest NIC or link, charged
    ``busiest`` times, adds its charges one by one from 0.0, as
    :class:`StepCoster` does."""
    _, _, _, reductions, inter, intra, busiest = run
    wire = params.beta_inter * b
    # _fold(0.0, wire, busiest), inline for 0 or 1 adds (0.0 + -0.0 is 0.0).
    busy = _fold(0.0, wire, busiest) if busiest > 1 else 0.0 + wire if busiest else 0.0
    # Each ``t > busy`` keeps the first of equals, as ``max`` does.
    if inter and (t := params.alpha_inter + wire) > busy:
        busy = t
    if intra and (t := params.alpha_intra + params.beta_intra * b) > busy:
        busy = t
    if reductions and (t := gamma * b) > busy:
        busy = t
    return busy


def _count(counts: list[int], phase: Phase, block: int, packet_bytes: int) -> None:
    """Adds every step of ``phase``'s inter-node bytes and packets to
    ``counts``, the NIC counters as one list (bytes in, bytes out, posted
    and non-posted packets, each per NIC index), in exact integer
    arithmetic, in one pass over its weights."""
    posted = len(counts) // 2
    for widths, moved in phase.nic_weights:
        size = sum(widths) * block
        pkts = 0
        for width in widths:
            pkts += -(-(width * block) // packet_bytes)
        for i, n in moved:
            counts[i] += n * size
            counts[posted + i] += n * pkts


def _counters(k: int, counts: list[int]) -> NicCounters:
    """The NicCounters of ``k`` NICs of ``counts``, laid out as
    :func:`_count` adds them."""
    return NicCounters(k, counts[:k], counts[k : 2 * k], counts[2 * k : 3 * k], counts[3 * k :])


# TraceRun(...) from one tuple, without the NamedTuple's Python-level __new__.
_trace_run = functools.partial(tuple.__new__, TraceRun)


def _price(plan, m_bytes: int, params: CostParams, gamma: float, runs=None) -> float:
    """The seconds of one collective run of ``m_bytes`` from its ``plan``:
    each run's makespan, added once per step in step order. Appends each
    run's :class:`TraceRun` to ``runs`` when it is given."""
    first, total = 0, 0.0
    for phase in plan:
        block = m_bytes // phase.divisor
        for run in phase.runs:
            width, count, n, reductions, _, _, _ = run
            b = width * block
            makespan = _makespan(run, b, params, gamma)
            total = total + makespan if count == 1 else _fold(total, makespan, count)
            if runs is not None:
                runs.append(_trace_run((first, count, makespan, n, n * b, reductions)))
                first += count
    return total


def seconds(
    config: SimConfig,
    collective: str,
    algorithm: str,
    m_bytes: int,
    inter_alg: str = "ring",
) -> float:
    """The virtual seconds of one collective run, bit for bit
    ``simulate(...).seconds``, after the same checks, but without its NIC
    counters and trace."""
    params = config.params
    plan, m_bytes = _plan_of(config, collective, algorithm, m_bytes, inter_alg)
    return _price(plan, m_bytes, params, params.gamma(config.reduce_profile))


def simulate(
    config: SimConfig,
    collective: str,
    algorithm: str,
    m_bytes: int,
    inter_alg: str = "ring",
) -> SimResult:
    """Run one collective schedule to completion under virtual time.

    Deterministic: identical inputs give bit-identical times, counters,
    and traces. The seconds and the trace, one record per run, come from
    :func:`seconds`'s loop; each phase's integer counter deltas are added
    once.
    """
    k, params = config.topo.nics_per_node, config.params
    plan, m_bytes = _plan_of(config, collective, algorithm, m_bytes, inter_alg)
    runs = []
    total = _price(plan, m_bytes, params, params.gamma(config.reduce_profile), runs)
    counts = [0] * (4 * k)
    for phase in plan:
        if phase.nic_weights:
            _count(counts, phase, m_bytes // phase.divisor, params.packet_bytes)
    return SimResult(total, _counters(k, counts), StepTrace(runs))
