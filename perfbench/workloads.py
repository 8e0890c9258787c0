"""The four benchmark workloads and their traced variants.

``sim-scale`` and ``sim-links`` price simulated schedules and move no data:
they are deterministic batch jobs and take no seed. ``inproc-bulk`` and
``inproc-small`` run real collectives on the rank threads of the in-process
transport as closed loops: each rank issues its next collective only after
its previous one returned.

A pass is one run through a workload's op list: every cell for a sim
workload, one call of each collective for an in-process one. Every op's
output is checked (outside every timed interval) and an op that fails its
check counts in ``failed`` and is left out of every timing.
"""
from __future__ import annotations

import functools
import json
import math
import os
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from collkit import collectives, costmodel, hierarchy, simnet, topology
from collkit.bench import oracles, sweep
from collkit.costmodel import CostParams
from collkit.simnet import SimConfig
from collkit.topology import Topology
from collkit.transport.base import Communicator
from collkit.transport.inprocess import InProcessTransport, run_ranks

import measure
import tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SETUPS = 5  # full set-ups per untraced run; setup_s is their median
WARM_WORLD = 512  # a sim set-up's cold pass runs the cells of at most this many ranks
WORLD_GRACE_S = 60.0  # a rank world still running this long past its budget is hung


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    error: str | None = None
    setup_s: list[float] = field(default_factory=list)
    pass_rates: list[float] = field(default_factory=list)  # messages per host second
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# --- simulator workloads ------------------------------------------------------

SCALE_NODES = (4, 8, 16, 32, 64, 128, 256)
SCALE_PARAMS = CostParams(alpha_inter=50e-6)
CALIB_NODES = (4, 8, 16, 32, 64, 128)
CALIB_SIZES = tuple(2**i << 20 for i in range(4, 11))  # 16 MiB .. 1 GiB
LINKS_PARAMS = CostParams(alpha_inter=40e-6, beta_inter=0.004e-9)
SIM_M_BYTES = 64 << 20


@dataclass(frozen=True)
class SimOp:
    """One timed call into the simulator and how to check its result."""

    key: str
    world: int
    run: Callable[[], object]
    summary: Callable[[object], dict]
    model_check: Callable[[object], bool] | None = None
    hier: tuple | None = None  # (topo, m_bytes, inter_alg, params) of a hierarchical cell


def sim_summary(result) -> dict:
    """Exact record of a simulated cell: seconds as repr, NIC counters and
    the number of messages priced."""
    c = result.counters
    return {
        "seconds": repr(result.seconds),
        "counters": [c.bytes_in, c.bytes_out, c.posted_pkts, c.non_posted_pkts],
        "msgs": sum(s.message_count for s in result.trace.steps),
    }


def calibration_summary(table) -> dict:
    return {
        "entries": [
            [e.n_nodes, e.m_bytes, repr(e.ring_seconds), repr(e.recursive_seconds), e.winner]
            for e in table.entries
        ]
    }


def calibration_matches_model(table) -> bool:
    """Criterion 2's tolerance on the flat N x 1 x 1 cells. A ring step
    crosses one link, so ring cells equal ``t_ring``; recursive exchanges
    share ring links over several hops, so ``t_rec`` is only a lower bound."""
    for e in table.entries:
        ring = costmodel.t_ring(e.n_nodes, e.m_bytes, LINKS_PARAMS)
        rec = costmodel.t_rec(e.n_nodes, e.m_bytes, LINKS_PARAMS)
        if not math.isclose(e.ring_seconds, ring, rel_tol=1e-12):
            return False
        if e.recursive_seconds < rec * (1 - 1e-12):
            return False
    return True


def _sim_cell(key, config, collective, algorithm, inter_alg="ring") -> SimOp:
    def run():
        return simnet.simulate(config, collective, algorithm, SIM_M_BYTES, inter_alg=inter_alg)

    hier = None
    if algorithm == "hierarchical":
        hier = (config.topo, SIM_M_BYTES, inter_alg, config.params)
    return SimOp(key, config.topo.world_size, run, sim_summary, hier=hier)


def scale_ops() -> list[SimOp]:
    """Criterion 5's grid: flat ring and hierarchical-recursive all-gather."""
    ops = []
    for n in SCALE_NODES:
        config = SimConfig(topo=Topology(n, 8, 4), params=SCALE_PARAMS)
        ops.append(_sim_cell(f"scale:ag:ring:{n}x8x4", config, "all_gather", "ring"))
        ops.append(
            _sim_cell(
                f"scale:ag:hier-recursive:{n}x8x4", config, "all_gather", "hierarchical", "recursive"
            )
        )
    return ops


def links_ops() -> list[SimOp]:
    """Criterion 6's calibration grid on a ring of nodes, then slow-reduction
    reduce-scatter at 64x8x4 under both NIC policies."""

    def calibrate():
        return sweep.calibrate_selector(
            CALIB_NODES, CALIB_SIZES, LINKS_PARAMS, phys_topology="ring_of_nodes"
        )

    ops = [
        SimOp(
            "links:calibrate",
            max(CALIB_NODES),
            calibrate,
            calibration_summary,
            model_check=calibration_matches_model,
        )
    ]
    for policy in ("balanced", "single_nic"):
        config = SimConfig(
            topo=Topology(64, 8, 4),
            params=LINKS_PARAMS,
            nic_policy=policy,
            phys_topology="ring_of_nodes",
            reduce_profile="slow",
        )
        for algorithm, inter in (
            ("ring", "ring"),
            ("recursive", "ring"),
            ("hierarchical", "ring"),
            ("hierarchical", "recursive"),
            ("hierarchical", "auto"),
        ):
            name = algorithm if algorithm != "hierarchical" else f"hier-{inter}"
            ops.append(
                _sim_cell(f"links:rs:{name}:{policy}", config, "reduce_scatter", algorithm, inter)
            )
    return ops


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def sim_check(op: SimOp, result, reference: dict) -> bool:
    want = reference.get(op.key)
    if want is None or op.summary(result) != want["result"]:
        return False
    return op.model_check is None or op.model_check(result)


def sim_pass(ops, reference, out: Outcome, timed: bool) -> float:
    """Run every op once, checking each; a timed pass appends its rate
    (messages of the ops that passed over their summed host seconds).
    Returns the wall time of the pass."""
    start = time.perf_counter()
    msgs, host = 0, 0.0
    for op in ops:
        t0 = time.perf_counter()
        result = op.run()
        elapsed = time.perf_counter() - t0
        ok = sim_check(op, result, reference)
        out.count(ok)
        if ok:
            msgs += reference[op.key]["msgs"]
            host += elapsed
    if timed and host > 0:
        out.pass_rates.append(msgs / host)
    return time.perf_counter() - start


def model_over_sim(ops, reference) -> float:
    """``t_hierarchical`` over simulated seconds on the hierarchical cells,
    the ratio farthest from 1 (0 when there are none)."""
    worst = 0.0
    for op in ops:
        if op.hier is None:
            continue
        topo, m_bytes, inter_alg, params = op.hier
        ratio = costmodel.t_hierarchical(topo, m_bytes, inter_alg, params) / float(
            reference[op.key]["result"]["seconds"]
        )
        if worst == 0.0 or abs(math.log(ratio)) > abs(math.log(worst)):
            worst = ratio
    return worst


def _sim_setup(make_ops, out: Outcome):
    ops = make_ops()
    t0 = time.perf_counter()
    reference = load_reference()
    out.layers["bench.verify_s"] = time.perf_counter() - t0
    out.layers["bench.inputs_s"] = 0.0
    sim_pass([op for op in ops if op.world <= WARM_WORLD], reference, out, timed=False)
    return ops, reference


def run_sim(make_ops, seconds: float, out: Outcome) -> None:
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ops, reference = _sim_setup(make_ops, out)
        out.setup_s.append(time.perf_counter() - t0)
    # Whole passes only: stop before a pass that would end past ``seconds``.
    start = time.perf_counter()
    while True:
        wall = sim_pass(ops, reference, out, timed=True)
        if time.perf_counter() - start + wall > seconds:
            break
    base = sum(reference[op.key]["msgs"] for op in ops)
    rate = statistics.median(out.pass_rates)
    out.report["sim_msgs_per_s"] = (rate, "msg/s")
    out.notes.append(
        f"sim_msgs_per_s base: {base} simulated messages per pass, "
        f"{len(out.pass_rates)} timed passes; deterministic, the seed is not used"
    )


def _install_sim_spans(rec: tracer.Recorder, patch: tracer.Patcher) -> None:
    build = simnet.build_schedule

    def build_schedule(*args, **kwargs):
        token = rec.begin()
        try:
            steps = build(*args, **kwargs)
        finally:
            rec.end(token, "simnet.schedule")
        return tracer.timed_iter(rec, "simnet.schedule", steps)

    charge = simnet.StepCoster.charge_step

    def charge_step(self, messages, reductions=(), record=False):
        rec.add("simnet.steps")
        rec.add("simnet.msgs", len(messages))
        rec.add("simnet.reductions", len(reductions))
        token = rec.begin()
        try:
            return charge(self, messages, reductions, record)
        finally:
            rec.end(token, "simnet.charge_step")

    patch.set(simnet, "build_schedule", build_schedule)
    patch.set(simnet.StepCoster, "charge_step", charge_step)
    patch.set(simnet, "simulate", tracer.spanned(rec, "simnet.simulate", simnet.simulate))
    patch.set(
        sweep, "calibrate_selector",
        tracer.spanned(rec, "bench.calibrate_selector", sweep.calibrate_selector),
    )
    _install_selector_span(rec, patch)


def _install_selector_span(rec, patch) -> None:
    patch.set(
        costmodel, "choose_inter_algorithm",
        tracer.spanned(rec, "costmodel.choose_inter_algorithm", costmodel.choose_inter_algorithm),
    )


def _install_sim_counters(rec: tracer.Recorder, patch: tracer.Patcher) -> None:
    """Per-call counters kept out of the span pass, whose pricing time they
    would inflate."""
    for name in ("check_rank", "node_of", "local_of"):
        patch.set(
            topology.Topology, name,
            tracer.counted(rec, "topology.lookups", getattr(topology.Topology, name)),
        )
    hops = simnet.ring_hops

    def ring_hops(n_nodes, src_node, dst_node):
        path = hops(n_nodes, src_node, dst_node)
        rec.add("simnet.link_charges", len(path))
        return path

    patch.set(simnet, "ring_hops", ring_hops)


def trace_sim(make_ops, out: Outcome, trace_path: Path) -> None:
    ops, reference = _sim_setup(make_ops, out)
    untraced = sim_pass(ops, reference, out, timed=False)

    rec, patch = tracer.Recorder(), tracer.Patcher()
    _install_sim_spans(rec, patch)
    try:
        traced = sim_pass(ops, reference, out, timed=False)
    finally:
        patch.restore()

    counter = tracer.Recorder()
    _install_sim_counters(counter, patch)
    try:
        sim_pass(ops, reference, out, timed=False)
    finally:
        patch.restore()

    spans = rec.spans()
    counts = {**rec.counts(), **counter.counts()}
    layers = out.layers
    msgs = counts.get("simnet.msgs", 0)
    layers["simnet.msgs"] = msgs
    layers["simnet.steps"] = counts.get("simnet.steps", 0)
    layers["simnet.schedule_s"] = tracer.total_time(spans, "simnet.schedule")
    layers["simnet.price_s"] = tracer.total_time(spans, "simnet.charge_step")
    layers["simnet.ns_per_msg"] = (
        (layers["simnet.schedule_s"] + layers["simnet.price_s"]) / msgs * 1e9 if msgs else 0.0
    )
    layers["simnet.link_charges"] = counts.get("simnet.link_charges", 0)
    layers["simnet.reductions"] = counts.get("simnet.reductions", 0)
    layers["topology.lookups_per_msg"] = counts.get("topology.lookups", 0) / msgs if msgs else 0.0
    _selector_layers(spans, 1, layers)
    layers["costmodel.model_over_sim"] = model_over_sim(ops, reference)
    layers["bench.trace_overhead"] = traced / untraced - 1
    base = sum(reference[op.key]["msgs"] for op in ops)
    out.notes.append(
        f"simnet.msgs {msgs} {'equals' if msgs == base else 'DIFFERS from'} "
        f"the sim_msgs_per_s base {base}"
    )
    rec.write_chrome_trace(trace_path, {"counts": counts, "layers": layers})


def _selector_layers(spans, passes: int, layers: dict) -> None:
    calls = [s for s in spans if s[tracer.NAME] == "costmodel.choose_inter_algorithm"]
    layers["costmodel.select_calls"] = len(calls) / passes
    layers["costmodel.select_s"] = sum(s[tracer.END] - s[tracer.START] for s in calls) / passes


# --- in-process workloads -----------------------------------------------------

FLAT = {
    ("all_gather", "ring"): "ring_all_gather",
    ("all_gather", "recursive"): "recdbl_all_gather",
    ("reduce_scatter", "ring"): "ring_reduce_scatter",
    ("reduce_scatter", "recursive"): "rechalf_reduce_scatter",
}
HIER = {"all_gather": "hier_all_gather", "reduce_scatter": "hier_reduce_scatter"}
SHUFFLES = ("shuffle_local_major_to_global", "shuffle_global_to_local_major")
COLLECTIVE_SPANS = frozenset(f"collectives.{name}" for name in FLAT.values())


@dataclass(frozen=True)
class InprocSpec:
    topo: Topology
    block_elems: int  # float32 elements per rank block
    ops: tuple[tuple[str, str], ...]  # (collective, algorithm) per op of a pass
    barriers: bool  # time each call on rank 0 from a barrier to a barrier
    cold_passes: int  # passes run and discarded at the end of set-up
    trace_passes: int  # passes run by the traced variant, traced and untraced
    # Rank 0's per-call sample buffer, allocated and touched in full at
    # set-up so that a faster program does not show a larger peak RSS; a
    # loop that fills it ends early.
    max_calls: int
    # Run every rank thread on one CPU, so that a wake-up never waits for
    # the hypervisor to wake an idle virtual CPU.
    one_cpu: bool = False

    @property
    def p(self) -> int:
        return self.topo.world_size

    @property
    def m_bytes(self) -> int:
        """Gathered output (all-gather) or per-rank input (reduce-scatter)."""
        return self.p * self.block_elems * 4


BULK = InprocSpec(
    topo=Topology(2, 2, 1),
    block_elems=1 << 20,  # 4 MiB blocks, 16 MiB gathered
    ops=tuple(
        (c, a)
        for c in ("all_gather", "reduce_scatter")
        for a in ("ring", "recursive", "hierarchical")
    ),
    barriers=True,
    cold_passes=5,  # call times settle over the first four passes
    trace_passes=3,
    max_calls=1 << 14,
)
SMALL = InprocSpec(
    topo=Topology(1, 2, 1),
    block_elems=1024,  # 4 KiB blocks
    ops=tuple(
        (c, a) for c in ("all_gather", "reduce_scatter") for a in ("ring", "recursive")
    ),
    barriers=False,
    cold_passes=250,
    trace_passes=1000,
    max_calls=1 << 19,
    one_cpu=True,  # spread on 2 CPUs it ran at half the rate, and swung 2x between runs
)


def flat_msgs(algorithm: str, p: int) -> int:
    return (p - 1) * p if algorithm == "ring" else (p.bit_length() - 1) * p


def op_msgs(spec: InprocSpec, algorithm: str) -> int:
    """Point-to-point messages one call sends over all ranks."""
    topo = spec.topo
    if algorithm != "hierarchical":
        return flat_msgs(algorithm, topo.world_size)
    n, m = topo.num_nodes, topo.gpus_per_node
    inter = hierarchy.HierPlan(topo=topo, inter_alg="auto").resolve_inter(
        n * spec.block_elems * 4
    )
    return m * flat_msgs(inter, n) + n * flat_msgs("ring", m)


def op_function(spec: InprocSpec, collective: str, algorithm: str):
    """The public collective for one op, looked up when a world starts so
    that a traced world calls the wrapped functions."""
    if algorithm == "hierarchical":
        plan = hierarchy.HierPlan(topo=spec.topo, inter_alg="auto")
        return functools.partial(getattr(hierarchy, HIER[collective]), plan)
    return getattr(collectives, FLAT[(collective, algorithm)])


@dataclass
class Case:
    """Seeded inputs and oracle outputs (as uint32 bit patterns), per
    collective and rank."""

    inputs: dict[str, list[np.ndarray]]
    expected: dict[str, list[np.ndarray]]
    inputs_s: float
    verify_s: float


def make_case(spec: InprocSpec, workload: str, seed: int) -> Case:
    config = sweep.SweepConfig(seed=seed)
    t0 = time.perf_counter()
    inputs = {
        c: sweep.make_inputs(config, f"{workload}:{c}", spec.p, spec.m_bytes, c)
        for c in ("all_gather", "reduce_scatter")
    }
    t1 = time.perf_counter()
    gathered = oracles.expected_all_gather(inputs["all_gather"]).view(np.uint32)
    expected = {
        "all_gather": [gathered] * spec.p,
        "reduce_scatter": [
            a.view(np.uint32) for a in oracles.expected_reduce_scatter(inputs["reduce_scatter"])
        ],
    }
    return Case(inputs, expected, t1 - t0, time.perf_counter() - t1)


def bit_equal(out, want_bits: np.ndarray) -> bool:
    """True when ``out`` is float32 with exactly the bits of ``want_bits``."""
    return (
        isinstance(out, np.ndarray)
        and out.dtype == np.float32
        and out.shape == want_bits.shape
        and np.array_equal(out.view(np.uint32), want_bits)
    )


class World:
    """One closed-loop run of rank threads over a fresh in-process transport.

    Rank 0 records every call's time and, once the cold passes are done and
    ``seconds`` have passed (or its sample buffer has no room for another
    pass), ends the loop after the current pass by lowering ``stop_at``. Every rank's output in every call depends on rank
    0's contribution to that call, so no rank can begin the pass after it
    before rank 0 has set ``stop_at``.
    """

    def __init__(self, spec: InprocSpec, case: Case, functions, cold: int,
                 passes: int | None = None, seconds: float | None = None,
                 rec: tracer.Recorder | None = None):
        self.spec, self.case, self.functions = spec, case, functions
        self.cold, self.seconds, self.rec = cold, seconds, rec
        self.stop_at = cold + passes if passes is not None else 1 << 62
        self.times = np.full(spec.max_calls, np.nan)  # rank 0, by call index
        self.calls = 0  # calls made so far
        self.bad: set[int] = set()  # calls whose output failed on any rank
        self.verify_s = 0.0  # rank 0, timed passes only
        self.alloc: list[tuple[int, int]] = []  # (call, peak bytes above its start)
        self.t_timed: float | None = None
        self.t_end: float | None = None
        self.error: str | None = None
        self.transport = InProcessTransport(spec.p)
        self._lock = threading.Lock()

    def rank_main(self, comm: Communicator) -> None:
        spec, case, rec = self.spec, self.case, self.rec
        r = comm.rank
        if rec is not None:
            comm = Communicator(tracer.TracedEndpoint(comm.endpoint, rec), comm.members)
        watch_memory = rec is not None and r == 0 and tracemalloc.is_tracing()
        functions = self.functions
        nops = len(functions)
        bad = []
        q = 0
        while q < self.stop_at:
            if r == 0 and (q + 2) * nops > spec.max_calls:
                self.stop_at = min(self.stop_at, q + 1)
            if r == 0 and q >= self.cold:
                now = time.perf_counter()
                if self.t_timed is None:
                    self.t_timed = now
                elif self.seconds is not None and now - self.t_timed >= self.seconds:
                    self.stop_at = q + 1
            for i, (fn, collective) in enumerate(functions):
                call = q * nops + i
                buf = case.inputs[collective][r]
                if spec.barriers:
                    comm.barrier()
                if rec is not None:
                    rec.set_op(call)
                    if watch_memory:
                        tracemalloc.reset_peak()
                        base = tracemalloc.get_traced_memory()[0]
                    token = rec.begin()
                t0 = time.perf_counter()
                out = fn(comm, buf)
                if rec is not None:
                    rec.end(token, "op", collective)
                    rec.set_op(None)
                if spec.barriers:
                    comm.barrier()
                t1 = time.perf_counter()
                if watch_memory:
                    self.alloc.append((call, tracemalloc.get_traced_memory()[1] - base))
                ok = bit_equal(out, case.expected[collective][r])
                if r == 0:
                    self.times[call] = t1 - t0
                    self.calls = call + 1
                    if q >= self.cold:
                        self.verify_s += time.perf_counter() - t1
                if not ok:
                    bad.append(call)
                del out
            q += 1
        if r == 0:
            self.t_end = time.perf_counter()
        with self._lock:
            self.bad.update(bad)

    def run(self, timeout: float) -> None:
        """Run the world on a helper thread; a world still running after
        ``timeout`` seconds is recorded as hung and abandoned (its rank
        threads are daemons and end with the process)."""

        def target():
            try:
                run_ranks(self.spec.p, self.rank_main, transport=self.transport)
            except Exception as exc:  # noqa: BLE001 - a rank failed; recorded as an op failure
                self.error = f"{type(exc).__name__}: {exc}"

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout)
        if runner.is_alive():
            self.error = f"hang: rank threads still running after {timeout:.0f} s"

    def account(self, out: Outcome) -> bool:
        """Add this world's calls to ``out``; False if the world broke off."""
        out.attempted += self.calls
        out.failed += len(self.bad)
        if self.error is not None:
            out.attempted += 1
            out.failed += 1
            out.error = self.error
            return False
        return True


def _world(spec, case, **kwargs) -> World:
    functions = [(op_function(spec, c, a), c) for c, a in spec.ops]
    return World(spec, case, functions, **kwargs)


def timed_samples(spec: InprocSpec, world: World):
    """Per-call seconds of the timed passes as a (passes, ops) array, and a
    mask of the calls that passed their check."""
    nops = len(spec.ops)
    times = world.times
    passes = world.calls // nops
    times = times[world.cold * nops : passes * nops].reshape(-1, nops)
    ok = np.ones(times.shape, dtype=bool)
    for call in world.bad:
        q, i = divmod(call, nops)
        if world.cold <= q < passes:
            ok[q - world.cold, i] = False
    return times, ok


def pass_rates(spec: InprocSpec, times: np.ndarray, ok: np.ndarray) -> list[float]:
    """Messages per second of each timed pass, over the calls that passed."""
    msgs = np.array([op_msgs(spec, a) for _, a in spec.ops], dtype=np.float64)
    host = (times * ok).sum(axis=1)
    done = host > 0
    return ((msgs * ok).sum(axis=1)[done] / host[done]).tolist()


def inproc_report(spec: InprocSpec, world: World, out: Outcome) -> None:
    times, ok = timed_samples(spec, world)
    out.pass_rates.extend(pass_rates(spec, times, ok))
    good = times[ok]
    for q in (50, 90):
        try:
            out.report[f"coll_us_p{q}"] = (measure.percentile(good, q) * 1e6, "us")
        except ValueError as exc:
            out.notes.append(f"coll_us_p{q} not reported: {exc}")
    if spec.barriers:
        for collective, name in (("all_gather", "ag_GBps"), ("reduce_scatter", "rs_GBps")):
            cols = [i for i, (c, _) in enumerate(spec.ops) if c == collective]
            sel = ok[:, cols]
            seconds = times[:, cols][sel].sum()
            out.report[name] = (sel.sum() * spec.m_bytes / seconds / 1e9, "GB/s")
        out.notes.append(
            f"cache-influenced bandwidth: {spec.block_elems * 4 >> 20} MiB per-rank blocks, "
            f"{spec.m_bytes >> 20} MiB gathered / reduced per rank, "
            f"L3 {measure.l3_cache()}"
        )
    else:
        loop = world.t_end - world.t_timed - world.verify_s
        out.report["coll_per_s"] = (ok.sum() / loop, "1/s")
    out.notes.append(f"{int(ok.sum())} timed calls on rank 0 over {len(times)} passes")


def pin_process(spec: InprocSpec) -> None:
    """Confine this thread, and the rank threads it starts, to one CPU."""
    if spec.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_inproc(spec: InprocSpec, workload: str, seed: int, seconds: float, out: Outcome) -> None:
    pin_process(spec)
    for k in range(SETUPS):
        last = k == SETUPS - 1
        t0 = time.perf_counter()
        case = make_case(spec, workload, seed)
        world = _world(
            spec, case, cold=spec.cold_passes,
            passes=None if last else 0, seconds=seconds if last else None,
        )
        world.run(timeout=(seconds if last else 0) + WORLD_GRACE_S)
        if not world.account(out):
            return
        out.setup_s.append((world.t_timed if last else time.perf_counter()) - t0)
        if not last:
            del case, world  # free this set-up's buffers before the next one
    inproc_report(spec, world, out)


def _install_inproc_spans(rec: tracer.Recorder, patch: tracer.Patcher, topo: Topology) -> None:
    m = topo.gpus_per_node

    def group(comm, *_):
        if comm.size == topo.world_size:
            return "world"
        return "intra" if len({g // m for g in comm.members}) == 1 else "inter"

    for name in FLAT.values():
        wrapped = tracer.spanned(rec, f"collectives.{name}", getattr(collectives, name), group)
        patch.set(collectives, name, wrapped)
        patch.set(hierarchy, name, wrapped)
    for name in HIER.values():
        patch.set(hierarchy, name, tracer.spanned(rec, f"hierarchy.{name}", getattr(hierarchy, name)))
    for name in SHUFFLES:
        patch.set(hierarchy, name, tracer.spanned(rec, "hierarchy.shuffle", getattr(hierarchy, name)))
    patch.set(
        collectives, "reduce_inplace",
        tracer.spanned(
            rec, "collectives.reduce_inplace", collectives.reduce_inplace,
            lambda acc, *_: acc.nbytes,
        ),
    )
    _install_selector_span(rec, patch)


def trace_inproc(spec: InprocSpec, workload: str, seed: int, out: Outcome, trace_path: Path) -> None:
    pin_process(spec)
    case = make_case(spec, workload, seed)
    out.layers["bench.inputs_s"] = case.inputs_s
    out.layers["bench.verify_s"] = case.verify_s
    plain = _world(spec, case, cold=spec.cold_passes, passes=spec.trace_passes)
    plain.run(timeout=WORLD_GRACE_S)
    if not plain.account(out):
        return

    rec, patch = tracer.Recorder(), tracer.Patcher()
    _install_inproc_spans(rec, patch, spec.topo)
    tracemalloc.start()
    try:
        world = _world(spec, case, cold=0, passes=spec.trace_passes, rec=rec)
        world.run(timeout=WORLD_GRACE_S * 2)
    finally:
        tracemalloc.stop()
        patch.restore()
    if not world.account(out):
        return

    passes = spec.trace_passes
    calls = passes * len(spec.ops)
    spans = rec.spans()
    counts = rec.counts()
    in_op = [s for s in spans if s[tracer.OP] is not None]
    sends = [s for s in in_op if s[tracer.NAME] == "transport.send"]
    layers = out.layers
    layers["transport.msgs"] = counts.get("transport.msgs", 0) / calls
    layers["transport.bytes"] = counts.get("transport.bytes", 0) / calls
    layers["transport.send_us_per_msg"] = (
        sum(s[tracer.END] - s[tracer.START] for s in sends) / len(sends) * 1e6 if sends else 0.0
    )
    layers["transport.recv_wait_s"] = (
        sum(s[tracer.END] - s[tracer.START] for s in in_op if s[tracer.NAME] == "transport.recv")
        / passes
    )
    layers["transport.max_in_flight"] = world.transport.max_in_flight()

    own = tracer.self_times(spans, tracer.TRANSPORT_SPANS)
    coll = [s for s in spans if s[tracer.NAME] in COLLECTIVE_SPANS]
    layers["collectives.self_s"] = sum(own[s[tracer.SID]] for s in coll) / passes
    payload: dict[int, int] = {}
    for s in sends:
        payload[s[tracer.OP]] = payload.get(s[tracer.OP], 0) + s[tracer.ARG]
    ratios = [extra / payload[call] for call, extra in world.alloc if payload.get(call)]
    layers["collectives.alloc_bytes_per_payload_byte"] = statistics.median(ratios) if ratios else 0.0
    reductions = [s for s in spans if s[tracer.NAME] == "collectives.reduce_inplace"]
    layers["collectives.reduce_s"] = sum(s[tracer.END] - s[tracer.START] for s in reductions) / passes
    layers["collectives.reduce_bytes"] = sum(s[tracer.ARG] for s in reductions) / passes
    for kind in ("inter", "intra"):
        layers[f"hierarchy.{kind}_s"] = (
            sum(s[tracer.END] - s[tracer.START] for s in coll if s[tracer.ARG] == kind) / passes
        )
    layers["hierarchy.transpose_s"] = tracer.total_time(spans, "hierarchy.shuffle") / passes
    _selector_layers(spans, passes, layers)
    layers["bench.trace_overhead"] = (world.t_end - world.t_timed) / (plain.t_end - plain.t_timed) - 1
    rec.write_chrome_trace(trace_path, {"counts": counts, "layers": layers})


# --- registry -----------------------------------------------------------------

WORKLOADS = ("sim-scale", "sim-links", "inproc-bulk", "inproc-small")
SIM_OPS = {"sim-scale": scale_ops, "sim-links": links_ops}
INPROC = {"inproc-bulk": BULK, "inproc-small": SMALL}


def cold_passes(workload: str) -> str:
    """Which passes a set-up runs and discards, for the environment record."""
    if workload in SIM_OPS:
        return f"each set-up's pass over the cells of at most {WARM_WORLD} ranks"
    spec = INPROC[workload]
    return (
        f"each set-up's first {spec.cold_passes} passes "
        f"({spec.cold_passes * len(spec.ops)} calls)"
    )


def run(workload: str, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    if workload in SIM_OPS:
        run_sim(SIM_OPS[workload], seconds, out)
    else:
        run_inproc(INPROC[workload], workload, seed, seconds, out)
    return out


def trace(workload: str, seed: int, trace_path: Path) -> Outcome:
    out = Outcome()
    if workload in SIM_OPS:
        trace_sim(SIM_OPS[workload], out, trace_path)
    else:
        trace_inproc(INPROC[workload], workload, seed, out, trace_path)
    return out
