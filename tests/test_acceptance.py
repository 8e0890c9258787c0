"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that sweep the
simulator pin their cost parameters explicitly; absolute simulated seconds
are illustrative, so every check below is an ordering, ratio, or exact
identity, never an absolute time.
"""
import math
import time

import numpy as np
import pytest
from conftest import (
    FIDELITY_CELLS,
    inprocess_log,
    replay_schedule,
    scheduled_step_multisets,
    seconds_ratio,
)

from collkit import collectives
from collkit.bench.sweep import RunRecord, SweepConfig, calibrate_selector, run_sweep, summarize
from collkit.costmodel import CostParams, t_rec, t_ring
from collkit.hierarchy import HierPlan, hier_all_gather, hier_reduce_scatter
from collkit.simnet import SimConfig, simulate
from collkit.topology import Topology
from collkit.transport.inprocess import run_ranks


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def oracle_all_gather(inputs):
    return np.concatenate(inputs)


def oracle_reduce_scatter(inputs):
    p = len(inputs)
    total = np.zeros_like(inputs[0])
    for buf in inputs:
        total = total + buf
    n = total.size // p
    return [total[r * n : (r + 1) * n] for r in range(p)]


def topo_for(n_nodes, m_gpus):
    nics = max(1, m_gpus // 2) if m_gpus % 2 == 0 else 1
    return Topology(n_nodes, m_gpus, nics)


def test_criterion_1_oracle_correctness():
    """Every algorithm, every (N, M) in {1,2,4} x {1,2,4,8}, per-rank sizes
    {8, 64, 4096} elements of integer-valued floats: outputs bit-equal to
    the brute-force oracles, in under two minutes."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0

    flat_variants = [
        ("all_gather", collectives.ring_all_gather),
        ("reduce_scatter", collectives.ring_reduce_scatter),
        ("all_gather", collectives.recdbl_all_gather),
        ("reduce_scatter", collectives.rechalf_reduce_scatter),
    ]
    hier_variants = [
        ("all_gather", inter) for inter in ("ring", "recursive")
    ] + [("reduce_scatter", inter) for inter in ("ring", "recursive")]

    for n_nodes in (1, 2, 4):
        for m_gpus in (1, 2, 4, 8):
            p = n_nodes * m_gpus
            topo = topo_for(n_nodes, m_gpus)
            for n_elems in (8, 64, 4096):
                def fresh_inputs(per_rank):
                    return [
                        rng.integers(-1024, 1025, size=per_rank).astype(np.float32)
                        for _ in range(p)
                    ]

                for collective, op in flat_variants:
                    per_rank = n_elems * p if collective == "reduce_scatter" else n_elems
                    inputs = fresh_inputs(per_rank)
                    outs = run_ranks(p, lambda c: op(c, inputs[c.rank]))
                    if collective == "all_gather":
                        want = oracle_all_gather(inputs)
                        assert all(np.array_equal(o, want) for o in outs)
                    else:
                        want = oracle_reduce_scatter(inputs)
                        assert all(np.array_equal(o, want[r]) for r, o in enumerate(outs))
                    checked += 1

                for collective, inter in hier_variants:
                    plan = HierPlan(topo=topo, inter_alg=inter)
                    per_rank = n_elems * p if collective == "reduce_scatter" else n_elems
                    inputs = fresh_inputs(per_rank)
                    if collective == "all_gather":
                        outs = run_ranks(
                            p, lambda c: hier_all_gather(plan, c, inputs[c.rank])
                        )
                        want = oracle_all_gather(inputs)
                        assert all(np.array_equal(o, want) for o in outs)
                    else:
                        outs = run_ranks(
                            p, lambda c: hier_reduce_scatter(plan, c, inputs[c.rank])
                        )
                        want = oracle_reduce_scatter(inputs)
                        assert all(np.array_equal(o, want[r]) for r, o in enumerate(outs))
                    checked += 1

    elapsed = time.monotonic() - start
    report(
        1,
        checked == 288 and elapsed < 120.0,
        f"{checked} runs bit-equal to oracles in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_cost_formula_fidelity():
    """Simulated flat collectives on fully connected single-GPU nodes match
    the closed-form ring and recursive times to float round-off."""
    params = CostParams()
    m = 64 << 20
    worst = 0.0
    for p in (2, 4, 8, 16, 64):
        config = SimConfig(topo=Topology(p, 1, 1), params=params)
        ring = simulate(config, "all_gather", "ring", m).seconds
        rec = simulate(config, "all_gather", "recursive", m).seconds
        for got, want in ((ring, t_ring(p, m, params)), (rec, t_rec(p, m, params))):
            assert math.isclose(got, want, rel_tol=1e-12), (p, got, want)
            worst = max(worst, abs(got - want) / want)
    report(2, True, f"ring/recursive times match formulas, worst rel err {worst:.2e}")


def test_criterion_3_nic_balance_and_bottleneck():
    """Balanced hierarchical traffic loads all NICs exactly evenly; the
    single-NIC policy costs ~K in the bandwidth-bound regime and nothing in
    the latency-bound one."""
    params = CostParams()
    topo = Topology(2, 8, 4)
    balanced = SimConfig(topo=topo, params=params, nic_policy="balanced")
    single = SimConfig(topo=topo, params=params, nic_policy="single_nic")

    res = simulate(balanced, "all_gather", "hierarchical", 64 << 20, inter_alg="ring")
    out = res.counters.bytes_out
    ratio_nics = max(out) / min(out)

    # Flat recursive doubling's widest step moves every rank's data across
    # nodes at once, so the policies differ by the full NIC fan-out there.
    big = [
        seconds_ratio(single, balanced, "all_gather", "recursive", m)
        for m in (256 << 20, 512 << 20)
    ]
    tiny = seconds_ratio(single, balanced, "all_gather", "recursive", 4096)

    ok = ratio_nics == 1.0 and all(3.5 <= r <= 4.0 for r in big) and abs(tiny - 1.0) <= 0.05
    report(
        3,
        ok,
        f"per-NIC max/min {ratio_nics}, policy ratio {big[0]:.3f} at 256MiB "
        f"(in [3.5, 4.0]), {tiny:.3f} at 4KiB (within 0.05 of 1)",
    )


def test_criterion_4_reduction_placement():
    """Slow (host-side) reductions dominate bandwidth-bound reduce-scatter:
    gap > 3x with the default 200x throughput ratio, exactly 1.0 when both
    profiles are equal, and monotone in message size."""
    def gap(params, m):
        fast, slow = (
            SimConfig(topo=Topology(4, 1, 1), params=params, reduce_profile=profile)
            for profile in ("fast", "slow")
        )
        return seconds_ratio(slow, fast, "reduce_scatter", "ring", m)

    gaps = [gap(CostParams(), m) for m in (4 << 20, 64 << 20, 256 << 20)]
    identity = gap(CostParams(gamma_reduce_slow=CostParams().gamma_reduce_fast), 256 << 20)
    ok = gaps[-1] > 3.0 and identity == 1.0 and gaps == sorted(gaps)
    report(
        4,
        ok,
        f"gap {gaps[-1]:.2f}x at 256MiB (> 3), {identity} with equal profiles, "
        f"monotone over sizes {['%.2f' % g for g in gaps]}",
    )


def test_criterion_5_latency_scaling():
    """At 64 MiB and 8 GPUs per node, flat ring blows up by >= 20x from 4 to
    256 nodes while the hierarchical-recursive collective stays within
    2.5x, beating flat by > 6x at 2048 ranks. Parameters are pinned (higher
    per-message startup than the defaults) to land the latency-bound knee
    inside the desk-scale sweep."""
    start = time.monotonic()
    params = CostParams(alpha_inter=50e-6)
    m = 64 << 20
    flat, hier = {}, {}
    for n in (4, 8, 16, 32, 64, 128, 256):
        config = SimConfig(topo=Topology(n, 8, 4), params=params)
        flat[n] = simulate(config, "all_gather", "ring", m).seconds
        hier[n] = simulate(
            config, "all_gather", "hierarchical", m, inter_alg="recursive"
        ).seconds
    flat_growth = flat[256] / flat[4]
    hier_growth = hier[256] / hier[4]
    speedup = flat[256] / hier[256]
    elapsed = time.monotonic() - start
    ok = flat_growth >= 20.0 and hier_growth <= 2.5 and speedup > 6.0 and elapsed < 300.0
    report(
        5,
        ok,
        f"flat ring grows {flat_growth:.1f}x (>= 20), hierarchical {hier_growth:.2f}x "
        f"(<= 2.5), speedup {speedup:.1f}x at p=2048 (> 6), in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_crossover_quadrants():
    """On the ring-of-nodes topology the calibration table contains both
    winners, ring taking the largest-size/smallest-N corner and recursive
    the smallest-size/largest-N corner."""
    params = CostParams(alpha_inter=40e-6, beta_inter=0.004e-9)
    nodes = [4, 8, 16, 32, 64, 128]
    sizes = [2**i << 20 for i in range(4, 11)]  # 16 MiB .. 1 GiB
    table = calibrate_selector(nodes, sizes, params, phys_topology="ring_of_nodes")
    winners = {(e.n_nodes, e.m_bytes): e.winner for e in table.entries}
    both = set(winners.values()) == {"ring", "recursive"}
    ring_corner = winners[(4, 1 << 30)] == "ring"
    rec_corner = winners[(128, 16 << 20)] == "recursive"
    report(
        6,
        both and ring_corner and rec_corner,
        f"table has both winners; (N=4, 1GiB) -> {winners[(4, 1 << 30)]}, "
        f"(N=128, 16MiB) -> {winners[(128, 16 << 20)]}",
    )


def test_criterion_7_schedule_fidelity():
    """The per-step message multisets of the schedule the simulator prices
    equal the instrumented in-process transport log exactly, for six
    sampled cells."""
    matched = 0
    for collective, algorithm, inter_alg, n_nodes, m_gpus, n_elems in FIDELITY_CELLS:
        topo = topo_for(n_nodes, m_gpus)
        p = topo.world_size
        m_bytes = p * n_elems * 4
        log = inprocess_log(topo, collective, algorithm, inter_alg, n_elems, seed=p)
        real_steps = replay_schedule(log, collective, algorithm)

        config = SimConfig(topo=topo, params=CostParams())
        sim_steps = scheduled_step_multisets(config, collective, algorithm, m_bytes, inter_alg)
        assert sim_steps == real_steps, (collective, algorithm)
        matched += 1
    report(7, matched == 6, f"{matched}/6 cells: simulated step multisets equal logs")


def test_criterion_8_measurement_protocol():
    """Summaries reproduce hand-computed statistics exactly and a ten-trial
    sweep emits ten records per cell."""

    def rec(seconds, trial):
        return RunRecord(
            backend="inprocess", collective="all_gather", algorithm="ring",
            inter="ring", p=4, n_nodes=1, m_gpus=4, m_bytes=4096,
            trial=trial, seconds=seconds, verified=True,
        )

    s_const = summarize([rec(1.0, t) for t in range(3)])[0]
    s_pair = summarize([rec(1.0, 0), rec(3.0, 1)])[0]
    exact = (
        s_const.mean == 1.0
        and s_const.std == 0.0
        and s_pair.mean == 2.0
        and math.isclose(s_pair.std, math.sqrt(2), rel_tol=1e-15)
    )

    config = SweepConfig(
        collective="all_gather", algorithm="ring", sizes=(4096,),
        grid=((1, 4),), trials=10, verify=True,
    )
    records = run_sweep(config, "inprocess")
    per_cell = len(records) == 10 and all(r.verified for r in records)

    report(
        8,
        exact and per_cell,
        f"mean/std exact on fixed vectors; sweep emitted {len(records)} records/cell",
    )
