"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from collkit import collectives, simnet  # noqa: E402
from collkit.simnet import SimConfig  # noqa: E402
from collkit.topology import Topology  # noqa: E402


# --- tail percentiles ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert measure.percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError, match="need 10"):
        measure.percentile(range(1, 100), 90)


def test_p50_needs_ten_samples_beyond():
    assert measure.percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        measure.percentile(range(1, 20), 50)


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = list(range(200, 0, -1))
    assert measure.percentile(samples, 90) == 180
    assert measure.percentile(samples, 50) == 100


# --- self time ------------------------------------------------------------------


def span(sid, name, start, end, parent=None):
    return (sid, name, start, end, parent, None, 0, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "collectives.ring_all_gather", 1.0, 9.0, parent=1),
        span(3, "transport.send", 2.0, 3.0, parent=2),
        span(4, "transport.recv", 3.0, 6.0, parent=2),
        span(5, "collectives.reduce_inplace", 6.0, 6.5, parent=2),
        span(6, "inner", 2.2, 2.7, parent=3),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(2.0)  # 10 - 8
    assert own[2] == pytest.approx(3.5)  # 8 - (1 + 3 + 0.5)
    assert own[3] == pytest.approx(0.5)  # 1 - 0.5; its child is not op 2's child
    assert own[6] == pytest.approx(0.5)


def test_self_time_can_subtract_named_children():
    spans = [
        span(1, "collectives.ring_reduce_scatter", 0.0, 10.0),
        span(2, "transport.send", 1.0, 2.0, parent=1),
        span(3, "transport.recv", 2.0, 5.0, parent=1),
        span(4, "collectives.reduce_inplace", 5.0, 7.0, parent=1),
    ]
    own = tracer.self_times(spans, tracer.TRANSPORT_SPANS)
    assert own[1] == pytest.approx(6.0)  # reduction time stays in the collective


def test_recorder_nests_spans_per_thread():
    rec = tracer.Recorder()
    outer = rec.begin()
    inner = rec.begin()
    rec.end(inner, "inner")
    rec.end(outer, "outer")
    by_name = {s[tracer.NAME]: s for s in rec.spans()}
    assert by_name["inner"][tracer.PARENT] == by_name["outer"][tracer.SID]
    assert by_name["outer"][tracer.PARENT] is None


def test_patcher_restores_originals():
    patch = tracer.Patcher()
    original = collectives.reduce_inplace
    patch.set(collectives, "reduce_inplace", lambda *a: None)
    assert collectives.reduce_inplace is not original
    patch.restore()
    assert collectives.reduce_inplace is original


# --- failures are counted and never timed -----------------------------------------

TINY = workloads.InprocSpec(
    topo=Topology(1, 2, 1),
    block_elems=16,
    ops=(("all_gather", "ring"), ("reduce_scatter", "ring")),
    barriers=True,
    cold_passes=1,
    trace_passes=2,
    max_calls=64,
)


def corrupt_on_rank_1(fn):
    def corrupted(comm, buf):
        out = fn(comm, buf)
        if comm.rank == 1:
            out[0] += 1
        return out

    return corrupted


def test_corrupted_real_output_is_a_failure_and_untimed():
    case = workloads.make_case(TINY, "test", seed=3)
    functions = [
        (corrupt_on_rank_1(collectives.ring_all_gather), "all_gather"),
        (collectives.ring_reduce_scatter, "reduce_scatter"),
    ]
    world = workloads.World(TINY, case, functions, cold=1, passes=4)
    world.run(timeout=60)
    out = workloads.Outcome()
    assert world.account(out)
    assert out.attempted == 10
    assert out.failed == 5  # every all-gather, cold pass included
    assert world.bad == {0, 2, 4, 6, 8}

    times, ok = workloads.timed_samples(TINY, world)
    assert times.shape == (4, 2)
    assert not ok[:, 0].any() and ok[:, 1].all()
    rs_seconds = world.times[2:10].reshape(4, 2)[:, 1]
    rates = workloads.pass_rates(TINY, times, ok)
    assert rates == pytest.approx(workloads.flat_msgs("ring", 2) / rs_seconds)


def test_clean_real_outputs_pass():
    case = workloads.make_case(TINY, "test", seed=4)
    world = workloads._world(TINY, case, cold=1, passes=3)
    world.run(timeout=60)
    out = workloads.Outcome()
    assert world.account(out)
    assert (out.attempted, out.failed) == (8, 0)


def test_loop_ends_when_the_sample_buffer_is_full():
    spec = dataclasses.replace(TINY, max_calls=8)
    case = workloads.make_case(spec, "test", seed=5)
    world = workloads._world(spec, case, cold=1, seconds=60.0)
    start = time.perf_counter()
    world.run(timeout=60)
    assert time.perf_counter() - start < 30
    assert world.error is None
    assert world.calls == 8


def test_bit_equal_is_bitwise():
    want = np.array([0.0, 1.0], dtype=np.float32)
    assert workloads.bit_equal(want.copy(), want.view(np.uint32))
    assert not workloads.bit_equal(np.array([-0.0, 1.0], dtype=np.float32), want.view(np.uint32))
    assert not workloads.bit_equal(want.astype(np.float64), want.view(np.uint32))


def tiny_sim_op(key, corrupt=False, delay=0.0):
    config = SimConfig(topo=Topology(2, 2, 1))

    def go():
        time.sleep(delay)
        result = simnet.simulate(config, "all_gather", "ring", 4096)
        if corrupt:
            result.counters.bytes_out[0] += 1
        return result

    return workloads.SimOp(key, 4, go, workloads.sim_summary)


def test_corrupted_sim_counter_is_a_failure_and_untimed():
    clean = tiny_sim_op("clean")
    summary = clean.summary(clean.run())
    reference = {
        "clean": {"result": summary, "msgs": summary["msgs"]},
        # Were this op counted, its messages would dominate the rate.
        "bad": {"result": summary, "msgs": 10**12},
    }
    ops = [clean, tiny_sim_op("bad", corrupt=True, delay=0.2)]
    out = workloads.Outcome()
    workloads.sim_pass(ops, reference, out, timed=True)
    assert (out.attempted, out.failed) == (2, 1)
    (rate,) = out.pass_rates
    assert rate < 10**11  # the bad op's messages are not counted
    assert rate > summary["msgs"] / 0.2  # nor is its slow time


def test_sim_reference_holds_at_this_commit():
    reference = workloads.load_reference()
    ops = workloads.links_ops()
    cheap = [op for op in ops if op.key.startswith("links:rs:") and "hier" in op.key]
    for op in cheap:
        assert workloads.sim_check(op, op.run(), reference), op.key


def test_calibration_model_check_rejects_a_changed_ring_time():
    table = workloads.costmodel.CalibrationTable()
    ring = workloads.costmodel.t_ring(4, 1 << 24, workloads.LINKS_PARAMS)
    rec = workloads.costmodel.t_rec(4, 1 << 24, workloads.LINKS_PARAMS)
    table.add(workloads.costmodel.CalibrationEntry(4, 1 << 24, ring, rec, "ring"))
    assert workloads.calibration_matches_model(table)
    table.entries[0] = workloads.costmodel.CalibrationEntry(4, 1 << 24, ring * 1.001, rec, "ring")
    assert not workloads.calibration_matches_model(table)


# --- the contract with BENCHMARK.json ---------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
