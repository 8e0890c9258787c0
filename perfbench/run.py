"""collkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; collkit is imported from that checkout's
``src/`` (nothing needs installing or building). The report lines come
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are
the per-layer ones of a traced run, which also writes a Chrome trace to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB", "msgs_per_s": "msg/s"}

PER_LAYER = {
    "simnet.msgs": "count",
    "simnet.steps": "count",
    "simnet.schedule_s": "s",
    "simnet.price_s": "s",
    "simnet.ns_per_msg": "ns",
    "simnet.link_charges": "count",
    "simnet.reductions": "count",
    "topology.lookups_per_msg": "call/msg",
    "costmodel.select_calls": "count",
    "costmodel.select_s": "s",
    "costmodel.model_over_sim": "ratio",
    "transport.msgs": "msg/op",
    "transport.bytes": "B/op",
    "transport.send_us_per_msg": "us",
    "transport.recv_wait_s": "s",
    "transport.max_in_flight": "count",
    "collectives.self_s": "s",
    "collectives.alloc_bytes_per_payload_byte": "ratio",
    "collectives.reduce_s": "s",
    "collectives.reduce_bytes": "B",
    "hierarchy.inter_s": "s",
    "hierarchy.intra_s": "s",
    "hierarchy.transpose_s": "s",
    "bench.inputs_s": "s",
    "bench.verify_s": "s",
    "bench.trace_overhead": "ratio",
}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_collkit():
    """Import collkit from this checkout's sources, never from elsewhere."""
    if not (SRC / "collkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no collkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import collkit

    if Path(collkit.__file__).resolve().parent != (SRC / "collkit").resolve():
        raise SystemExit(f"error: collkit imported from {collkit.__file__}, not {SRC}")


def metrics_of(out, trace: bool) -> dict:
    import measure

    if trace:
        # A layer a workload does not exercise reports 0.
        return {
            name: {"value": out.layers.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    values = {"peak_rss_mb": measure.peak_rss_mb()}
    if out.setup_s:
        values["setup_s"] = statistics.median(out.setup_s)
    if out.pass_rates:
        values["msgs_per_s"] = statistics.median(out.pass_rates)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
        if name in values
    }


def main(argv=None) -> int:
    import_collkit()
    sys.path.insert(0, str(HERE))
    import measure
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    print(
        f"collkit benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    env = {**measure.environment(ROOT), "cold_discarded": workloads.cold_passes(args.workload)}
    print("env:", json.dumps(env))
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        out = workloads.trace(args.workload, args.seed, trace_path)
    else:
        out = workloads.run(args.workload, args.seed, args.seconds)
    metrics = metrics_of(out, bool(args.trace))

    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'ops_failed_frac':<42} {out.failed / max(out.attempted, 1):>16.6g} ratio"
              f"  ({out.failed} of {out.attempted} ops)")
        for name, (value, unit) in out.report.items():
            print(f"  {name:<42} {value:>16.6g} {unit}")
        if out.setup_s:
            print(f"  setup_s over {len(out.setup_s)} set-ups: "
                  + ", ".join(f"{s:.4f}" for s in out.setup_s))
    else:
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    for note in out.notes:
        print(f"note: {note}")
    if out.error:
        print(f"error: {out.error}")
    correct = out.failed == 0 and out.error is None
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
