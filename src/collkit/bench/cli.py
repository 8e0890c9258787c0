"""Command-line harness.

Subcommands:
  bench sweep      run a (collective x algorithm x ranks x size) sweep and
                   write per-trial records plus a summary CSV
  bench verify     run the oracle correctness suite on the in-process backend
  bench calibrate  produce the selector calibration table from the simulator
  bench heatmap    turn two record CSVs into a per-cell speedup CSV

A key=value config file can seed any long option; explicit flags override
the file.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .. import simnet
from ..costmodel import CostParams
from ..errors import CollkitError, Unsupported
from ..transport.sockets import SocketEndpoint, parse_host_file
from . import sweep as sweepmod

COLLECTIVE_NAMES = {"ag": "all_gather", "rs": "reduce_scatter"}
SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}

PARAM_KEYS = (
    "alpha_inter",
    "beta_inter",
    "alpha_intra",
    "beta_intra",
    "gamma_fast",
    "gamma_slow",
    "packet_bytes",
)


def parse_size(text: str) -> int:
    text = text.strip().lower()
    if text and text[-1] in SIZE_SUFFIXES:
        return int(float(text[:-1]) * SIZE_SUFFIXES[text[-1]])
    return int(text)


def parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(parse_size(part) for part in text.split(",") if part.strip())


def parse_grid(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        n, _, m = part.partition("x")
        cells.append((int(n), int(m)))
    return tuple(cells)


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def load_config_file(path) -> dict[str, str]:
    """TOML-style ``key = value`` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise Unsupported(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip()] = value.strip().strip('"').strip("'")
    return values


def apply_config_file(args: argparse.Namespace, overrides: dict | None = None) -> None:
    """Fill every still-unset option from the config file."""
    if not getattr(args, "config", None):
        return
    file_values = load_config_file(args.config)
    converters = {
        "sizes": parse_sizes,
        "grid": parse_grid,
        "nodes": parse_int_list,
        "trials": int,
        "seed": int,
        "rank": int,
        "gpus_per_node": int,
        "nics_per_node": int,
        "packet_bytes": int,
        "connect_timeout": float,
        "verify": lambda v: v.lower() in ("1", "true", "yes"),
        "warmup": lambda v: v.lower() in ("1", "true", "yes"),
    }
    for key in PARAM_KEYS:
        converters.setdefault(key, float)
    converters.update(overrides or {})
    for key, raw in file_values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        if getattr(args, attr) is None or getattr(args, attr) is False:
            convert = converters.get(attr, str)
            try:
                setattr(args, attr, convert(raw))
            except ValueError as exc:
                raise Unsupported(f"{args.config}: {key} = {raw!r}: {exc}") from None


def build_params(args: argparse.Namespace) -> CostParams:
    params = CostParams()
    overrides = {}
    mapping = {
        "alpha_inter": "alpha_inter",
        "beta_inter": "beta_inter",
        "alpha_intra": "alpha_intra",
        "beta_intra": "beta_intra",
        "gamma_fast": "gamma_reduce_fast",
        "gamma_slow": "gamma_reduce_slow",
        "packet_bytes": "packet_bytes",
    }
    for arg_name, field_name in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field_name] = value
    return dataclasses.replace(params, **overrides) if overrides else params


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("cost model")
    group.add_argument("--alpha-inter", type=float, help="inter-node startup seconds/message")
    group.add_argument("--beta-inter", type=float, help="inter-node seconds/byte")
    group.add_argument("--alpha-intra", type=float, help="intra-node startup seconds/message")
    group.add_argument("--beta-intra", type=float, help="intra-node seconds/byte")
    group.add_argument("--gamma-fast", type=float, help="fast reduction seconds/byte")
    group.add_argument("--gamma-slow", type=float, help="slow reduction seconds/byte")
    group.add_argument("--packet-bytes", type=int, help="packet size for NIC counters")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", choices=simnet.NIC_POLICIES, default=None, dest="nic_policy",
        help="NIC assignment policy (simulated backend)",
    )
    parser.add_argument(
        "--phys", choices=simnet.PHYS_TOPOLOGIES, default=None, dest="phys_topology",
        help="physical inter-node topology (simulated backend)",
    )
    parser.add_argument(
        "--profile", choices=simnet.REDUCE_PROFILES, default=None, dest="reduce_profile",
        help="reduction throughput profile (simulated backend)",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Collective-communication benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run a benchmark sweep")
    sp.add_argument("--config", help="key=value config file; flags override")
    sp.add_argument("--backend", choices=sweepmod.BACKENDS, default=None)
    sp.add_argument("--collective", choices=sorted(COLLECTIVE_NAMES), default=None)
    sp.add_argument("--algo", choices=("ring", "recursive", "hierarchical"), default=None)
    sp.add_argument("--inter", choices=("ring", "recursive", "auto"), default=None)
    sp.add_argument("--sizes", type=parse_sizes, default=None, help="e.g. 16M,64M,1G")
    sp.add_argument("--grid", type=parse_grid, default=None, help="NxM cells, e.g. 2x4,4x8")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--verify", action="store_true", default=False)
    sp.add_argument("--warmup", action="store_true", default=False,
                    help="run and record one extra leading trial; summaries drop it")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--nodes", type=int, default=None,
                    help="single-cell topology: node count (with --gpus-per-node)")
    sp.add_argument("--gpus-per-node", type=int, default=None)
    sp.add_argument("--nics-per-node", type=int, default=None)
    sp.add_argument("--hostfile", default=None,
                    help="socket backend host file (env COLLKIT_HOSTFILE)")
    sp.add_argument("--rank", type=int, default=None,
                    help="socket backend rank id (env COLLKIT_RANK)")
    sp.add_argument("--connect-timeout", type=float, default=None,
                    help="socket connect timeout, default 30s (env COLLKIT_CONNECT_TIMEOUT)")
    _add_sim_flags(sp)
    _add_param_flags(sp)

    vp = sub.add_parser("verify", help="run the oracle correctness suite")
    vp.add_argument("--seed", type=int, default=0)

    cp = sub.add_parser("calibrate", help="write a selector calibration table")
    cp.add_argument("--config", help="key=value config file; flags override")
    cp.add_argument("--nodes", type=parse_int_list, default=None, help="e.g. 4,8,16,32,64,128")
    cp.add_argument("--sizes", type=parse_sizes, default=None)
    cp.add_argument("--phys", choices=simnet.PHYS_TOPOLOGIES, default=None, dest="phys_topology")
    cp.add_argument("--collective", choices=sorted(COLLECTIVE_NAMES), default=None)
    cp.add_argument("--out", default=None, help="table CSV path")
    _add_param_flags(cp)

    hp = sub.add_parser("heatmap", help="speedup CSV from two record CSVs")
    hp.add_argument("records_a", help="treatment records CSV")
    hp.add_argument("records_b", help="baseline records CSV")
    hp.add_argument("--out", default=None, help="output CSV (default: stdout)")

    return parser


def _env_number(name: str, convert, default):
    """The environment variable ``name`` converted by ``convert``, or
    ``default`` when it is unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError:
        raise Unsupported(f"{name}={text!r} is not a valid {convert.__name__}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    apply_config_file(args, overrides={"nodes": int})
    backend = args.backend or "inprocess"
    collective = COLLECTIVE_NAMES[args.collective or "ag"]
    grid = args.grid
    if grid is None and args.nodes is not None and args.gpus_per_node is not None:
        grid = ((args.nodes, args.gpus_per_node),)
    config = sweepmod.SweepConfig(
        collective=collective,
        algorithm=args.algo or "ring",
        inter=args.inter or "ring",
        sizes=args.sizes or sweepmod.DEFAULT_SIZES,
        grid=grid or sweepmod.DEFAULT_GRID,
        trials=args.trials if args.trials is not None else 10,
        seed=args.seed if args.seed is not None else 0,
        verify=args.verify,
        warmup=args.warmup,
        nics_per_node=args.nics_per_node,
        params=build_params(args),
        nic_policy=args.nic_policy or "balanced",
        phys_topology=args.phys_topology or "fully_connected",
        reduce_profile=args.reduce_profile or "fast",
    )
    endpoint = None
    rank = 0
    try:
        if backend == "socket":
            hostfile = args.hostfile or os.environ.get("COLLKIT_HOSTFILE")
            rank_arg = args.rank if args.rank is not None else _env_number("COLLKIT_RANK", int, None)
            if hostfile is None or rank_arg is None:
                print("socket backend needs --hostfile and --rank", file=sys.stderr)
                return 2
            timeout = args.connect_timeout
            if timeout is None:
                timeout = _env_number("COLLKIT_CONNECT_TIMEOUT", float, 30.0)
            hosts = parse_host_file(hostfile)
            rank = rank_arg
            endpoint = SocketEndpoint(rank, hosts, connect_timeout=timeout)
        records = sweepmod.run_sweep(config, backend, endpoint=endpoint)
    finally:
        if endpoint is not None:
            endpoint.close()
    summaries = sweepmod.summarize(records, drop_first_trial=config.warmup)
    if backend == "socket" and rank != 0:
        return 0
    out_dir = Path(args.out or "bench-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{backend}_{collective}_{config.algorithm}"
    if config.algorithm == "hierarchical":
        stem += f"_{config.inter}"
    records_path = out_dir / f"{stem}.csv"
    sweepmod.write_records_csv(records, records_path)
    summary_path = out_dir / f"{stem}_summary.csv"
    with open(summary_path, "w") as fh:
        fh.write("backend,collective,algorithm,inter,N,M,m_bytes,count,mean,std,min\n")
        for s in summaries:
            backend_, coll, algo, inter, n, m, size = s.cell
            fh.write(
                f"{backend_},{coll},{algo},{inter},{n},{m},{size},"
                f"{s.count},{s.mean!r},{s.std!r},{s.min!r}\n"
            )
    print(f"wrote {records_path} and {summary_path} ({len(records)} records)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np

    from . import oracles

    failures = 0
    grid = ((1, 1), (1, 4), (2, 2), (2, 4), (3, 2), (4, 2))
    cases = [
        ("all_gather", "ring"),
        ("reduce_scatter", "ring"),
        ("all_gather", "recursive"),
        ("reduce_scatter", "recursive"),
        ("all_gather", "hierarchical"),
        ("reduce_scatter", "hierarchical"),
    ]
    rng = np.random.default_rng(args.seed)
    for collective, algorithm in cases:
        for n_nodes, m_gpus in grid:
            p = n_nodes * m_gpus
            if algorithm == "recursive" and p & (p - 1):
                continue
            if algorithm == "hierarchical" and n_nodes & (n_nodes - 1):
                continue
            n = 32
            per_rank = p * n if collective == "reduce_scatter" else n
            inputs = [
                rng.integers(-1024, 1025, size=per_rank).astype(np.float32)
                for _ in range(p)
            ]
            config = sweepmod.SweepConfig(
                collective=collective,
                algorithm=algorithm,
                inter="ring" if algorithm != "hierarchical" else "recursive",
                grid=((n_nodes, m_gpus),),
            )
            topo = config.topo_for(n_nodes, m_gpus)
            fn = sweepmod._collective_fn(config, topo, inputs)
            outputs = sweepmod.run_ranks(p, fn)
            if collective == "all_gather":
                want = oracles.expected_all_gather(inputs)
                ok = all(np.array_equal(out, want) for out in outputs)
            else:
                want = oracles.expected_reduce_scatter(inputs)
                ok = all(np.array_equal(out, want[r]) for r, out in enumerate(outputs))
            label = f"{collective}/{algorithm} N={n_nodes} M={m_gpus}"
            print(f"{'PASS' if ok else 'FAIL'}  {label}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    apply_config_file(args)
    nodes = args.nodes or (4, 8, 16, 32, 64, 128)
    sizes = args.sizes or sweepmod.DEFAULT_SIZES
    table = sweepmod.calibrate_selector(
        nodes,
        sizes,
        build_params(args),
        phys_topology=args.phys_topology or "ring_of_nodes",
        collective=COLLECTIVE_NAMES[args.collective or "ag"],
    )
    out = args.out or "calibration.csv"
    table.save_csv(out)
    winners = {e.winner for e in table.entries}
    print(f"wrote {out} ({len(table.entries)} cells, winners: {sorted(winners)})")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    records_a = sweepmod.read_records_csv(args.records_a)
    records_b = sweepmod.read_records_csv(args.records_b)
    rows = sweepmod.emit_heatmap_data(records_a, records_b)
    if args.out:
        sweepmod.write_heatmap_csv(rows, args.out)
        print(f"wrote {args.out} ({len(rows)} cells)")
    else:
        print("p,m_bytes,speedup")
        for p, m, speedup in rows:
            print(f"{p},{m},{speedup!r}")
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "calibrate": cmd_calibrate,
        "heatmap": cmd_heatmap,
    }
    try:
        return handlers[args.command](args)
    except CollkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
