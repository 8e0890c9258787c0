"""Command-line harness.

Subcommands:
  bench sweep      run a (collective x algorithm x ranks x size) sweep and
                   write per-trial records plus a summary CSV
  bench verify     run the oracle correctness suite on the in-process backend
  bench calibrate  write the simulator's ring vs recursive crossover table
  bench heatmap    turn two record CSVs into a per-cell speedup CSV

A key=value config file can seed any long option; explicit flags override
the file.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from pathlib import Path

from .. import simnet
from ..costmodel import INTER_ALGORITHMS, CostParams
from ..errors import CollkitError, NonPowerOfTwo, Unsupported, VerificationFailed
from ..transport.sockets import SocketEndpoint, parse_host_file
from . import sweep as sweepmod

COLLECTIVE_NAMES = {"ag": "all_gather", "rs": "reduce_scatter"}
SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}

# (flag dest, CostParams field, help); each flag takes its field's type.
COST_FLAGS = (
    ("alpha_inter", "alpha_inter", "inter-node startup seconds/message"),
    ("beta_inter", "beta_inter", "inter-node seconds/byte"),
    ("alpha_intra", "alpha_intra", "intra-node startup seconds/message"),
    ("beta_intra", "beta_intra", "intra-node seconds/byte"),
    ("gamma_fast", "gamma_reduce_fast", "fast reduction seconds/byte"),
    ("gamma_slow", "gamma_reduce_slow", "slow reduction seconds/byte"),
    ("packet_bytes", "packet_bytes", "packet size for NIC counters"),
)
STORE_TRUE_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_size(text: str) -> int:
    text = text.strip().lower()
    if text and text[-1] in SIZE_SUFFIXES:
        try:
            return int(float(text[:-1]) * SIZE_SUFFIXES[text[-1]])
        except OverflowError:
            raise ValueError(f"size out of range: {text!r}") from None
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


def apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill every still-unset option of ``parser`` from ``args.config``.
    Keys are option dests; each value is converted and checked exactly as
    its flag would be."""
    actions = {a.dest: a for a in parser._actions if a.option_strings and hasattr(args, a.dest)}
    for key, raw in load_config_file(args.config).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        current = getattr(args, action.dest)
        if current is None or current is False:
            try:
                setattr(args, action.dest, _config_value(action, raw))
            except ValueError as exc:
                raise Unsupported(f"{args.config}: {key} = {raw!r}: {exc}") from None


def _config_value(action: argparse.Action, raw: str):
    """``raw`` converted by the option's ``type`` and checked against its
    ``choices``; a store-true option takes one of ``STORE_TRUE_WORDS``."""
    if action.nargs == 0:
        if raw.lower() not in STORE_TRUE_WORDS:
            raise ValueError(f"expected one of {', '.join(STORE_TRUE_WORDS)}")
        return STORE_TRUE_WORDS[raw.lower()]
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"choose from {', '.join(action.choices)}")
    return value


def build_params(args: argparse.Namespace) -> CostParams:
    return CostParams(**_given(**{field: getattr(args, dest) for dest, field, _ in COST_FLAGS}))


def _given(**values) -> dict:
    """``values`` without the entries left unset (None), so that the callee's
    own defaults apply to them."""
    return {key: value for key, value in values.items() if value is not None}


def make_parser() -> argparse.ArgumentParser:
    """Options left unset stay None (False for switches): a config file may
    fill them, and the defaults of ``SweepConfig`` and ``calibrate_selector``
    apply to the rest."""
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Collective-communication benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by sweep and calibrate.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value config file; flags override")
    shared.add_argument("--collective", choices=sorted(COLLECTIVE_NAMES))
    shared.add_argument("--sizes", type=parse_sizes, help="e.g. 16M,64M,1G")
    shared.add_argument(
        "--phys", choices=simnet.PHYS_TOPOLOGIES, dest="phys_topology",
        help="physical inter-node topology (simulated backend)",
    )
    cost = shared.add_argument_group("cost model")
    defaults = CostParams()
    for dest, field_name, help_text in COST_FLAGS:
        cost.add_argument(
            "--" + dest.replace("_", "-"), type=type(getattr(defaults, field_name)), help=help_text
        )

    sp = sub.add_parser("sweep", parents=[shared], help="run a benchmark sweep")
    sp.set_defaults(run=cmd_sweep, parser=sp)
    sp.add_argument("--backend", choices=sweepmod.BACKENDS)
    sp.add_argument("--algo", choices=simnet.ALGORITHMS)
    sp.add_argument("--inter", choices=INTER_ALGORITHMS)
    sp.add_argument("--grid", type=parse_grid, help="NxM cells, e.g. 2x4,4x8")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--warmup", action="store_true",
                    help="run and record one extra leading trial; summaries drop it")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--nodes", type=int,
                    help="single-cell topology: node count (with --gpus-per-node)")
    sp.add_argument("--gpus-per-node", type=int)
    sp.add_argument("--nics-per-node", type=int)
    sp.add_argument("--hostfile", help="socket backend host file (env COLLKIT_HOSTFILE)")
    sp.add_argument("--rank", type=int, help="socket backend rank id (env COLLKIT_RANK)")
    sp.add_argument("--connect-timeout", type=float,
                    help="socket connect timeout, default 30s (env COLLKIT_CONNECT_TIMEOUT)")
    sp.add_argument("--policy", choices=simnet.NIC_POLICIES, dest="nic_policy",
                    help="NIC assignment policy (simulated backend)")
    sp.add_argument("--profile", choices=simnet.REDUCE_PROFILES, dest="reduce_profile",
                    help="reduction throughput profile (simulated backend)")

    vp = sub.add_parser("verify", help="run the oracle correctness suite")
    vp.set_defaults(run=cmd_verify)
    vp.add_argument("--seed", type=int)

    cp = sub.add_parser("calibrate", parents=[shared], help="write the ring vs recursive crossover table")
    cp.set_defaults(run=cmd_calibrate, parser=cp)
    cp.add_argument("--nodes", type=parse_int_list, help="e.g. 4,8,16,32,64,128")
    cp.add_argument("--out", help="table CSV path")

    hp = sub.add_parser("heatmap", help="speedup CSV from two record CSVs")
    hp.set_defaults(run=cmd_heatmap)
    hp.add_argument("records_a", help="treatment records CSV")
    hp.add_argument("records_b", help="baseline records CSV")
    hp.add_argument("--out", help="output CSV (default: stdout)")

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
    backend = args.backend or "inprocess"
    params = build_params(args)
    grid, cell = args.grid, (args.nodes, args.gpus_per_node)
    if grid is None and cell != (None, None):
        if None in cell:
            raise Unsupported("--nodes and --gpus-per-node go together (or give --grid)")
        grid = (cell,)
    config = sweepmod.SweepConfig(
        params=params,
        **_given(
            collective=COLLECTIVE_NAMES.get(args.collective),
            algorithm=args.algo,
            inter=args.inter,
            sizes=args.sizes,
            grid=grid,
            trials=args.trials,
            seed=args.seed,
            verify=args.verify,
            warmup=args.warmup,
            nics_per_node=args.nics_per_node,
            nic_policy=args.nic_policy,
            phys_topology=args.phys_topology,
            reduce_profile=args.reduce_profile,
        ),
    )
    endpoint = None
    rank = 0
    try:
        if backend == "socket":
            hostfile = args.hostfile or os.environ.get("COLLKIT_HOSTFILE")
            rank_arg = args.rank if args.rank is not None else _env_number("COLLKIT_RANK", int, None)
            if hostfile is None or rank_arg is None:
                raise Unsupported("socket backend needs --hostfile and --rank")
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
    stem = f"{backend}_{config.collective}_{config.algorithm}"
    if config.algorithm == "hierarchical":
        stem += f"_{config.inter}"
    records_path = out_dir / f"{stem}.csv"
    sweepmod.write_records_csv(records, records_path)
    summary_path = out_dir / f"{stem}_summary.csv"
    sweepmod.write_csv(
        summary_path,
        ("backend", "collective", "algorithm", "inter", "N", "M", "m_bytes",
         "count", "mean", "std", "min"),
        ((*s.cell, s.count, s.mean, s.std, s.min) for s in summaries),
    )
    print(f"wrote {records_path} and {summary_path} ({len(records)} records)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Check every (collective, algorithm) on small worlds against the
    oracle, each cell as a one-trial verified in-process sweep. Cells that
    a sweep refuses as non-power-of-two are skipped."""
    failures = 0
    grid = ((1, 1), (1, 4), (2, 2), (2, 4), (3, 2), (4, 2))
    for algorithm, collective in itertools.product(simnet.ALGORITHMS, simnet.COLLECTIVES):
        for n_nodes, m_gpus in grid:
            config = sweepmod.SweepConfig(
                collective=collective,
                algorithm=algorithm,
                inter="ring" if algorithm != "hierarchical" else "recursive",
                sizes=(128 * n_nodes * m_gpus,),  # 32 float32 elements per rank block
                grid=((n_nodes, m_gpus),),
                trials=1,
                verify=True,
                **_given(seed=args.seed),
            )
            try:
                config.validate()
            except NonPowerOfTwo:
                continue
            label = f"{collective}/{algorithm} N={n_nodes} M={m_gpus}"
            try:
                sweepmod.run_sweep(config, "inprocess")
                print(f"PASS  {label}")
            except VerificationFailed:
                print(f"FAIL  {label}")
                failures += 1
    return 1 if failures else 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    table = sweepmod.calibrate_selector(
        params=build_params(args),
        **_given(
            n_nodes_list=args.nodes,
            sizes=args.sizes,
            phys_topology=args.phys_topology,
            collective=COLLECTIVE_NAMES.get(args.collective),
        ),
    )
    out = args.out or "calibration.csv"
    header = ("N", "m_bytes", "ring_seconds", "recursive_seconds", "winner")
    sweepmod.write_csv(out, header, map(dataclasses.astuple, table.entries))
    winners = {e.winner for e in table.entries}
    print(f"wrote {out} ({len(table.entries)} cells, winners: {sorted(winners)})")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    records_a = sweepmod.read_records_csv(args.records_a)
    records_b = sweepmod.read_records_csv(args.records_b)
    rows = sweepmod.emit_heatmap_data(records_a, records_b)
    sweepmod.write_csv(args.out, ("p", "m_bytes", "speedup"), rows)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} cells)")
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            apply_config_file(args, args.parser)
        return args.run(args)
    except (CollkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
