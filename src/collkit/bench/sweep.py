"""Benchmark harness: sweeps over (collective, algorithm, ranks, size),
per-trial records, summaries, speedup tables, and selector calibration.

Measurement protocol: every cell runs a fixed number of independent trials
(default ten); wall-clock backends time barrier-bracketed collective calls
with a monotonic clock, the simulated backend needs a single deterministic
trial per cell. With verification enabled, each cell's outputs are checked
against the brute-force oracle before any trial is timed.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .. import collectives, simnet
from ..costmodel import INTER_ALGORITHMS, CalibrationEntry, CalibrationTable, CostParams
from ..errors import (
    EmptyCell,
    GridMismatch,
    LengthMismatch,
    NonPowerOfTwo,
    NotDivisible,
    Unsupported,
    VerificationFailed,
)
from ..hierarchy import HierPlan, hier_all_gather, hier_reduce_scatter
from ..topology import Topology
from ..transport.base import Communicator
from ..transport.inprocess import run_ranks
from . import oracles

BACKENDS = ("inprocess", "socket", "sim")
DEFAULT_SIZES = tuple(2**i * 2**20 for i in range(4, 11))  # 16 MiB .. 1 GiB
DEFAULT_GRID = ((1, 2), (1, 4), (1, 8), (2, 2), (2, 4), (2, 8), (4, 2), (4, 4), (4, 8))


@dataclass(frozen=True)
class RunRecord:
    backend: str
    collective: str
    algorithm: str
    inter: str
    p: int
    n_nodes: int
    m_gpus: int
    m_bytes: int
    trial: int
    seconds: float
    verified: bool

    def cell_key(self) -> tuple:
        return (
            self.backend,
            self.collective,
            self.algorithm,
            self.inter,
            self.n_nodes,
            self.m_gpus,
            self.m_bytes,
        )


@dataclass(frozen=True)
class SweepConfig:
    collective: str = "all_gather"
    algorithm: str = "ring"
    inter: str = "ring"
    sizes: tuple[int, ...] = DEFAULT_SIZES
    grid: tuple[tuple[int, int], ...] = DEFAULT_GRID
    trials: int = 10
    seed: int = 0
    verify: bool = False
    warmup: bool = False
    nics_per_node: int | None = None
    params: CostParams = field(default_factory=CostParams)
    nic_policy: str = "balanced"
    phys_topology: str = "fully_connected"
    reduce_profile: str = "fast"

    def validate(self) -> None:
        if self.collective not in simnet.COLLECTIVES:
            raise Unsupported(f"unknown collective {self.collective!r}")
        if self.algorithm not in simnet.ALGORITHMS:
            raise Unsupported(f"unknown algorithm {self.algorithm!r}")
        if self.inter not in INTER_ALGORITHMS:
            raise Unsupported(f"inter must be one of {INTER_ALGORITHMS}")
        if self.trials < 1:
            raise Unsupported(f"trials must be >= 1, got {self.trials}")
        recursive_inter = self.algorithm == "hierarchical" and self.inter == "recursive"
        for n_nodes, m_gpus in self.grid:
            p = self.topo_for(n_nodes, m_gpus).world_size
            if self.algorithm == "recursive" and not collectives.is_power_of_two(p):
                raise NonPowerOfTwo(f"recursive algorithm needs power-of-two p, got {p}")
            if recursive_inter and not collectives.is_power_of_two(n_nodes):
                raise NonPowerOfTwo(f"recursive inter needs power-of-two N, got {n_nodes}")
            for m in self.sizes:
                if m < 0:
                    raise LengthMismatch(f"negative byte count {m}")
                # Whole 32-bit elements per rank are required throughout.
                if m % (4 * p) != 0:
                    raise NotDivisible(
                        f"size {m} not divisible into whole elements over p={p}"
                    )

    def topo_for(self, n_nodes: int, m_gpus: int) -> Topology:
        nics = default_nics(m_gpus) if self.nics_per_node is None else self.nics_per_node
        return Topology(n_nodes, m_gpus, nics)


def default_nics(m_gpus: int) -> int:
    """One NIC per pair of local ranks, at least one."""
    return max(1, m_gpus // 2) if m_gpus % 2 == 0 else 1


def cell_seed(global_seed: int, cell_id: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_inputs(config: SweepConfig, cell_id: str, p: int, m_bytes: int, collective: str):
    """Per-rank integer-valued float32 buffers; values in [-1024, 1024] so
    float sums stay exact."""
    rng = np.random.default_rng(cell_seed(config.seed, cell_id))
    per_rank = m_bytes // 4 if collective == "reduce_scatter" else m_bytes // (4 * p)
    return [
        rng.integers(-1024, 1025, size=per_rank).astype(np.float32) for _ in range(p)
    ]


def _collective_fn(config: SweepConfig, topo: Topology, inputs):
    collective, algorithm = config.collective, config.algorithm
    if algorithm == "hierarchical":
        plan = HierPlan(topo=topo, inter_alg=config.inter, params=config.params)
        op = hier_all_gather if collective == "all_gather" else hier_reduce_scatter

        def fn(comm):
            return op(plan, comm, inputs[comm.rank])

        return fn
    flat = collectives.all_gather if collective == "all_gather" else collectives.reduce_scatter

    def fn(comm):
        return flat(comm, algorithm, inputs[comm.rank])

    return fn


def _check_outputs(collective: str, inputs, outputs) -> None:
    """Raise VerificationFailed unless each ``(rank, out)`` in ``outputs``
    is that rank's oracle result for ``inputs``. The oracle runs once, for
    every rank of a world as for the one rank of a socket process."""
    if collective == "all_gather":
        want = [oracles.expected_all_gather(inputs)] * len(inputs)
    else:
        want = oracles.expected_reduce_scatter(inputs)
    for rank, out in outputs:
        if not np.array_equal(out, want[rank]):
            raise VerificationFailed(f"{collective} output wrong at rank {rank}")


def _timed(fn):
    """``fn`` bracketed by barriers; each rank returns the seconds from
    leaving the first barrier to leaving the second."""

    def timed(comm) -> float:
        comm.barrier()
        start = time.perf_counter()
        fn(comm)
        comm.barrier()
        return time.perf_counter() - start

    return timed


def run_sweep(config: SweepConfig, backend: str, *, endpoint=None) -> list[RunRecord]:
    """Execute every (grid cell x size) the configured number of times.

    The simulated backend is deterministic and emits exactly one record per
    cell; wall-clock backends emit one record per trial (plus a leading
    warm-up trial, also recorded, when ``warmup`` is set). Verification is
    a data check and therefore only applies to data-moving backends.

    For the socket backend this process is one rank of an already meshed
    world: pass its connected ``endpoint``; the grid must be a single cell
    whose rank count matches the mesh, and every process must run the same
    sweep. Timings in the returned records are this rank's; rank 0's are
    the canonical ones to publish.
    """
    config.validate()
    if backend not in BACKENDS:
        raise Unsupported(f"unknown backend {backend!r}")
    if backend == "sim" and config.verify:
        raise Unsupported("--verify checks real payloads; use a data-moving backend")
    if backend == "socket":
        if endpoint is None:
            raise Unsupported("socket sweeps need a connected endpoint (host file)")
        if len(config.grid) != 1 or config.grid[0][0] * config.grid[0][1] != endpoint.size:
            raise Unsupported(
                f"socket sweeps need a single grid cell matching the host "
                f"file world of {endpoint.size} ranks"
            )
        world = Communicator(endpoint, range(endpoint.size))
    records: list[RunRecord] = []
    for n_nodes, m_gpus in config.grid:
        topo = config.topo_for(n_nodes, m_gpus)
        p = topo.world_size
        for m_bytes in config.sizes:
            cell_id = (
                f"{config.collective}:{config.algorithm}:{config.inter}:"
                f"{n_nodes}x{m_gpus}:{m_bytes}"
            )

            def emit(trial: int, seconds: float) -> None:
                records.append(
                    RunRecord(
                        backend=backend,
                        collective=config.collective,
                        algorithm=config.algorithm,
                        inter=config.inter,
                        p=p,
                        n_nodes=n_nodes,
                        m_gpus=m_gpus,
                        m_bytes=m_bytes,
                        trial=trial,
                        seconds=seconds,
                        verified=config.verify,
                    )
                )

            if backend == "sim":
                sim_config = simnet.SimConfig(
                    topo=topo,
                    params=config.params,
                    nic_policy=config.nic_policy,
                    phys_topology=config.phys_topology,
                    reduce_profile=config.reduce_profile,
                )
                seconds = simnet.seconds(
                    sim_config, config.collective, config.algorithm, m_bytes, config.inter
                )
                emit(0, seconds)
                continue

            inputs = make_inputs(config, cell_id, p, m_bytes, config.collective)
            fn = _collective_fn(config, topo, inputs)
            if config.verify:
                # In process every rank's output; on sockets this rank's own.
                if backend == "socket":
                    outputs = [(world.rank, fn(world))]
                else:
                    outputs = enumerate(run_ranks(p, fn))
                _check_outputs(config.collective, inputs, outputs)
            # Rank 0's time in process; this rank's own on sockets.
            timed = _timed(fn)
            for trial in range(config.trials + (1 if config.warmup else 0)):
                emit(trial, timed(world) if backend == "socket" else run_ranks(p, timed)[0])
    return records


@dataclass(frozen=True)
class CellSummary:
    cell: tuple
    count: int
    mean: float
    std: float
    min: float


def summarize(records, *, drop_first_trial: bool = False) -> list[CellSummary]:
    """Per-cell sample mean, (n-1)-denominator standard deviation, and
    minimum. ``drop_first_trial`` excludes trial 0 of each cell (warm-up)."""
    cells: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        cells.setdefault(rec.cell_key(), []).append(rec)
    if not cells:
        raise EmptyCell("no records to summarize")
    out = []
    for key in sorted(cells):
        rows = cells[key]
        if drop_first_trial and len(rows) > 1:
            rows = [r for r in rows if r.trial != 0]
        if not rows:
            raise EmptyCell(f"cell {key} has no records")
        values = [r.seconds for r in rows]
        out.append(
            CellSummary(
                cell=key,
                count=len(values),
                mean=statistics.fmean(values),
                std=statistics.stdev(values) if len(values) > 1 else 0.0,
                min=min(values),
            )
        )
    return out


def emit_heatmap_data(records_a, records_b) -> list[tuple[int, int, float]]:
    """Speedup of record set A over baseline B per (p, m_bytes) cell:
    speedup = mean_b / mean_a. Both sets must cover the same grid."""

    def cell_means(records):
        groups: dict[tuple[int, int], list[float]] = {}
        for rec in records:
            groups.setdefault((rec.p, rec.m_bytes), []).append(rec.seconds)
        return {k: statistics.fmean(v) for k, v in groups.items()}

    means_a, means_b = cell_means(records_a), cell_means(records_b)
    if set(means_a) != set(means_b):
        raise GridMismatch(
            f"grids differ: {sorted(set(means_a) ^ set(means_b))}"
        )
    if not means_a:
        raise GridMismatch("empty record sets")
    zero = [cell for cell, mean in sorted(means_a.items()) if mean == 0]
    if zero:
        raise Unsupported(f"treatment mean is 0 s at (p, m_bytes) {zero}: no speedup over it")
    return [
        (p, m, means_b[(p, m)] / means_a[(p, m)]) for p, m in sorted(means_a)
    ]


def calibrate_selector(
    n_nodes_list=(4, 8, 16, 32, 64, 128),
    sizes=DEFAULT_SIZES,
    params: CostParams | None = None,
    *,
    phys_topology: str = "ring_of_nodes",
    collective: str = "all_gather",
) -> CalibrationTable:
    """Price ring vs recursive inter-node collectives over single-GPU
    nodes with :func:`collkit.simnet.seconds` (``simulate``'s one pricing
    loop, ``simnet._price``, without NIC counters or trace) and record the
    winner per (node count, size). Ring wins ties and is the only
    candidate for non-power-of-two node counts. The whole grid is checked
    before the first cell is priced."""
    params = params or CostParams()
    topos = [Topology(n, 1, 1) for n in n_nodes_list]
    for topo in topos:
        for m in sizes:
            simnet.check_bytes(m, topo.world_size)
    table = CalibrationTable()
    for topo in topos:
        n = topo.num_nodes
        config = simnet.SimConfig(
            topo=topo, params=params, phys_topology=phys_topology
        )
        for m in sizes:
            t_ring = simnet.seconds(config, collective, "ring", m)
            if collectives.is_power_of_two(n):
                t_rec = simnet.seconds(config, collective, "recursive", m)
            else:
                t_rec = math.inf
            winner = "ring" if t_ring <= t_rec else "recursive"
            table.add(
                CalibrationEntry(
                    n_nodes=n,
                    m_bytes=m,
                    ring_seconds=t_ring,
                    recursive_seconds=t_rec,
                    winner=winner,
                )
            )
    return table


# Each RunRecord field's CSV header and parser, in field order.
RECORD_COLUMNS = (
    ("backend", str), ("collective", str), ("algorithm", str), ("inter", str),
    ("p", int), ("N", int), ("M", int), ("m_bytes", int), ("trial", int),
    ("seconds", float), ("verified", lambda text: bool(int(text))),
)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as comma-separated lines to ``path``,
    or to stdout when ``path`` is None. Floats are written with ``str``,
    which equals ``repr`` and so reads back exactly; booleans as 0/1."""
    text = "".join(
        ",".join(str(int(v) if isinstance(v, bool) else v) for v in line) + "\n"
        for line in (header, *rows)
    )
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def write_records_csv(records, path) -> None:
    header = [name for name, _ in RECORD_COLUMNS]
    write_csv(path, header, map(dataclasses.astuple, records))


def read_records_csv(path) -> list[RunRecord]:
    with open(path, newline="") as fh:
        return [
            RunRecord(*(parse(row[name]) for name, parse in RECORD_COLUMNS))
            for row in csv.DictReader(fh)
        ]
