"""Analytic startup/bandwidth cost models and the inter-node algorithm
selector.

Times follow the usual two-parameter form: ``alpha`` seconds of startup per
message plus ``beta`` seconds per byte. For a p-rank collective moving an
``m``-byte gathered output (or reduced input), the ring variants cost
``alpha*(p-1) + beta*m*(p-1)/p`` and the recursive variants cost
``alpha*log2(p) + beta*m*(p-1)/p``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .collectives import is_power_of_two
from .errors import EmptyTable, NonPowerOfTwo, Unsupported
from .topology import Topology

SELECTOR_MODES = ("analytic", "table")


@dataclass(frozen=True)
class CostParams:
    """Model parameters. Startup costs are seconds per message, bandwidth
    costs seconds per byte. ``gamma_reduce_*`` is the reciprocal reduction
    throughput charged to the rank performing a reduction; the fast value
    models on-accelerator vector adds, the slow value host-side ones.
    ``packet_bytes`` only affects packet counters, never times.

    Defaults are desk-scale values of plausible magnitude, not measurements.
    """

    alpha_inter: float = 10e-6
    beta_inter: float = 0.04e-9
    alpha_intra: float = 3e-6
    beta_intra: float = 0.01e-9
    gamma_reduce_fast: float = 0.002e-9
    gamma_reduce_slow: float = 0.4e-9
    packet_bytes: int = 2048

    def __post_init__(self) -> None:
        for name in (
            "alpha_inter",
            "beta_inter",
            "alpha_intra",
            "beta_intra",
            "gamma_reduce_fast",
            "gamma_reduce_slow",
        ):
            if getattr(self, name) < 0:
                raise Unsupported(f"{name} must be >= 0")
        if self.packet_bytes < 1:
            raise Unsupported("packet_bytes must be >= 1")

    def alpha_beta(self, level: str) -> tuple[float, float]:
        if level == "inter":
            return self.alpha_inter, self.beta_inter
        if level == "intra":
            return self.alpha_intra, self.beta_intra
        raise Unsupported(f"unknown level {level!r}")

    def gamma(self, profile: str) -> float:
        if profile == "fast":
            return self.gamma_reduce_fast
        if profile == "slow":
            return self.gamma_reduce_slow
        raise Unsupported(f"unknown reduce profile {profile!r}")


def t_ring(p: int, m_bytes: float, params: CostParams, level: str = "inter") -> float:
    """Modeled time of a p-rank ring collective over an m-byte buffer."""
    if p < 1:
        raise Unsupported(f"p must be >= 1, got {p}")
    alpha, beta = params.alpha_beta(level)
    return alpha * (p - 1) + beta * m_bytes * (p - 1) / p


def t_rec(p: int, m_bytes: float, params: CostParams, level: str = "inter") -> float:
    """Modeled time of a p-rank recursive doubling/halving collective."""
    if not is_power_of_two(p):
        raise NonPowerOfTwo(f"recursive algorithms require power-of-two p, got {p}")
    alpha, beta = params.alpha_beta(level)
    return alpha * math.log2(p) + beta * m_bytes * (p - 1) / p


def t_hierarchical(
    topo: Topology, m_bytes: float, inter_alg: str, params: CostParams
) -> float:
    """Modeled time of the two-level collective: the inter-node phase moves
    the per-local-rank share (m / gpus_per_node) across nodes, the
    intra-node ring moves the full buffer inside each node; the local
    transpose is modeled as free."""
    n, m_gpus = topo.num_nodes, topo.gpus_per_node
    sub_m = m_bytes / m_gpus
    inter_alg = resolve_inter_algorithm(inter_alg, n, sub_m, params)
    if inter_alg == "ring":
        inter = t_ring(n, sub_m, params, level="inter")
    elif inter_alg == "recursive":
        inter = t_rec(n, sub_m, params, level="inter")
    else:
        raise Unsupported(f"unknown inter_alg {inter_alg!r}")
    return inter + t_ring(m_gpus, m_bytes, params, level="intra")


@dataclass(frozen=True)
class CalibrationEntry:
    n_nodes: int
    m_bytes: int
    ring_seconds: float
    recursive_seconds: float
    winner: str


@dataclass
class CalibrationTable:
    """Simulator-measured ring vs recursive times keyed by (node count,
    message-size bucket), consulted by table-mode selection."""

    entries: list[CalibrationEntry] = field(default_factory=list)

    def add(self, entry: CalibrationEntry) -> None:
        self.entries.append(entry)

    def lookup(self, n_nodes: int, m_bytes: float) -> str:
        candidates = [e for e in self.entries if e.n_nodes == n_nodes]
        if not candidates:
            raise EmptyTable(
                f"no calibration entries for N={n_nodes} "
                f"({len(self.entries)} entries total)"
            )
        # Nearest size bucket in log space.
        best = min(
            candidates,
            key=lambda e: abs(math.log(max(m_bytes, 1.0)) - math.log(max(e.m_bytes, 1))),
        )
        return best.winner

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["N", "m_bytes", "ring_seconds", "recursive_seconds", "winner"]
            )
            for e in self.entries:
                writer.writerow(
                    [e.n_nodes, e.m_bytes, repr(e.ring_seconds), repr(e.recursive_seconds), e.winner]
                )

    @classmethod
    def load_csv(cls, path) -> "CalibrationTable":
        table = cls()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                table.add(
                    CalibrationEntry(
                        n_nodes=int(row["N"]),
                        m_bytes=int(row["m_bytes"]),
                        ring_seconds=float(row["ring_seconds"]),
                        recursive_seconds=float(row["recursive_seconds"]),
                        winner=row["winner"],
                    )
                )
        return table


def resolve_inter_algorithm(
    inter_alg: str,
    n_nodes: int,
    m_bytes: float,
    params: CostParams | None = None,
    mode: str = "analytic",
    table: CalibrationTable | None = None,
) -> str:
    """The inter-node algorithm ``inter_alg`` stands for: itself, unless it
    is "auto", which is ring below 2 nodes and otherwise the choice of
    :func:`choose_inter_algorithm`."""
    if inter_alg != "auto":
        return inter_alg
    if n_nodes < 2:
        return "ring"
    return choose_inter_algorithm(n_nodes, m_bytes, params, mode=mode, table=table)


def choose_inter_algorithm(
    n_nodes: int,
    m_bytes: float,
    params: CostParams | None = None,
    mode: str = "analytic",
    table: CalibrationTable | None = None,
) -> str:
    """Pick "ring" or "recursive" for an inter-node collective over
    ``n_nodes`` ranks and an ``m_bytes`` buffer.

    Analytic mode compares :func:`t_ring` with :func:`t_rec`, preferring
    ring on exact ties and whenever the node count is not a power of two.
    Table mode looks the winner up in a simulator-produced calibration.
    """
    if n_nodes < 2:
        raise Unsupported(f"selection needs at least 2 nodes, got {n_nodes}")
    if mode not in SELECTOR_MODES:
        raise Unsupported(f"selection mode must be one of {SELECTOR_MODES}, got {mode!r}")
    if mode == "table":
        if table is None or not table.entries:
            raise EmptyTable("table mode requires a calibration table")
        return table.lookup(n_nodes, m_bytes)
    if not is_power_of_two(n_nodes):
        return "ring"
    params = params or CostParams()
    ring = t_ring(n_nodes, m_bytes, params)
    rec = t_rec(n_nodes, m_bytes, params)
    return "ring" if ring <= rec else "recursive"
