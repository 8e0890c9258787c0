"""Analytic startup/bandwidth cost models, the phases of the hierarchical
collectives, and the inter-node algorithm selector.

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
from .errors import NonPowerOfTwo, Unsupported
from .topology import Topology

INTER_ALGORITHMS = ("ring", "recursive", "auto")


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
            if not 0 <= getattr(self, name) < math.inf:  # False for NaN too
                raise Unsupported(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
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


def hierarchical_phases(
    topo: Topology, collective: str, inter: str
) -> tuple[tuple[str, str, int], ...]:
    """The phases of one hierarchical run, in run order, as (group kind,
    flat algorithm, divisor of ``m_bytes`` giving its block): ``inter``
    across the nodes, then a ring inside each node, reversed for
    reduce-scatter. The real runs, the simulator and :func:`t_hierarchical`
    all read this one composition."""
    if inter not in ("ring", "recursive"):
        raise Unsupported(f"inter_alg must be one of {INTER_ALGORITHMS}")
    phases = (("inter", inter, topo.world_size), ("intra", "ring", topo.gpus_per_node))
    return phases[::-1] if collective == "reduce_scatter" else phases


def t_hierarchical(topo: Topology, m_bytes: float, inter_alg: str, params: CostParams) -> float:
    """Modeled time of the two-level collective: each phase of
    :func:`hierarchical_phases` at its level. The inter-node phase moves the
    per-local-rank share (m / gpus_per_node) across nodes, on which ``auto``
    resolves; the intra-node ring moves the full buffer inside each node."""
    n, m_gpus = topo.num_nodes, topo.gpus_per_node
    inter_alg = resolve_inter_algorithm(inter_alg, n, m_bytes / m_gpus, params)
    total = 0.0
    for kind, alg, divisor in hierarchical_phases(topo, "all_gather", inter_alg):
        p = n if kind == "inter" else m_gpus
        total += (t_ring if alg == "ring" else t_rec)(p, m_bytes / (divisor // p), params, kind)
    return total


@dataclass(frozen=True)
class CalibrationEntry:
    n_nodes: int
    m_bytes: int
    ring_seconds: float
    recursive_seconds: float
    winner: str


@dataclass
class CalibrationTable:
    """Simulator-measured ring vs recursive times per (node count, size):
    the crossover ``bench calibrate`` reports. Selection never reads it."""

    entries: list[CalibrationEntry] = field(default_factory=list)

    def add(self, entry: CalibrationEntry) -> None:
        self.entries.append(entry)

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


def resolve_inter_algorithm(
    inter_alg: str, n_nodes: int, m_bytes: float, params: CostParams | None = None
) -> str:
    """The inter-node algorithm ``inter_alg`` stands for: itself, unless it
    is "auto", which is ring below 2 nodes and otherwise the choice of
    :func:`choose_inter_algorithm`."""
    if inter_alg != "auto":
        return inter_alg
    if n_nodes < 2:
        return "ring"
    return choose_inter_algorithm(n_nodes, m_bytes, params)


def choose_inter_algorithm(
    n_nodes: int, m_bytes: float, params: CostParams | None = None
) -> str:
    """Pick "ring" or "recursive" for an inter-node collective over
    ``n_nodes`` ranks and an ``m_bytes`` buffer by comparing :func:`t_ring`
    with :func:`t_rec`, preferring ring on exact ties and whenever the node
    count is not a power of two. This is what ``auto`` means everywhere:
    real runs, the simulator and :func:`t_hierarchical`."""
    if n_nodes < 2:
        raise Unsupported(f"selection needs at least 2 nodes, got {n_nodes}")
    if not is_power_of_two(n_nodes):
        return "ring"
    params = params or CostParams()
    ring = t_ring(n_nodes, m_bytes, params)
    rec = t_rec(n_nodes, m_bytes, params)
    return "ring" if ring <= rec else "recursive"
