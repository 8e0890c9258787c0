"""The simulator's numbers on a fixed grid of 2080 cells, pinned.

Every cell of 13 machine shapes x both NIC policies x both physical
topologies x both reduce profiles x both collectives x five algorithms x
two sizes records ``simulate``'s seconds and ``seconds()`` as float hex,
the ``repr`` of each ``trace.runs`` record and the four NIC counter lists,
or the name of the ``CollkitError`` the cell raises. The records of one
(collective, algorithm, inter-node algorithm) key hash into one sha256.
The shapes cover both fold paths (flat rings of 101 and 1023 steps, links
charged 512 times on a 128-node ring) and the refusals of non-power-of-two
recursive runs (3x2x1, 5x4x4, 102x1x1).

A change that is meant to move simulated numbers re-records the digests
of the keys it moves, and only those, with
``PYTHONPATH=src python3 tests/test_sim_golden.py``, which prints them all.
"""
import functools
import hashlib

import pytest

from collkit import simnet
from collkit.costmodel import CostParams
from collkit.errors import CollkitError
from collkit.simnet import COLLECTIVES, NIC_POLICIES, PHYS_TOPOLOGIES, REDUCE_PROFILES, SimConfig
from collkit.topology import Topology

TOPOLOGIES = [
    Topology(1, 1, 1),
    Topology(2, 1, 1),
    Topology(3, 2, 1),
    Topology(4, 2, 1),
    Topology(2, 4, 2),
    Topology(5, 4, 4),
    Topology(8, 2, 2),
    Topology(16, 4, 2),
    Topology(32, 8, 4),
    Topology(64, 1, 1),
    Topology(102, 1, 1),
    Topology(64, 8, 4),
    Topology(128, 8, 4),
]
ALGORITHMS = [
    ("ring", "ring"),
    ("recursive", "ring"),
    ("hierarchical", "ring"),
    ("hierarchical", "recursive"),
    ("hierarchical", "auto"),
]
# Bytes per rank: m_bytes is the world size times each. At the default
# costs the small one is startup-bound and the large one wire-bound.
BLOCKS = (1000, 1 << 20)

DIGESTS = {
    'all_gather:ring': 'eea4c1bb571811b209a1fa0f3d86f489042dabdfab4fa53547d0d07be4a84b83',
    'all_gather:recursive': 'fdd2d31d356830b62b7401e924250f017a1c0e3867c8dd37abdea83756c6be34',
    'all_gather:hierarchical-ring': '518fd724edaf9e32cdae21e06f400843e3921de0505e8da270e27736c4afa706',
    'all_gather:hierarchical-recursive': 'd781e709bdfab1f2381cf68f74d5f4ca217fdd2c724f81ad588c4886afd8a133',
    'all_gather:hierarchical-auto': '090540a1c73e6391d79e9a1b91a66620ad43ef15212926c0598bcd332a32f42a',
    'reduce_scatter:ring': '39fa1a96f66b62a7e16e1f30174f60d275ab083326c40dabfeb74e5486cb005d',
    'reduce_scatter:recursive': 'da1a76859488ea61bca417bbc554019f2cc535cdbda35a42ecc61f71312ca6c8',
    'reduce_scatter:hierarchical-ring': '13db5c479f09f102b00f38568f6b4a333a558369e86a9c92ec349bb517147c0f',
    'reduce_scatter:hierarchical-recursive': 'f90dcb426524fe663dd98ef489e3ee371e522acc5a95ac6aed03622bc5e62481',
    'reduce_scatter:hierarchical-auto': '5a4f8402c88e2afd1850105bbe0b66ae15141faf9f98ee0143422a2f8778fb26',
}


def key_of(collective: str, algorithm: str, inter_alg: str) -> str:
    if algorithm == "hierarchical":
        return f"{collective}:{algorithm}-{inter_alg}"
    return f"{collective}:{algorithm}"


def cell_record(config, collective, algorithm, m_bytes, inter_alg) -> str:
    try:
        res = simnet.simulate(config, collective, algorithm, m_bytes, inter_alg=inter_alg)
        seconds = simnet.seconds(config, collective, algorithm, m_bytes, inter_alg=inter_alg)
    except CollkitError as exc:
        return type(exc).__name__
    c = res.counters
    return repr((
        res.seconds.hex(),
        seconds.hex(),
        [repr(run) for run in res.trace.runs],
        [c.bytes_in, c.bytes_out, c.posted_pkts, c.non_posted_pkts],
    ))


@functools.lru_cache(maxsize=1)
def grid_digests() -> dict[str, str]:
    hashes = {}
    # Shape outermost, so that the plan cache holds every plan of a shape.
    for topo in TOPOLOGIES:
        for policy in NIC_POLICIES:
            for phys in PHYS_TOPOLOGIES:
                for profile in REDUCE_PROFILES:
                    config = SimConfig(topo, CostParams(), policy, phys, profile)
                    for collective in COLLECTIVES:
                        for algorithm, inter_alg in ALGORITHMS:
                            key = key_of(collective, algorithm, inter_alg)
                            digest = hashes.setdefault(key, hashlib.sha256())
                            for block in BLOCKS:
                                record = cell_record(
                                    config, collective, algorithm, topo.world_size * block,
                                    inter_alg,
                                )
                                digest.update(record.encode() + b"\n")
    return {key: digest.hexdigest() for key, digest in hashes.items()}


@pytest.mark.parametrize("key", DIGESTS)
def test_simulated_grid_matches_its_pinned_digest(key):
    assert grid_digests()[key] == DIGESTS[key]


def test_the_grid_pins_every_key():
    assert grid_digests().keys() == DIGESTS.keys()


if __name__ == "__main__":
    for key, digest in grid_digests().items():
        print(f"    {key!r}: {digest!r},")
