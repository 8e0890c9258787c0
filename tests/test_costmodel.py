import csv
import math

import pytest
from hypothesis import given, settings, strategies as st

from collkit.bench import cli
from collkit.bench.sweep import calibrate_selector
from collkit.costmodel import (
    CalibrationEntry,
    CostParams,
    choose_inter_algorithm,
    hierarchical_phases,
    t_hierarchical,
    t_rec,
    t_ring,
)
from collkit.errors import NonPowerOfTwo, Unsupported
from collkit.topology import Topology

UNIT = CostParams(alpha_inter=1.0, beta_inter=1.0, alpha_intra=1.0, beta_intra=1.0)


def test_t_ring_examples():
    assert t_ring(1, 123, UNIT) == 0.0
    assert t_ring(4, 8, UNIT) == 9.0


def test_t_ring_large_p_formula_value():
    params = CostParams(alpha_inter=1e-5, beta_inter=1e-10)
    m = 64 * 2**20
    value = t_ring(2048, m, params)
    assert math.isclose(value, 1e-5 * 2047 + 1e-10 * m * 2047 / 2048, rel_tol=1e-12)
    # Linear growth in p for fixed m.
    assert t_ring(4096, m, params) - value > 1e-5 * 2000


def test_t_rec_examples():
    assert t_rec(1, 50, UNIT) == 0.0
    assert t_rec(4, 8, UNIT) == 8.0
    with pytest.raises(NonPowerOfTwo):
        t_rec(6, 8, UNIT)


@pytest.mark.parametrize("p", [4, 8, 16, 64, 1024])
def test_t_rec_beats_t_ring_with_equal_bandwidth_term(p):
    params = CostParams()
    m = 1 << 20
    gap = t_ring(p, m, params) - t_rec(p, m, params)
    assert math.isclose(gap, params.alpha_inter * (p - 1 - math.log2(p)), rel_tol=1e-12)
    assert gap > 0


@given(
    p=st.sampled_from([1, 2, 4, 8, 16, 32]),
    m=st.integers(0, 1 << 30),
    scale=st.floats(0.1, 10.0),
)
@settings(deadline=None, max_examples=60)
def test_t_ring_monotone_in_each_argument(p, m, scale):
    params = CostParams()
    bigger = CostParams(
        alpha_inter=params.alpha_inter * (1 + scale),
        beta_inter=params.beta_inter * (1 + scale),
    )
    assert t_ring(p, m, params) <= t_ring(p + 1, m, params)
    assert t_ring(p, m, params) <= t_ring(p, m + 1024, params)
    assert t_ring(p, m, params) <= t_ring(p, m, bigger)


def test_t_hierarchical_degenerate_levels():
    params = CostParams()
    m = 1 << 20
    single_node = Topology(1, 8, 4)
    assert t_hierarchical(single_node, m, "ring", params) == t_ring(8, m, params, "intra")
    single_gpu = Topology(16, 1, 1)
    assert t_hierarchical(single_gpu, m, "ring", params) == t_ring(16, m, params)


def test_t_hierarchical_hand_computed_sum():
    params = CostParams()
    topo = Topology(16, 8, 4)
    m = 8 << 20
    want = (
        params.alpha_inter * 15
        + params.beta_inter * (m / 8) * 15 / 16
        + params.alpha_intra * 7
        + params.beta_intra * m * 7 / 8
    )
    assert math.isclose(t_hierarchical(topo, m, "ring", params), want, rel_tol=1e-12)
    want_rec = (
        params.alpha_inter * 4
        + params.beta_inter * (m / 8) * 15 / 16
        + params.alpha_intra * 7
        + params.beta_intra * m * 7 / 8
    )
    assert math.isclose(t_hierarchical(topo, m, "recursive", params), want_rec, rel_tol=1e-12)


@st.composite
def hierarchical_cells(draw):
    inter = draw(st.sampled_from(["ring", "recursive"]))
    if inter == "recursive":
        n = draw(st.sampled_from([1, 2, 4, 8, 64, 1024]))
    else:
        n = draw(st.integers(1, 1024))
    topo = Topology(n, draw(st.integers(1, 16)), 1)
    m = draw(st.one_of(st.integers(0, 1 << 50), st.floats(0.0, 1e15)))
    cost = st.floats(0.0, 1e-3)
    params = CostParams(
        alpha_inter=draw(cost), beta_inter=draw(cost), alpha_intra=draw(cost), beta_intra=draw(cost)
    )
    return topo, m, inter, params


@given(cell=hierarchical_cells())
@settings(deadline=None, max_examples=200)
def test_t_hierarchical_is_the_inter_phase_plus_the_intra_ring(cell):
    """Bit for bit the two-term formula: the inter-node phase over the
    per-local-rank share, plus the intra-node ring over the full buffer."""
    topo, m, inter, params = cell
    n, m_gpus = topo.num_nodes, topo.gpus_per_node
    t_inter = t_ring if inter == "ring" else t_rec
    want = t_inter(n, m / m_gpus, params, level="inter") + t_ring(m_gpus, m, params, level="intra")
    assert t_hierarchical(topo, m, inter, params) == want


def test_hierarchical_phases_order_and_refusals():
    topo = Topology(4, 2, 1)
    all_gather = hierarchical_phases(topo, "all_gather", "recursive")
    assert all_gather == (("inter", "recursive", 8), ("intra", "ring", 2))
    assert hierarchical_phases(topo, "reduce_scatter", "recursive") == all_gather[::-1]
    for unresolved in ("auto", "tree"):
        with pytest.raises(Unsupported):
            hierarchical_phases(topo, "all_gather", unresolved)


def test_t_hierarchical_rejects_recursive_non_power_of_two():
    with pytest.raises(NonPowerOfTwo):
        t_hierarchical(Topology(6, 2, 1), 1 << 20, "recursive", CostParams())


def test_choose_is_ring_on_two_node_tie():
    assert choose_inter_algorithm(2, 1 << 20, CostParams()) == "ring"


def test_choose_prefers_recursive_at_scale():
    for m in (1 << 10, 1 << 20, 1 << 30):
        assert choose_inter_algorithm(64, m, CostParams()) == "recursive"


def test_choose_falls_back_to_ring_for_non_power_of_two():
    assert choose_inter_algorithm(6, 1 << 20, CostParams()) == "ring"


def test_unknown_inter_algorithm_and_selection_mode_are_unsupported():
    with pytest.raises(Unsupported):
        t_hierarchical(Topology(4, 2, 1), 1 << 20, "tree", CostParams())


def test_choose_requires_two_nodes():
    with pytest.raises(Unsupported):
        choose_inter_algorithm(1, 1 << 20, CostParams())


def test_unknown_level_profile_and_empty_ring_are_unsupported():
    with pytest.raises(Unsupported):
        CostParams().alpha_beta("rack")
    with pytest.raises(Unsupported):
        CostParams().gamma("medium")
    with pytest.raises(Unsupported):
        t_ring(0, 1 << 20, CostParams())


@given(c=st.floats(1e-3, 1e3), n=st.sampled_from([2, 4, 8, 32]), m=st.integers(1, 1 << 30))
@settings(deadline=None, max_examples=60)
def test_choose_is_scale_invariant(c, n, m):
    base = CostParams()
    scaled = CostParams(alpha_inter=base.alpha_inter * c, beta_inter=base.beta_inter * c)
    assert choose_inter_algorithm(n, m, base) == choose_inter_algorithm(n, m, scaled)


def test_calibration_table_save_csv_header_and_round_trip(tmp_path):
    """``bench calibrate`` writes every entry so that it reads back equal,
    an infinite recursive time (3 nodes) included."""
    table = calibrate_selector([3, 4, 64], [3 << 20, 3 << 30], CostParams())
    path = tmp_path / "table.csv"
    assert cli.main(["calibrate", "--nodes", "3,4,64", "--sizes", "3M,3G", "--out", str(path)]) == 0
    header = path.read_text().splitlines()[0]
    assert header == "N,m_bytes,ring_seconds,recursive_seconds,winner"
    with open(path, newline="") as fh:
        loaded = [
            CalibrationEntry(
                int(row["N"]),
                int(row["m_bytes"]),
                float(row["ring_seconds"]),
                float(row["recursive_seconds"]),
                row["winner"],
            )
            for row in csv.DictReader(fh)
        ]
    assert loaded == table.entries


def test_params_validation():
    with pytest.raises(Unsupported):
        CostParams(alpha_inter=-1.0)
    with pytest.raises(Unsupported):
        CostParams(packet_bytes=0)
    params = CostParams()
    assert params.gamma("fast") == params.gamma_reduce_fast
    assert params.gamma("slow") == params.gamma_reduce_slow


def test_params_refuse_a_packet_size_that_is_not_an_int():
    with pytest.raises(Unsupported, match="packet_bytes must be an int"):
        CostParams(packet_bytes=1000.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name",
    [
        "alpha_inter",
        "beta_inter",
        "alpha_intra",
        "beta_intra",
        "gamma_reduce_fast",
        "gamma_reduce_slow",
    ],
)
def test_params_refuse_values_that_are_not_finite(name, value):
    """A NaN or infinite cost would price to NaN, or drop out of a max."""
    with pytest.raises(Unsupported, match=f"{name} must be >= 0 and finite"):
        CostParams(**{name: value})
