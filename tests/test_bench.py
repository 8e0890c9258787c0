import math

import numpy as np
import pytest

from collkit import simnet
from collkit.bench import oracles
from collkit.bench.sweep import (
    RunRecord,
    SweepConfig,
    calibrate_selector,
    emit_heatmap_data,
    make_inputs,
    read_records_csv,
    run_sweep,
    summarize,
    write_records_csv,
)
from collkit.costmodel import CostParams
from collkit.errors import (
    EmptyCell,
    GridMismatch,
    InvalidTopology,
    LengthMismatch,
    NonPowerOfTwo,
    NotDivisible,
    Unsupported,
    VerificationFailed,
)


def record(seconds, trial=0, p=4, m=1024, algo="ring"):
    return RunRecord(
        backend="inprocess",
        collective="all_gather",
        algorithm=algo,
        inter="ring",
        p=p,
        n_nodes=1,
        m_gpus=p,
        m_bytes=m,
        trial=trial,
        seconds=seconds,
        verified=True,
    )


def test_summarize_constant_series():
    s = summarize([record(1.0, t) for t in range(3)])
    assert len(s) == 1
    assert s[0].mean == 1.0
    assert s[0].std == 0.0
    assert s[0].min == 1.0


def test_summarize_two_samples():
    s = summarize([record(1.0, 0), record(3.0, 1)])
    assert s[0].mean == 2.0
    assert math.isclose(s[0].std, math.sqrt(2), rel_tol=1e-15)


def test_summarize_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    values = [float(v) for v in rng.uniform(0.5, 2.0, size=10)]
    s = summarize([record(v, t) for t, v in enumerate(values)])[0]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert math.isclose(s.mean, mean, rel_tol=1e-12)
    assert math.isclose(s.std, math.sqrt(var), rel_tol=1e-12)


def test_summarize_empty_raises():
    with pytest.raises(EmptyCell):
        summarize([])


def test_summarize_warmup_exclusion():
    recs = [record(100.0, 0), record(1.0, 1), record(1.0, 2)]
    full = summarize(recs)[0]
    trimmed = summarize(recs, drop_first_trial=True)[0]
    assert full.count == 3 and trimmed.count == 2
    assert trimmed.mean == 1.0


def small_config(**kw):
    defaults = dict(
        collective="all_gather",
        algorithm="ring",
        sizes=(4096,),
        grid=((1, 4),),
        trials=10,
        verify=True,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_run_sweep_inprocess_emits_ten_verified_records():
    records = run_sweep(small_config(), "inprocess")
    assert len(records) == 10
    assert all(r.verified for r in records)
    assert all(r.seconds > 0 for r in records)
    assert [r.trial for r in records] == list(range(10))


def test_run_sweep_rejects_indivisible_size():
    with pytest.raises(NotDivisible):
        run_sweep(
            small_config(collective="reduce_scatter", sizes=(1000,), grid=((1, 3),)),
            "inprocess",
        )


def test_run_sweep_sim_single_deterministic_record():
    config = small_config(sizes=(1 << 20,), grid=((4, 2),), verify=False)
    a = run_sweep(config, "sim")
    b = run_sweep(config, "sim")
    assert len(a) == len(b) == 1
    assert a[0].seconds == b[0].seconds
    assert a[0].trial == 0 and not a[0].verified


@pytest.mark.parametrize(
    "algorithm,inter,grid",
    [
        ("recursive", "ring", ((2, 2), (3, 2))),
        ("hierarchical", "recursive", ((2, 2), (3, 2))),
        ("hierarchical", "recursive", ((2, 3), (3, 2))),
    ],
)
def test_run_sweep_refuses_non_power_of_two_before_any_cell(monkeypatch, algorithm, inter, grid):
    calls = []
    seconds = simnet.seconds

    def counted(*args, **kw):
        calls.append(args)
        return seconds(*args, **kw)

    monkeypatch.setattr(simnet, "seconds", counted)
    config = small_config(algorithm=algorithm, inter=inter, grid=grid, sizes=(6 << 12,), verify=False)
    with pytest.raises(NonPowerOfTwo):
        run_sweep(config, "sim")
    assert calls == []


def test_run_sweep_refuses_an_indivisible_nic_count_before_any_cell(monkeypatch):
    from collkit.bench import sweep

    def unreachable(*args, **kw):
        raise AssertionError("run_ranks reached before the grid was checked")

    monkeypatch.setattr(sweep, "run_ranks", unreachable)
    config = SweepConfig(grid=((1, 2), (1, 3)), nics_per_node=2, sizes=(96,), trials=3)
    with pytest.raises(InvalidTopology):
        config.validate()
    with pytest.raises(InvalidTopology):
        run_sweep(config, "inprocess")


@pytest.mark.parametrize(
    "algorithm,inter,grid",
    [
        ("ring", "recursive", ((3, 2),)),
        ("hierarchical", "ring", ((3, 2),)),
        ("hierarchical", "auto", ((3, 2),)),
        ("hierarchical", "recursive", ((2, 3),)),
    ],
)
def test_sweep_runs_non_power_of_two_shapes_without_a_recursive_phase(algorithm, inter, grid):
    config = small_config(algorithm=algorithm, inter=inter, grid=grid, sizes=(6 << 12,), verify=False)
    assert len(run_sweep(config, "sim")) == 1


def test_sweep_config_refuses_unknown_inter():
    with pytest.raises(Unsupported):
        small_config(inter="tree").validate()


def test_run_sweep_sim_rejects_verify():
    with pytest.raises(Unsupported):
        run_sweep(small_config(verify=True), "sim")


def test_run_sweep_unknown_backend():
    with pytest.raises(Unsupported):
        run_sweep(small_config(), "mpi")


def test_run_sweep_warmup_adds_leading_trial():
    records = run_sweep(small_config(trials=3, warmup=True), "inprocess")
    assert len(records) == 4
    summaries = summarize(records, drop_first_trial=True)
    assert summaries[0].count == 3


def test_run_sweep_hierarchical_and_reduce_scatter():
    config = small_config(
        collective="reduce_scatter",
        algorithm="hierarchical",
        inter="recursive",
        sizes=(2048,),
        grid=((2, 2),),
        trials=2,
    )
    records = run_sweep(config, "inprocess")
    assert len(records) == 2 and all(r.verified for r in records)


def test_make_inputs_deterministic_and_integer_valued():
    config = small_config()
    a = make_inputs(config, "cell", 4, 4096, "all_gather")
    b = make_inputs(config, "cell", 4, 4096, "all_gather")
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(np.array_equal(x, np.round(x)) for x in a)
    assert all(np.abs(x).max() <= 1024 for x in a)
    assert a[0].size == 4096 // (4 * 4)
    rs = make_inputs(config, "cell", 4, 4096, "reduce_scatter")
    assert rs[0].size == 4096 // 4


def test_heatmap_identity_and_uniform_speedup():
    a = [record(1.0, t, p=p, m=m) for t in range(3) for p in (2, 4) for m in (64, 128)]
    same = emit_heatmap_data(a, a)
    assert all(speedup == 1.0 for _, _, speedup in same)
    b = [
        RunRecord(**{**r.__dict__, "seconds": r.seconds * 2.0, "algorithm": "base"})
        for r in a
    ]
    doubled = emit_heatmap_data(a, b)
    assert all(speedup == 2.0 for _, _, speedup in doubled)
    assert [(p, m) for p, m, _ in doubled] == [(2, 64), (2, 128), (4, 64), (4, 128)]


def test_heatmap_grid_mismatch():
    a = [record(1.0, p=2, m=64)]
    b = [record(1.0, p=4, m=64)]
    with pytest.raises(GridMismatch):
        emit_heatmap_data(a, b)


def test_heatmap_refuses_a_zero_second_treatment_cell():
    a = [record(0.0, p=2, m=64), record(1.0, p=4, m=64)]
    with pytest.raises(Unsupported, match=r"\(p, m_bytes\) \[\(2, 64\)\]"):
        emit_heatmap_data(a, a)


def test_simulated_speedup_grows_with_rank_count():
    # Flat ring vs hierarchical-recursive at a fixed small size: the
    # hierarchical advantage must grow monotonically along the p axis.
    sizes = (4 << 20,)
    grid = ((2, 8), (4, 8), (8, 8), (16, 8))
    flat = run_sweep(
        small_config(sizes=sizes, grid=grid, verify=False, trials=1), "sim"
    )
    hier = run_sweep(
        small_config(
            sizes=sizes, grid=grid, verify=False, trials=1,
            algorithm="hierarchical", inter="recursive",
        ),
        "sim",
    )
    rows = emit_heatmap_data(hier, flat)
    speedups = [s for _, _, s in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 1.0


def test_calibrate_single_cell_winner():
    params = CostParams(alpha_inter=40e-6, beta_inter=0.004e-9)
    table = calibrate_selector([64], [1 << 20], params)
    assert len(table.entries) == 1
    assert table.entries[0].winner == "recursive"


@pytest.mark.parametrize(
    "nodes,sizes,error",
    [
        ((2, 3), (16 << 20,), NotDivisible),
        ((4, 0), (16 << 20,), InvalidTopology),
        ((2,), (16 << 20, -4), LengthMismatch),
    ],
)
def test_calibrate_checks_its_grid_before_pricing(monkeypatch, nodes, sizes, error):
    calls = []
    seconds = simnet.seconds

    def counted(*args, **kw):
        calls.append(args)
        return seconds(*args, **kw)

    monkeypatch.setattr(simnet, "seconds", counted)
    with pytest.raises(error):
        calibrate_selector(nodes, sizes)
    assert calls == []


def test_calibrate_empty_grid_yields_unusable_table():
    table = calibrate_selector([], [], CostParams())
    assert table.entries == []


def test_calibrate_full_grid_has_both_winners_and_monotone_boundary():
    params = CostParams(alpha_inter=40e-6, beta_inter=0.004e-9)
    nodes = [4, 8, 16, 32, 64, 128]
    sizes = [2**i << 20 for i in range(4, 11)]
    table = calibrate_selector(nodes, sizes, params)
    winners = {(e.n_nodes, e.m_bytes): e.winner for e in table.entries}
    assert set(winners.values()) == {"ring", "recursive"}
    assert winners[(4, 1 << 30)] == "ring"
    assert winners[(128, 16 << 20)] == "recursive"
    # Within one node count, once ring wins for some size it keeps winning
    # for every larger size.
    for n in nodes:
        flags = [winners[(n, m)] == "ring" for m in sizes]
        assert flags == sorted(flags)


def test_records_csv_round_trip(tmp_path):
    records = run_sweep(
        small_config(trials=2, sizes=(2048,), grid=((2, 2),)), "inprocess"
    )
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records
    header = path.read_text().splitlines()[0]
    assert header == "backend,collective,algorithm,inter,p,N,M,m_bytes,trial,seconds,verified"


def test_sim_records_csv_stable_across_reruns(tmp_path):
    config = small_config(sizes=(1 << 20,), grid=((2, 4), (4, 4)), verify=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(run_sweep(config, "sim"), p1)
    write_records_csv(run_sweep(config, "sim"), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_oracles_match_direct_computation():
    rng = np.random.default_rng(2)
    inputs = [rng.integers(-9, 9, size=8).astype(np.float32) for _ in range(4)]
    assert np.array_equal(oracles.expected_all_gather(inputs), np.concatenate(inputs))
    chunks = oracles.expected_reduce_scatter(inputs)
    total = sum(inputs)
    for r, chunk in enumerate(chunks):
        assert np.array_equal(chunk, total[r * 2 : (r + 1) * 2])


@pytest.mark.parametrize("collective", ["all_gather", "reduce_scatter"])
def test_run_sweep_verify_catches_a_wrong_output(monkeypatch, collective):
    from collkit.bench import sweep

    collective_fn = sweep._collective_fn

    def wrong_on_rank_one(config, topo, inputs):
        fn = collective_fn(config, topo, inputs)
        return lambda comm: fn(comm) + (comm.rank == 1)

    monkeypatch.setattr(sweep, "_collective_fn", wrong_on_rank_one)
    with pytest.raises(VerificationFailed, match=f"{collective} output wrong at rank 1"):
        run_sweep(small_config(collective=collective), "inprocess")


def test_calibration_table_with_a_zero_byte_entry_answers_lookups():
    table = calibrate_selector((4,), (0, 1 << 30))
    assert [e.m_bytes for e in table.entries] == [0, 1 << 30]
