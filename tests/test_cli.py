import threading

import pytest

from collkit.bench import cli
from collkit.bench.sweep import SweepConfig, read_records_csv, run_sweep
from collkit.transport.sockets import connect_local_mesh


def test_parse_size_suffixes():
    assert cli.parse_size("16M") == 16 << 20
    assert cli.parse_size("64k") == 64 << 10
    assert cli.parse_size("1G") == 1 << 30
    assert cli.parse_size("4096") == 4096
    assert cli.parse_sizes("16M,64M") == (16 << 20, 64 << 20)


def test_parse_grid():
    assert cli.parse_grid("2x4,4x8") == ((2, 4), (4, 8))
    assert cli.parse_grid("1X2") == ((1, 2),)


def test_sweep_sim_writes_records_and_summary(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "sweep",
            "--backend", "sim",
            "--collective", "ag",
            "--algo", "hierarchical",
            "--inter", "recursive",
            "--sizes", "1M,4M",
            "--grid", "2x4,4x4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    records_path = out / "sim_all_gather_hierarchical_recursive.csv"
    assert records_path.exists()
    records = read_records_csv(records_path)
    assert len(records) == 4
    summary = (out / "sim_all_gather_hierarchical_recursive_summary.csv").read_text()
    assert summary.splitlines()[0].startswith("backend,collective,algorithm")


def test_sweep_inprocess_with_verify(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "sweep",
            "--backend", "inprocess",
            "--collective", "rs",
            "--algo", "ring",
            "--sizes", "4096",
            "--grid", "1x4",
            "--trials", "3",
            "--verify",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc == 0
    records = read_records_csv(out / "inprocess_reduce_scatter_ring.csv")
    assert len(records) == 3
    assert all(r.verified for r in records)


def test_config_file_seeds_options_and_flags_override(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "backend = sim\n"
        "collective = ag\n"
        "algo = ring\n"
        "sizes = 1M\n"
        "grid = 2x2\n"
        "nics_per_node = 1\n"
        "# comment line\n"
        "alpha_inter = 0.001\n"
    )
    out = tmp_path / "a"
    rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    assert rc == 0
    records = read_records_csv(out / "sim_all_gather_ring.csv")
    assert records[0].m_bytes == 1 << 20
    # alpha_inter=1ms dominates: 3 steps * ~1ms
    assert records[0].seconds > 2e-3

    out2 = tmp_path / "b"
    rc = cli.main(
        ["sweep", "--config", str(config), "--sizes", "2M", "--out", str(out2)]
    )
    assert rc == 0
    assert read_records_csv(out2 / "sim_all_gather_ring.csv")[0].m_bytes == 2 << 20


def test_sweep_socket_requires_rank_and_hostfile(capsys, monkeypatch):
    monkeypatch.delenv("COLLKIT_HOSTFILE", raising=False)
    monkeypatch.delenv("COLLKIT_RANK", raising=False)
    rc = cli.main(["sweep", "--backend", "socket", "--sizes", "4096", "--grid", "1x2"])
    assert rc == 2
    assert "hostfile" in capsys.readouterr().err


def test_config_file_enum_typo_is_a_clean_error(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text("backend = sim\nsizes = 1M\ngrid = 2x2\nnic_policy = bogus\n")
    rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "nic_policy" in capsys.readouterr().err


def test_config_file_line_without_equals_is_a_clean_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("backend = sim\nsizes 1M\n")
    rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {config}:2: expected key=value")


def test_config_file_unconvertible_value_is_a_clean_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("backend = sim\ntrials = ten\n")
    rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: trials = 'ten'")


def test_malformed_host_file_is_a_clean_error(tmp_path, capsys):
    hosts = tmp_path / "hosts"
    hosts.write_text("0 127.0.0.1 port\n")
    rc = cli.main(
        ["sweep", "--backend", "socket", "--hostfile", str(hosts), "--rank", "0",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {hosts}:1: expected 'rank host port'")


@pytest.mark.parametrize(
    "name,value", [("COLLKIT_RANK", "zero"), ("COLLKIT_CONNECT_TIMEOUT", "soon")]
)
def test_unparsable_socket_environment_is_a_clean_error(tmp_path, capsys, monkeypatch, name, value):
    hosts = tmp_path / "hosts"
    hosts.write_text("0 127.0.0.1 1\n")
    monkeypatch.setenv("COLLKIT_RANK", "0")
    monkeypatch.setenv(name, value)
    rc = cli.main(
        ["sweep", "--backend", "socket", "--hostfile", str(hosts), "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {name}={value!r}")


def test_zero_trials_is_a_clean_error(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "--backend", "sim", "--sizes", "1M", "--grid", "2x2", "--trials", "0",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: trials must be >= 1")


def test_config_topology_keys_form_single_cell_grid(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "backend = sim\nnodes = 2\ngpus_per_node = 4\nnics_per_node = 2\nsizes = 1M\n"
    )
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    assert rc == 0
    records = read_records_csv(out / "sim_all_gather_ring.csv")
    assert len(records) == 1
    assert (records[0].n_nodes, records[0].m_gpus, records[0].p) == (2, 4, 8)


def test_verify_command_passes():
    assert cli.main(["verify"]) == 0


def test_calibrate_and_heatmap_commands(tmp_path):
    table_path = tmp_path / "table.csv"
    rc = cli.main(
        [
            "calibrate",
            "--nodes", "4,8",
            "--sizes", "16M,1G",
            "--out", str(table_path),
            "--alpha-inter", "4e-5",
            "--beta-inter", "4e-12",
        ]
    )
    assert rc == 0
    lines = table_path.read_text().splitlines()
    assert lines[0] == "N,m_bytes,ring_seconds,recursive_seconds,winner"
    assert len(lines) == 5

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = [
        "sweep", "--backend", "sim", "--collective", "ag",
        "--sizes", "1M", "--grid", "2x2,4x2",
    ]
    assert cli.main(base + ["--algo", "hierarchical", "--inter", "recursive", "--out", str(out_a)]) == 0
    assert cli.main(base + ["--algo", "ring", "--out", str(out_b)]) == 0
    heat_path = tmp_path / "heat.csv"
    rc = cli.main(
        [
            "heatmap",
            str(out_a / "sim_all_gather_hierarchical_recursive.csv"),
            str(out_b / "sim_all_gather_ring.csv"),
            "--out", str(heat_path),
        ]
    )
    assert rc == 0
    lines = heat_path.read_text().splitlines()
    assert lines[0] == "p,m_bytes,speedup"
    assert len(lines) == 3


def test_error_reporting_exit_code(tmp_path):
    rc = cli.main(
        [
            "sweep",
            "--backend", "sim",
            "--collective", "rs",
            "--sizes", "1000",  # not divisible into whole elements
            "--grid", "1x3",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 1


def test_negative_cost_parameter_is_a_clean_error(tmp_path, capsys):
    rc = cli.main(
        ["calibrate", "--alpha-inter", "-1", "--nodes", "4", "--sizes", "4096",
         "--out", str(tmp_path / "calibration.csv")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: alpha_inter must be >= 0")
    assert not (tmp_path / "calibration.csv").exists()


def test_run_sweep_socket_backend_library_path():
    endpoints = connect_local_mesh(4, connect_timeout=10.0)
    config = SweepConfig(
        collective="all_gather",
        algorithm="ring",
        sizes=(4096,),
        grid=((1, 4),),
        trials=2,
        verify=True,
    )
    results = [None] * 4
    errors = []

    def worker(rank):
        try:
            results[rank] = run_sweep(config, "socket", endpoint=endpoints[rank])
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    for ep in endpoints:
        ep.close()
    assert not errors
    rank0 = results[0]
    assert len(rank0) == 2
    assert all(r.verified and r.backend == "socket" for r in rank0)
