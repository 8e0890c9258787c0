import argparse
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
    assert rc == 1
    assert capsys.readouterr().err == "error: socket backend needs --hostfile and --rank\n"


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


def test_sim_sweep_writes_exact_records_and_summary(tmp_path):
    out = tmp_path / "out"
    argv = ["sweep", "--backend", "sim", "--algo", "ring", "--sizes", "1M", "--grid", "2x2,4x2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert (out / "sim_all_gather_ring.csv").read_text() == (
        "backend,collective,algorithm,inter,p,N,M,m_bytes,trial,seconds,verified\n"
        "sim,all_gather,ring,ring,4,2,2,1048576,0,6.145728e-05,0\n"
        "sim,all_gather,ring,ring,8,4,2,1048576,0,0.00010670016000000003,0\n"
    )
    assert (out / "sim_all_gather_ring_summary.csv").read_text() == (
        "backend,collective,algorithm,inter,N,M,m_bytes,count,mean,std,min\n"
        "sim,all_gather,ring,ring,2,2,1048576,1,6.145728e-05,0.0,6.145728e-05\n"
        "sim,all_gather,ring,ring,4,2,1048576,1,0.00010670016000000003,0.0,"
        "0.00010670016000000003\n"
    )


def test_heatmap_prints_what_out_writes(tmp_path, capsys):
    out = tmp_path / "out"
    base = ["sweep", "--backend", "sim", "--sizes", "1M,4M", "--grid", "2x2,4x2", "--out", str(out)]
    assert cli.main(base + ["--algo", "ring"]) == 0
    assert cli.main(base + ["--algo", "hierarchical"]) == 0
    records = [
        str(out / "sim_all_gather_hierarchical_ring.csv"), str(out / "sim_all_gather_ring.csv")
    ]
    heat_path = tmp_path / "heat.csv"
    assert cli.main(["heatmap", *records, "--out", str(heat_path)]) == 0
    capsys.readouterr()
    assert cli.main(["heatmap", *records]) == 0
    printed = capsys.readouterr().out
    assert printed == heat_path.read_text()
    assert printed.startswith("p,m_bytes,speedup\n") and printed.count("\n") == 5


def test_heatmap_of_a_zero_second_cell_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--backend", "sim", "--sizes", "16M", "--grid", "1x1,1x2", "--out", str(out)]
    assert cli.main(argv) == 0
    records = str(out / "sim_all_gather_ring.csv")
    heat_path = tmp_path / "heat.csv"
    capsys.readouterr()
    assert cli.main(["heatmap", records, records, "--out", str(heat_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: treatment mean is 0 s at (p, m_bytes) [(1, 16777216)]")
    assert not heat_path.exists()


@pytest.mark.parametrize(
    "flags,config_text",
    [
        (["--nodes", "4"], ""),
        (["--gpus-per-node", "4"], ""),
        ([], "nodes = 4\n"),
        ([], "gpus_per_node = 4\n"),
    ],
)
def test_half_a_single_cell_topology_is_a_clean_error(tmp_path, capsys, flags, config_text):
    config = tmp_path / "bench.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    argv = ["sweep", "--backend", "sim", "--sizes", "16M", "--config", str(config), *flags]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --nodes and --gpus-per-node go together")
    assert not out.exists()


def test_verify_does_not_skip_a_refusal_raised_inside_a_cell(monkeypatch, capsys):
    def refuse(config, backend):
        raise cli.NonPowerOfTwo("raised while the cell ran")

    monkeypatch.setattr(cli.sweepmod, "run_sweep", refuse)
    assert cli.main(["verify"]) == 1
    assert capsys.readouterr().err == "error: raised while the cell ran\n"


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


# --- config file: each key parses exactly like its flag ----------------------

# (dest, flag argv, config-file value, parsed value)
COST_OPTIONS = [
    ("alpha_inter", ["--alpha-inter", "2e-5"], "2e-5", 2e-5),
    ("beta_inter", ["--beta-inter", "3e-11"], "3e-11", 3e-11),
    ("alpha_intra", ["--alpha-intra", "4e-6"], "4e-6", 4e-6),
    ("beta_intra", ["--beta-intra", "5e-12"], "5e-12", 5e-12),
    ("gamma_fast", ["--gamma-fast", "6e-12"], "6e-12", 6e-12),
    ("gamma_slow", ["--gamma-slow", "7e-10"], "7e-10", 7e-10),
    ("packet_bytes", ["--packet-bytes", "4096"], "4096", 4096),
]
OPTIONS = {
    "sweep": [
        ("backend", ["--backend", "sim"], "sim", "sim"),
        ("collective", ["--collective", "rs"], "rs", "rs"),
        ("algo", ["--algo", "hierarchical"], "hierarchical", "hierarchical"),
        ("inter", ["--inter", "auto"], "auto", "auto"),
        ("sizes", ["--sizes", "4k,1M"], "4k,1M", (4096, 1 << 20)),
        ("grid", ["--grid", "2x4,1x2"], "2x4,1x2", ((2, 4), (1, 2))),
        ("trials", ["--trials", "3"], "3", 3),
        ("seed", ["--seed", "7"], "7", 7),
        ("verify", ["--verify"], "1", True),
        ("warmup", ["--warmup"], "yes", True),
        ("out", ["--out", "results"], "results", "results"),
        ("nodes", ["--nodes", "2"], "2", 2),
        ("gpus_per_node", ["--gpus-per-node", "4"], "4", 4),
        ("nics_per_node", ["--nics-per-node", "2"], "2", 2),
        ("hostfile", ["--hostfile", "hosts.txt"], "hosts.txt", "hosts.txt"),
        ("rank", ["--rank", "1"], "1", 1),
        ("connect_timeout", ["--connect-timeout", "2.5"], "2.5", 2.5),
        ("nic_policy", ["--policy", "single_nic"], "single_nic", "single_nic"),
        ("phys_topology", ["--phys", "ring_of_nodes"], "ring_of_nodes", "ring_of_nodes"),
        ("reduce_profile", ["--profile", "slow"], "slow", "slow"),
    ]
    + COST_OPTIONS,
    "calibrate": [
        ("nodes", ["--nodes", "4,8"], "4,8", (4, 8)),
        ("sizes", ["--sizes", "16M,1G"], "16M,1G", (16 << 20, 1 << 30)),
        ("phys_topology", ["--phys", "fully_connected"], "fully_connected", "fully_connected"),
        ("collective", ["--collective", "rs"], "rs", "rs"),
        ("out", ["--out", "table.csv"], "table.csv", "table.csv"),
    ]
    + COST_OPTIONS,
}


class _Parsed(Exception):
    pass


def parsed_options(monkeypatch, argv) -> dict:
    """The options a command works from once its config file is applied,
    captured when the command builds its cost parameters."""
    seen = []

    def capture(args):
        seen.append(vars(args).copy())
        raise _Parsed

    monkeypatch.setattr(cli, "build_params", capture)
    with pytest.raises(_Parsed):
        cli.main(argv)
    return seen[0]


def option_dests(command: str) -> set:
    subparsers = next(
        a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        a.dest
        for a in subparsers.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_config_key_table_covers_every_option(command):
    assert {dest for dest, *_ in OPTIONS[command]} == option_dests(command)


@pytest.mark.parametrize(
    "command,dest,flag,value,want",
    [(command, *row) for command, rows in OPTIONS.items() for row in rows],
    ids=[f"{command}-{row[0]}" for command, rows in OPTIONS.items() for row in rows],
)
def test_config_key_parses_like_its_flag(tmp_path, monkeypatch, command, dest, flag, value, want):
    config = tmp_path / "bench.cfg"
    config.write_text(f"{dest} = {value}\n")
    from_file = parsed_options(monkeypatch, [command, "--config", str(config)])
    from_flag = parsed_options(monkeypatch, [command] + flag)
    assert from_file[dest] == from_flag[dest] == want
    assert type(from_file[dest]) is type(want)


@pytest.mark.parametrize("word", ["1", "true", "yes", "TRUE"])
def test_config_store_true_words(tmp_path, monkeypatch, word):
    config = tmp_path / "bench.cfg"
    config.write_text(f"verify = {word}\nwarmup = {word}\n")
    options = parsed_options(monkeypatch, ["sweep", "--config", str(config)])
    assert options["verify"] is True and options["warmup"] is True


def test_config_flag_overrides_file_and_unknown_key_is_ignored(tmp_path, monkeypatch):
    config = tmp_path / "bench.cfg"
    config.write_text("sizes = 1M\ntrials = 3\ncolour = blue\nhelp = 1\n")
    options = parsed_options(monkeypatch, ["sweep", "--config", str(config), "--sizes", "2M"])
    assert options["sizes"] == (2 << 20,)
    assert options["trials"] == 3
    assert "colour" not in options
    plain = parsed_options(monkeypatch, ["sweep", "--sizes", "2M", "--trials", "3"])
    assert {k: options[k] for k in option_dests("sweep")} == {
        k: plain[k] for k in option_dests("sweep")
    }


@pytest.mark.parametrize(
    "line", ["collective = allgather", "nic_policy = bogus"]
)
def test_config_value_refused_by_its_flag_is_a_clean_error(tmp_path, capsys, line):
    config = tmp_path / "bench.cfg"
    config.write_text(f"backend = inprocess\nsizes = 4096\ngrid = 1x2\ntrials = 1\n{line}\n")
    rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    key, _, raw = line.partition(" = ")
    assert capsys.readouterr().err.startswith(f"error: {config}: {key} = {raw!r}: ")


@pytest.mark.parametrize(
    "command,line",
    [
        ("sweep", "verify = maybe"),
        ("sweep", "backend = mpi"),
        ("sweep", "sizes = 1Q"),
        ("sweep", "sizes = infk"),
        ("sweep", "grid = 2by4"),
        ("sweep", "connect_timeout = soon"),
        ("calibrate", "nodes = 4;8"),
        ("calibrate", "alpha_inter = fast"),
    ],
)
def test_config_bad_values_are_clean_errors(tmp_path, capsys, command, line):
    # A small, fast run underneath, should the bad value be let through.
    small = {"sweep": "backend = sim\nsizes = 4096\ngrid = 1x2\n", "calibrate": "nodes = 4\nsizes = 4096\n"}
    config = tmp_path / "bench.cfg"
    config.write_text(f"{small[command]}{line}\n")
    rc = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    key, _, raw = line.partition(" = ")
    assert capsys.readouterr().err.startswith(f"error: {config}: {key} = {raw!r}: ")


def test_unset_options_take_library_defaults(monkeypatch):
    seen = []

    def capture(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Parsed

    monkeypatch.setattr(cli.sweepmod, "run_sweep", capture)
    monkeypatch.setattr(cli.sweepmod, "calibrate_selector", capture)
    with pytest.raises(_Parsed):
        cli.main(["sweep"])
    with pytest.raises(_Parsed):
        cli.main(["calibrate"])
    (sweep_args, _), (calibrate_args, calibrate_kwargs) = seen
    assert sweep_args == (SweepConfig(), "inprocess")
    assert calibrate_args == () and calibrate_kwargs == {"params": cli.CostParams()}


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--backend", "inprocess", "--sizes=-4096", "--grid", "1x2"], "negative byte count -4096"),
        (["--backend", "sim", "--sizes", "4096", "--grid", "1x2", "--nics-per-node", "0"],
         "all counts must be >= 1"),
    ],
)
def test_out_of_range_sweep_shapes_are_clean_errors(tmp_path, capsys, flags, message):
    rc = cli.main(["sweep", *flags, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_verify_command_reports_a_wrong_output(monkeypatch, capsys):
    collective_fn = cli.sweepmod._collective_fn

    def off_by_one(config, topo, inputs):
        fn = collective_fn(config, topo, inputs)
        return lambda comm: fn(comm) + 1

    monkeypatch.setattr(cli.sweepmod, "_collective_fn", off_by_one)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 32 and all(line.startswith("FAIL  ") for line in lines)
