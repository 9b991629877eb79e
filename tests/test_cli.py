import argparse
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmimo.allocation import PolicySpec, build_allocation
from netmimo.channel import PURPOSE_CHANNEL, draw_channel, pathloss_matrix, trial_rng
from netmimo.cli import (
    ExperimentConfig,
    compute_size_table,
    fig1_desk_config,
    fig1_full_config,
    fig2_desk_config,
    fig2_full_config,
    main,
    parse_policy,
    resolve_layout,
    run_experiment,
)
from netmimo.evaluation import db_to_linear, evaluate_curves
from netmimo.topology import format_layout, interference_levels, pairwise_distance, parse_layout, place_grid


def _tiny_config(output, **overrides):
    cfg = ExperimentConfig(
        seed=77,
        layout_kind="grid",
        grid_side=2,
        gamma=0.6,
        snr_db=[30.0, 50.0],
        trials=25,
        policies=[PolicySpec("perfect"), PolicySpec("distance")],
        output=str(output),
    )
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def test_config_json_round_trip():
    cfg = _tiny_config("out", policies=[PolicySpec("distance", alpha=1.25), PolicySpec("cluster", cluster_size=4)])
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert isinstance(back.policies[0], PolicySpec)


def test_config_validation():
    cfg = _tiny_config("out")
    cfg.validate()
    bad = _tiny_config("out", gamma=1.5)
    with pytest.raises(ValueError):
        bad.validate()
    with pytest.raises(ValueError):
        _tiny_config("out", snr_db=[0.0, 30.0]).validate()
    with pytest.raises(ValueError):
        _tiny_config("out", layout_kind="positions").validate()
    with pytest.raises(ValueError):
        _tiny_config("out", policies=[]).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("cond_threshold", 0.0),
        ("max_rejection_rate", -0.1),
        ("max_rejection_rate", 1.0),
        ("snr_db", [30.0, float("nan")]),
        ("snr_db", [float("inf")]),
        ("snr_db", [-float("inf")]),
        ("snr_db", [4000.0]),  # 10^400 overflows
        ("snr_db", [1e-20]),  # P rounds to exactly 1
        ("cond_threshold", 0.5),  # no matrix has kappa_2 < 1
        ("cond_threshold", float("nan")),
    ],
)
def test_config_validation_bounds(field, value):
    with pytest.raises(ValueError, match=field):
        _tiny_config("out", **{field: value}).validate()


def test_main_negative_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--grid-side", "2", "--seed", "-1", "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run", "--grid-side", "2"], ["fig1-desk"]])
def test_main_workers_must_be_positive(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as info:
        main(command + ["--workers", "-3", "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "workers must be an integer >= 1, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--seed", "-1"], "error: seed must be an integer >= 0, got -1"),
        (["verify", "--trials", "0"], "error: trials must be an integer >= 1, got 0"),
        (["layout", "--random-k", "4", "--seed", "-1"], "error: seed must be an integer >= 0, got -1"),
        (["layout", "--random-k", "0"], "error: random_k must be an integer >= 1, got 0"),
        (["layout", "--grid-side", "0"], "error: grid_side must be an integer >= 1, got 0"),
    ],
    ids=["verify-seed", "verify-trials", "layout-seed", "layout-random-k", "layout-grid-side"],
)
def test_main_bad_verify_and_layout_flags_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--output" if argv[0] == "verify" else "--out", str(out)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_parse_policy_tokens():
    assert parse_policy("perfect") == PolicySpec("perfect")
    assert parse_policy("distance:0.75") == PolicySpec("distance", alpha=0.75)
    assert parse_policy("cluster:9") == PolicySpec("cluster", cluster_size=9)
    assert parse_policy("uniform:conventional") == PolicySpec("uniform", uniform_support="conventional")
    with pytest.raises(argparse.ArgumentTypeError, match="'perfect:3': policy 'perfect' takes no argument"):
        parse_policy("perfect:3")
    with pytest.raises(argparse.ArgumentTypeError, match="'nearest': unknown policy kind 'nearest'"):
        parse_policy("nearest")


def test_run_experiment_outputs(tmp_path):
    cfg = _tiny_config(tmp_path / "out")
    run_experiment(cfg)
    csv_lines = (tmp_path / "out" / "rates.csv").read_text().splitlines()
    assert csv_lines[0] == "policy,alpha,snr_db,user,mean_rate_bits,stderr,trials,rejections"
    # 2 policies x 2 SNR points x (4 users + avg)
    assert len(csv_lines) == 1 + 2 * 2 * 5
    perfect_rows = [l for l in csv_lines[1:] if l.startswith("perfect,")]
    users = [row.split(",")[3] for row in perfect_rows]
    assert users == ["1", "2", "3", "4", "avg"] * 2
    for row in csv_lines[1:]:
        fields = row.split(",")
        assert len(fields) == 8
        float(fields[4])  # mean parses
        assert int(fields[6]) == 25
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["config"]["seed"] == 77
    assert meta["cooperation_radius"] == pytest.approx(2.5)
    # sweep shorter than fit_points still records a slope, fit over what exists
    assert set(meta["dof"]) == {"perfect", "distance(alpha=1)"}
    for entry in meta["dof"].values():
        assert np.isfinite(entry["slope"])
        assert len(entry["fit_snr_db"]) == 2
    layout = parse_layout((tmp_path / "out" / "layout.txt").read_text())
    np.testing.assert_array_equal(layout.positions, place_grid(2).positions)


def test_outputs_keep_the_requested_snr_db(tmp_path):
    """Each SNR point reports the dB value it was given, not the value
    10 log10(10^(dB/10)) rebuilds from its linear SNR."""
    snr_db = [1e-6, 0.001, 0.1, 0.5]
    out = tmp_path / "out"
    argv = ["run", "--grid-side", "2", "--trials", "3", "--policies", "perfect", "distance", "--output", str(out)]
    assert main(argv + ["--snr-db", *map(str, snr_db)]) == 0
    rows = [line.split(",") for line in (out / "rates.csv").read_text().splitlines()[1:]]
    for kind in ("perfect", "distance"):
        assert sorted({float(r[2]) for r in rows if r[0] == kind}) == snr_db
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["snr_db"] == snr_db
    assert [entry["fit_snr_db"] for entry in meta["dof"].values()] == [snr_db, snr_db]


def test_rerun_byte_identical(tmp_path):
    a = _tiny_config(tmp_path / "a")
    b = _tiny_config(tmp_path / "b")
    run_experiment(a)
    run_experiment(b, workers=3)
    assert (tmp_path / "a" / "rates.csv").read_bytes() == (tmp_path / "b" / "rates.csv").read_bytes()


def test_main_run_and_from_metadata(tmp_path):
    out1 = tmp_path / "r1"
    rc = main(
        [
            "run", "--grid-side", "2", "--gamma", "0.6", "--policies", "perfect", "distance",
            "--snr-db", "30", "50", "--trials", "20", "--seed", "3", "--output", str(out1),
        ]
    )
    assert rc == 0
    out2 = tmp_path / "r2"
    rc = main(["run", "--from-metadata", str(out1 / "metadata.json"), "--output", str(out2)])
    assert rc == 0
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()


def test_main_save_config(tmp_path):
    path = tmp_path / "cfg.json"
    rc = main(
        [
            "run", "--grid-side", "2", "--policies", "uniform", "--trials", "5",
            "--save-config", str(path),
        ]
    )
    assert rc == 0
    cfg = ExperimentConfig.from_json(path.read_text())
    cfg.validate()
    assert cfg.policies == [PolicySpec("uniform")]
    assert not (tmp_path / "netmimo-out").exists()


def test_cond_threshold_below_one_is_a_usage_error(tmp_path, capsys):
    """No matrix has kappa_2 < 1, so such a config fails before any trial runs."""
    path = tmp_path / "c.json"
    cfg = {"grid_side": 3, "snr_db": [20.0, 40.0], "trials": 20, "cond_threshold": 0.5, "max_rejection_rate": 0.99}
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: cond_threshold must be >= 1 (every matrix has kappa_2 >= 1), got 0.5" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_rejection_exit_code(tmp_path):
    cfg = _tiny_config(tmp_path / "out", cond_threshold=1.0, trials=10)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 2
    assert not (tmp_path / "out" / "rates.csv").exists()


def test_size_table_contents():
    layout = place_grid(2)
    rows = compute_size_table(
        layout, 0.6,
        [PolicySpec("perfect"), PolicySpec("distance", alpha=0.75), PolicySpec("distance", alpha=1.25)],
        [50.0],
    )
    policies = [r["policy"] for r in rows]
    assert policies[0] == "conventional"
    assert "perfect" not in policies
    conv = rows[0]
    assert conv["ratio_to_conventional"] == pytest.approx(1.0)
    by_alpha = {r["alpha"]: r["total_bits"] for r in rows if r["policy"] == "distance"}
    assert by_alpha[0.75] > by_alpha[1.25]


def test_size_table_single_node_ratio_one():
    cfg = ExperimentConfig(
        layout_kind="grid", grid_side=1, gamma=0.6, snr_db=[40.0],
        policies=[PolicySpec("distance")], trials=1,
    )
    rows = compute_size_table(resolve_layout(cfg), cfg.gamma, cfg.policies, cfg.snr_db)
    dist_row = [r for r in rows if r["policy"] == "distance"][0]
    assert dist_row["ratio_to_conventional"] == pytest.approx(1.0)
    assert dist_row["prelog_asymptotic"] == pytest.approx(1.0)
    # finite-P prelog carries the ceiling: ceil(log2 1e4) / log2 1e4
    assert dist_row["prelog"] == pytest.approx(14.0 / math.log2(1e4))


def test_main_sizes_and_export(tmp_path, capsys):
    table = tmp_path / "sizes.csv"
    rc = main(
        [
            "sizes", "--grid-side", "2", "--gamma", "0.6",
            "--policies", "distance", "uniform", "--snr-db", "40", "60",
            "--output", str(table), "--export-bits", str(tmp_path / "bits"),
        ]
    )
    assert rc == 0
    lines = table.read_text().splitlines()
    assert lines[0].startswith("policy,alpha,snr_db,total_bits")
    assert len(lines) == 1 + 2 * 3  # conventional + 2 policies, 2 SNR points
    dumps = list((tmp_path / "bits").glob("*.csv"))
    assert len(dumps) == 4
    body = dumps[0].read_text().splitlines()
    assert body[0] == "j,k,i,bits"
    assert len(body) == 1 + 4**3  # grid side 2 means four nodes


def test_main_layout_emit_and_show(tmp_path, capsys):
    path = tmp_path / "nodes.txt"
    assert main(["layout", "--random-k", "5", "--random-side", "3", "--seed", "4", "--out", str(path)]) == 0
    layout = parse_layout(path.read_text())
    assert layout.K == 5
    assert np.all(layout.positions >= 0.0) and np.all(layout.positions <= 3.0)
    assert main(["layout", "--show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 5" in out
    assert main(["layout", "--grid-side", "2"]) == 2  # missing --out


@pytest.mark.parametrize("gamma", ["2", "nan", "-1", "0"])
def test_layout_show_refuses_a_bad_gamma(tmp_path, capsys, gamma):
    """--show checks gamma by its rule before it prints anything, instead of
    dropping the cooperation-radius line."""
    path = tmp_path / "l.txt"
    path.write_text(format_layout(place_grid(2)))
    assert _exit_code(["layout", "--show", str(path), "--gamma", gamma]) == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "gamma must lie in (0, 1]" in errors[0]
    assert out == "" and "Traceback" not in err


def test_layout_show_prints_the_radius_below_gamma_1(tmp_path, capsys):
    path = tmp_path / "l.txt"
    path.write_text(format_layout(place_grid(2)))
    assert main(["layout", "--show", str(path), "--gamma", "1"]) == 0
    assert "cooperation radius" not in capsys.readouterr().out
    assert main(["layout", "--show", str(path), "--gamma", "0.6"]) == 0
    assert "cooperation radius at gamma 0.6: 2.5; sharing set sizes min 4 max 4" in capsys.readouterr().out


def test_main_verify_exit_zero(tmp_path, capsys):
    table = tmp_path / "verify.csv"
    rc = main(["verify", "--trials", "150", "--output", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    lines = table.read_text().splitlines()
    assert lines[0] == "check,measured,bound,passed"
    assert len(lines) == 8


def test_dump_channel_flag(tmp_path):
    out = tmp_path / "out"
    dump = tmp_path / "chan.csv"
    cfg = _tiny_config(out, trials=5)
    run_experiment(cfg, dump_channel=str(dump))
    lines = dump.read_text().splitlines()
    assert lines[0] == "rx,tx,re,im"
    assert len(lines) == 1 + 16
    # The trial-0 channel of the first SNR point, as draw_channel draws it from trial_rng.
    layout = resolve_layout(cfg)
    sigma = pathloss_matrix(interference_levels(pairwise_distance(layout), cfg.gamma), db_to_linear(cfg.snr_db[0]))
    h = draw_channel(sigma, trial_rng(cfg.seed, 0, PURPOSE_CHANNEL)).H
    assert lines[1:] == [f"{k + 1},{i + 1},{x.real:.17g},{x.imag:.17g}" for (k, i), x in np.ndenumerate(h)]


def test_presets_are_valid():
    for factory, kind, k_or_side in (
        (fig1_desk_config, "grid", 4),
        (fig1_full_config, "grid", 6),
        (fig2_desk_config, "random", 8),
        (fig2_full_config, "random", 15),
    ):
        cfg = factory()
        cfg.validate()
        if kind == "grid":
            assert cfg.layout_kind == "grid" and cfg.grid_side == k_or_side
        else:
            assert cfg.layout_kind == "random" and cfg.random_k == k_or_side
        assert resolve_layout(cfg).K in (k_or_side**2, k_or_side)
    kinds = [s.kind for s in fig1_desk_config().policies]
    assert kinds == ["perfect", "distance", "uniform", "cluster"]
    alphas = [s.alpha for s in fig2_desk_config().policies if s.kind == "distance"]
    assert alphas == [0.75, 1.0, 1.25]


def test_preset_subcommand_runs(tmp_path):
    out = tmp_path / "f1"
    rc = main(["fig1-desk", "--trials", "8", "--output", str(out), "--workers", "2"])
    assert rc == 0
    lines = (out / "rates.csv").read_text().splitlines()
    # 4 policies x 8 SNR points x (16 users + avg)
    assert len(lines) == 1 + 4 * 8 * 17
    meta = json.loads((out / "metadata.json").read_text())
    assert len(meta["sizes"]) > 0
    assert "dof" in meta


def test_flags_override_a_config_file(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(_tiny_config(tmp_path / "out").to_json())
    saved = tmp_path / "saved.json"
    rc = main(
        [
            "run", "--config", str(base), "--grid-side", "3", "--policies", "distance", "zero",
            "--trials", "7", "--save-config", str(saved),
        ]
    )
    assert rc == 0
    cfg = ExperimentConfig.from_json(saved.read_text())
    assert (cfg.layout_kind, cfg.grid_side, cfg.trials) == ("grid", 3, 7)
    assert cfg.policies == [PolicySpec("distance"), PolicySpec("zero")]
    assert cfg.seed == 77 and cfg.snr_db == [30.0, 50.0]


def test_random_k_keeps_the_config_random_side(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(_tiny_config("out", layout_kind="random", random_k=6, random_side=6.5).to_json())
    saved = tmp_path / "saved.json"
    assert main(["run", "--config", str(base), "--random-k", "5", "--save-config", str(saved)]) == 0
    cfg = ExperimentConfig.from_json(saved.read_text())
    assert (cfg.layout_kind, cfg.random_k, cfg.random_side) == ("random", 5, 6.5)


@pytest.mark.parametrize("kind", ["grid", "random", "file"])
def test_layout_emits_resolve_layout_of_the_same_config(tmp_path, kind):
    src = tmp_path / "src.txt"
    src.write_text("0.25 1\n3 0.5\n1.125 2\n")
    flags, cfg = {
        "grid": (["--grid-side", "3"], ExperimentConfig(grid_side=3)),
        "random": (
            ["--random-k", "6", "--random-side", "2.5", "--seed", "9"],
            ExperimentConfig(layout_kind="random", random_k=6, random_side=2.5, seed=9),
        ),
        "file": (
            ["--layout-file", str(src)],
            ExperimentConfig(layout_kind="positions", positions=[[0.25, 1.0], [3.0, 0.5], [1.125, 2.0]]),
        ),
    }[kind]
    out = tmp_path / "emitted.txt"
    assert main(["layout", *flags, "--out", str(out)]) == 0
    np.testing.assert_array_equal(parse_layout(out.read_text()).positions, resolve_layout(cfg).positions)


def test_preset_subcommand_equals_run_experiment(tmp_path):
    cli_out = tmp_path / "cli"
    assert main(["fig2-desk", "--seed", "5", "--trials", "2", "--output", str(cli_out)]) == 0
    api_out = tmp_path / "api"
    run_experiment(fig2_desk_config(seed=5, trials=2, output=str(api_out)))
    assert (cli_out / "rates.csv").read_bytes() == (api_out / "rates.csv").read_bytes()


def test_size_table_builds_each_policy_table_once(monkeypatch):
    calls = []

    def counting_build(spec, *args):
        calls.append(spec)
        return build_allocation(spec, *args)

    monkeypatch.setattr("netmimo.cli.build_allocation", counting_build)
    policies = [PolicySpec("perfect"), PolicySpec("conventional"), PolicySpec("distance"), PolicySpec("uniform")]
    snr_db = [30.0, 50.0, 70.0]
    rows = compute_size_table(place_grid(2), 0.6, policies, snr_db)
    assert calls == [PolicySpec("distance"), PolicySpec("uniform")] * len(snr_db)
    assert [r["policy"] for r in rows] == ["conventional", "distance", "uniform"] * len(snr_db)


def test_failed_run_writes_no_file(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--grid-side", "2", "--trials", "5", "--snr-db", "30", "--output", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    missing = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--seed", "2", "--dump-channel", str(missing)]) == 2
    assert f"error: [Errno 2] No such file or directory: '{missing}'" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # Rerunning into the existing directory replaces every file and leaves no temporary behind.
    assert main(argv + ["--seed", "2", "--dump-channel", str(tmp_path / "chan.csv")]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["layout.txt", "metadata.json", "rates.csv"]
    assert (out / "rates.csv").read_bytes() != before["rates.csv"]
    assert (tmp_path / "chan.csv").exists()


def test_failed_replacement_puts_back_every_replaced_file(tmp_path, capsys):
    """chan.csv is a directory, so its replacement fails after the run's
    other outputs were replaced: every one of them is put back."""
    out = tmp_path / "out"
    argv = ["run", "--grid-side", "2", "--trials", "5", "--snr-db", "30", "--output", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    chan = tmp_path / "chan.csv"
    chan.mkdir()
    assert main(argv + ["--seed", "9", "--dump-channel", str(chan)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert chan.is_dir() and not any(chan.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.csv", "out"]


def test_every_target_exists_while_its_replacement_is_pending(tmp_path, monkeypatch):
    """A target is backed up by a hard link, not moved aside, so a run killed
    between the backup and the replacement still leaves every output in
    place; a backup such a run left behind does not stop the next one."""
    out = tmp_path / "out"
    argv = ["run", "--grid-side", "2", "--trials", "5", "--snr-db", "30", "--output", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / ".rates.csv.old").write_text("left by a killed run\n")
    seen = []
    real_replace = Path.replace

    def checking_replace(self, target):
        if self.name.endswith(".tmp"):  # a temporary about to replace its target
            seen.append(Path(target).name)
            assert sorted(p.name for p in out.iterdir() if not p.name.startswith(".")) == sorted(old)
            assert Path(target).read_bytes() == old[Path(target).name]
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", checking_replace)
    assert main(argv + ["--seed", "9"]) == 0
    monkeypatch.undo()
    assert sorted(seen) == sorted(old)
    assert sorted(p.name for p in out.iterdir()) == sorted(old)
    assert (out / "rates.csv").read_bytes() != old["rates.csv"]


def _counted_reads(monkeypatch) -> list[Path]:
    """The paths Path.read_text reads from now on, in order."""
    reads = []
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    return reads


def test_rerun_reads_only_its_metadata(tmp_path, monkeypatch):
    """A --from-metadata rerun takes its positions from the embedded config."""
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.1 0.7\n1.3 0.2\n0.4 1.9\n")
    first = tmp_path / "first"
    assert main(["run", "--layout-file", str(nodes), "--trials", "3", "--snr-db", "30", "--output", str(first)]) == 0
    reads = _counted_reads(monkeypatch)
    rerun = tmp_path / "rerun"
    assert main(["run", "--from-metadata", str(first / "metadata.json"), "--output", str(rerun)]) == 0
    assert reads == [first / "metadata.json"]
    monkeypatch.undo()
    assert (rerun / "rates.csv").read_bytes() == (first / "rates.csv").read_bytes()


@pytest.mark.parametrize(
    "tokens, message",
    [
        (["nearest"], "argument --policies: 'nearest': unknown policy kind 'nearest'"),
        (["distance:-1"], "argument --policies: 'distance:-1': alpha must be finite and > 0, got -1.0"),
        (["cluster:3"], "argument --policies: 'cluster:3': cluster_size must be a positive perfect square, got 3"),
        (["perfect", "perfect"], "policies must be distinct, got perfect twice"),
    ],
    ids=["unknown-kind", "negative-alpha", "cluster-not-square", "duplicate"],
)
def test_bad_policies_are_usage_errors(tmp_path, capsys, tokens, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["run", "--grid-side", "2", "--trials", "5", "--output", str(out), "--policies", *tokens])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sizes"])
@pytest.mark.parametrize(
    "token, reason",
    [
        ("distance:nan", "alpha must be finite and > 0, got nan"),
        ("cluster:3", "cluster_size must be a positive perfect square, got 3"),
        ("uniform:foo", "uniform_support must be 'all' or 'conventional', got 'foo'"),
        ("perfect:1", "policy 'perfect' takes no argument"),
    ],
    ids=["nan-alpha", "non-square-cluster", "unknown-support", "perfect-argument"],
)
def test_bad_policy_tokens_say_why(tmp_path, capsys, command, token, reason):
    """A --policies token that cannot make a policy is a usage error that
    gives the reason, as the same policy in a --config file does."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, "--grid-side", "2", "--snr-db", "20", "--policies", token, "--output", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --policies: {token!r}: {reason}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--trials", "3", "--policies", "distance:nan"],
         "argument --policies: 'distance:nan': alpha must be finite and > 0, got nan"),
        (["sizes", "--policies", "distance:inf"],
         "argument --policies: 'distance:inf': alpha must be finite and > 0, got inf"),
        (["run", "--config", "c.json"], "c.json: alpha must be finite and > 0, got nan"),
    ],
    ids=["run-nan", "sizes-inf", "config-nan"],
)
def test_non_finite_alpha_is_a_usage_error(tmp_path, capsys, argv, message):
    """A NaN or infinite alpha passed the alpha > 0 check and failed later,
    with a traceback, in the allocation tables."""
    config = {"grid_side": 2, "snr_db": [20.0], "trials": 3, "policies": [{"kind": "distance", "alpha": math.nan}]}
    (tmp_path / "c.json").write_text(json.dumps(config))
    argv = [str(tmp_path / a) if a == "c.json" else a for a in argv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--grid-side", "2", "--snr-db", "20", "--output", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("change", ["keep", "edit", "delete", "override"])
def test_from_metadata_checks_its_layout_file(tmp_path, change):
    """A rerun does not need its layout file: kept, edited or deleted, the
    rerun gives the same bytes, and a layout flag still replaces it."""
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.1 0.7\n1.3 0.2\n0.4 1.9\n")
    first = tmp_path / "first"
    argv = ["run", "--layout-file", str(nodes), "--trials", "3", "--snr-db", "30", "--output", str(first)]
    assert main(argv) == 0
    if change == "edit":  # one ulp away from 1.9
        nodes.write_text("0.1 0.7\n1.3 0.2\n0.4 1.9000000000000001\n")
    elif change in ("delete", "override"):
        nodes.unlink()
    rerun = tmp_path / "rerun"
    argv = ["run", "--from-metadata", str(first / "metadata.json"), "--output", str(rerun)]
    if change == "override":
        argv += ["--grid-side", "2"]
    assert main(argv) == 0
    same = (rerun / "rates.csv").read_bytes() == (first / "rates.csv").read_bytes()
    assert same == (change != "override")


@pytest.mark.parametrize("command", ["run", "sizes", "save-config"])
@pytest.mark.parametrize(
    "layout, message",
    [
        ("file", "policy cluster(size=4): regular clustering is defined for square grid layouts only"),
        ("grid3", "policy cluster(size=4): grid side 3 is not divisible by block side 2"),
    ],
    ids=["random-file", "grid3"],
)
def test_cluster_policy_must_fit_the_layout(tmp_path, capsys, monkeypatch, command, layout, message):
    """The CLI and evaluate_curves refuse a misfit cluster policy with one
    message, before any trial runs."""

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr("netmimo.evaluation._simulate_trials", no_trials)
    nodes = tmp_path / "l5.txt"
    nodes.write_text("0.1 0.7\n1.3 0.2\n0.4 1.9\n2.2 3.1\n3.5 0.4\n")
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--trials", "3", "--output", str(out)],
        "sizes": ["sizes", "--output", str(out)],
        "save-config": ["run", "--save-config", str(out)],
    }[command]
    argv += ["--policies", "perfect", "cluster:4"]
    argv += ["--layout-file", str(nodes)] if layout == "file" else ["--grid-side", "3"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    specs = [PolicySpec("perfect"), PolicySpec("cluster", cluster_size=4)]
    placed = parse_layout(nodes.read_text()) if layout == "file" else place_grid(3)
    with pytest.raises(ValueError) as info:
        evaluate_curves(placed, 0.6, specs, [20.0], 3, 1)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--config"], "--config"),
        (["run", "--from-metadata"], "--from-metadata"),
        (["sizes", "--config"], "--config"),
        (["sizes", "--layout-file"], "cannot load layout file"),
        (["run", "--trials", "3", "--layout-file"], "cannot load layout file"),
    ],
    ids=["run-config", "run-from-metadata", "sizes-config", "sizes-layout", "run-layout"],
)
def test_missing_input_file_is_a_usage_error(tmp_path, capsys, argv, flag):
    missing = tmp_path / "nope"
    with pytest.raises(SystemExit) as info:
        main(argv + [str(missing), "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {flag}" in err and f"No such file or directory: '{missing}'" in err
    assert not (tmp_path / "out").exists()


def test_failed_run_removes_only_the_directories_it_created(tmp_path, capsys):
    out = tmp_path / "new" / "deeper"
    argv = ["run", "--grid-side", "2", "--trials", "5", "--snr-db", "30", "--output", str(out)]
    assert main(argv + ["--dump-channel", str(tmp_path / "missing" / "x.csv")]) == 2
    assert "error: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    # An output directory that already existed stays, even when empty.
    out.mkdir(parents=True)
    assert main(argv + ["--dump-channel", str(tmp_path / "missing" / "x.csv")]) == 2
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize(
    "data, message",
    [
        ({"trials": 3, "bogus": 1}, "config: unknown key 'bogus'"),
        ({"trials": "3"}, "config: key 'trials' must be int, got '3'"),
        ({"trials": True}, "config: key 'trials' must be int, got True"),
        ({"gamma": "0.6"}, "config: key 'gamma' must be float, got '0.6'"),
        ({"snr_db": [30, "40"]}, "config: key 'snr_db' must be list[float]"),
        ({"positions": 3}, "config: key 'positions' must be list[list[float]] | None, got 3"),
        ({"policies": [{"kind": "distance", "beta": 1}]}, "policies[0]: unknown key 'beta'"),
        ({"policies": [{"kind": "distance", "alpha": "1"}]}, "policies[0]: key 'alpha' must be float"),
        ([3], "config must be a JSON object, got [3]"),
    ],
    ids=["unknown", "str-int", "bool-int", "str-float", "list-item", "optional", "policy-key",
         "policy-type", "not-object"],
)
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, data, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--output", str(out)])
    assert info.value.code == 2
    assert f"error: --config: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict(data)


def test_config_fields_keep_their_defaults_and_accept_ints_for_floats():
    cfg = ExperimentConfig.from_dict({"trials": 3, "gamma": 1, "policies": [{"kind": "zero"}]})
    assert cfg == replace(ExperimentConfig(), trials=3, gamma=1, policies=[PolicySpec("zero")])
    assert ExperimentConfig.from_dict({"trials": 3}) == replace(ExperimentConfig(), trials=3)


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"layout_positions": [[0.0, 0.0]]}, "no 'config' key"),
        ([1, 2], "no 'config' key"),
        ({"config": {"trials": 3, "bogus": 1}}, "config: unknown key 'bogus'"),
    ],
    ids=["no-config", "not-object", "bad-config"],
)
def test_bad_metadata_is_a_usage_error(tmp_path, capsys, meta, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(meta))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["run", "--from-metadata", str(path), "--output", str(out)])
    assert info.value.code == 2
    assert f"error: --from-metadata: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _old_format(meta: dict, layout_path: Path | None = None) -> dict:
    """A current run's metadata as it was written before the positions moved
    into the config: a layout_path in the config (the layout file of a
    layout-file run, of kind "file", and null for any other run), and the
    positions of every run beside the config."""
    config = {k: v for k, v in meta["config"].items() if k != "positions"}
    if config["layout_kind"] == "positions":
        config.update(layout_kind="file", layout_path=str(layout_path))
    else:
        config.update(layout_path=None)
    positions = resolve_layout(ExperimentConfig.from_dict(meta["config"])).positions.tolist()
    return {**meta, "config": config, "layout_positions": positions}


def test_metadata_without_layout_positions_is_a_usage_error(tmp_path, capsys):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.1 0.7\n1.3 0.2\n")
    first = tmp_path / "first"
    assert main(["run", "--layout-file", str(nodes), "--trials", "2", "--snr-db", "30", "--output", str(first)]) == 0
    meta = _old_format(json.loads((first / "metadata.json").read_text()), nodes)
    del meta["layout_positions"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(meta))
    with pytest.raises(SystemExit) as info:
        main(["run", "--from-metadata", str(path), "--output", str(tmp_path / "rerun")])
    assert info.value.code == 2
    assert f"error: --from-metadata: {path}: no 'layout_positions' key" in capsys.readouterr().err
    assert not (tmp_path / "rerun").exists()


@pytest.mark.parametrize("layout", ["file", "grid", "random"])
@pytest.mark.parametrize("source", ["metadata", "config"])
def test_old_format_inputs_still_rerun(tmp_path, monkeypatch, source, layout):
    """Old metadata reruns on the positions it recorded, without its layout
    file; an old config file has its layout file read once. A grid or random
    run's old input, with its null layout_path, reruns without reading one."""
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.1 0.7\n1.3 0.2\n0.4 1.9\n")
    first = tmp_path / "first"
    flags = {"file": ["--layout-file", str(nodes)], "grid": ["--grid-side", "2"], "random": ["--random-k", "3"]}
    assert main(["run", *flags[layout], "--trials", "3", "--snr-db", "30", "--output", str(first)]) == 0
    meta = _old_format(json.loads((first / "metadata.json").read_text()), nodes)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(meta if source == "metadata" else meta["config"]))
    if source == "metadata":
        nodes.unlink()
    reads = _counted_reads(monkeypatch)
    rerun = tmp_path / "rerun"
    flag = "--from-metadata" if source == "metadata" else "--config"
    assert main(["run", flag, str(path), "--output", str(rerun)]) == 0
    monkeypatch.undo()
    assert reads == ([path, nodes] if (source, layout) == ("config", "file") else [path])
    assert (rerun / "rates.csv").read_bytes() == (first / "rates.csv").read_bytes()
    config = json.loads((rerun / "metadata.json").read_text())["config"]
    assert config["positions"] == (meta["layout_positions"] if layout == "file" else None)
    assert "layout_path" not in config


def test_a_flag_can_repair_a_config_file(tmp_path):
    """Only the positions of a --config file are checked on read; the other
    checks, the cluster fit included, apply to the config with the flags."""
    base = tmp_path / "base.json"
    base.write_text(_tiny_config("out", grid_side=3, policies=[PolicySpec("cluster", cluster_size=4)]).to_json())
    saved = tmp_path / "saved.json"
    assert main(["run", "--config", str(base), "--grid-side", "4", "--save-config", str(saved)]) == 0
    assert ExperimentConfig.from_json(saved.read_text()).grid_side == 4


def test_old_config_file_reads_its_layout_file_even_when_replaced(tmp_path, capsys):
    """An old config file's layout file is read when the config is, so it
    must exist even when --layout-file replaces it."""
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.1 0.7\n1.3 0.2\n")
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"layout_kind": "file", "layout_path": str(tmp_path / "gone.txt")}))
    saved = tmp_path / "saved.json"
    argv = ["run", "--config", str(old), "--layout-file", str(nodes), "--save-config", str(saved)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"error: cannot load layout file {tmp_path / 'gone.txt'}" in capsys.readouterr().err
    assert not saved.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"layout_kind": "positions", "positions": []}, "positions must have shape (K, 2) with K >= 1"),
        ({"layout_kind": "positions", "positions": [[0, 1, 2]]}, "positions must have shape (K, 2) with K >= 1"),
        ({"layout_kind": "positions", "positions": [[math.nan, 0]]}, "positions must be finite"),
        ({"layout_kind": "grid", "positions": [[0, 1]]}, "positions must be set exactly when layout_kind"),
    ],
    ids=["empty", "three-columns", "nan", "grid-kind"],
)
def test_bad_positions_fail_at_once(tmp_path, capsys, config, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))  # json writes and reads NaN
    argv = ["run", "--config", str(path), "--output", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert f"error: --config: {path}: " in err and message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--layout-file", "{tmp}/far.txt"],
         "error: cannot load layout file {tmp}/far.txt: pairwise distances must be finite"),
        (["--config", "{tmp}/far.json"], "error: --config: {tmp}/far.json: pairwise distances must be finite"),
        (["--random-k", "3", "--random-side", "1.5e308"],
         "error: random_side must lie in (0, 1.27116e+308], got 1.5e+308"),
    ],
    ids=["layout-file", "config", "random-side"],
)
@pytest.mark.parametrize("command", ["run", "sizes"])
def test_layouts_whose_distances_overflow_exit_2(tmp_path, capsys, command, args, message):
    """Finite positions whose pairwise distances overflow, and a random
    square whose diagonal overflows, are usage errors before anything
    runs: exit 2, an error line, no traceback and no output."""
    far = [[0.0, 0.0], [1.7e308, 0.0], [-1.7e308, 0.0]]
    (tmp_path / "far.txt").write_text("0 0\n1.7e308 0\n-1.7e308 0\n")
    (tmp_path / "far.json").write_text(json.dumps({"layout_kind": "positions", "positions": far}))
    argv = [command, *(a.format(tmp=tmp_path) for a in args), "--snr-db", "30"]
    if command == "run":
        argv += ["--trials", "4", "--output", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.json", "far.txt"]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--grid-side", "2", "--random-side", "nan", "--snr-db", "30", "50", "--trials", "3"], "random_side"),
        (["run", "--grid-side", "2", "--random-side=-inf", "--snr-db", "30", "--trials", "3"], "random_side"),
        (["run", "--config", {"grid_side": 2, "random_k": 0, "snr_db": [30.0], "trials": 3}], "random_k"),
        (["run", "--config", {"layout_kind": "random", "grid_side": 0, "snr_db": [30.0], "trials": 3}], "grid_side"),
        (["sizes", "--grid-side", "2", "--random-k", "0", "--layout-file", "nodes.txt"], "random_k"),
        (["run", "--config", {"grid_side": 2, "snr_db": [20.0, 40.0], "trials": 3, "cond_threshold": math.inf}],
         "cond_threshold"),
    ],
    ids=["random-side-nan", "random-side-minus-inf", "random-k-on-grid", "grid-side-on-random",
         "random-k-on-file", "cond-threshold-inf"],
)
def test_every_field_is_checked_whatever_the_layout_kind(tmp_path, monkeypatch, capsys, argv, field):
    """Each of these once exited 0 and stored the bad field; a NaN or an
    infinity made metadata.json non-strict JSON. Now: exit 2 with one error
    line naming the field, no traceback, and nothing written (a run without
    --output writes to netmimo-out)."""
    monkeypatch.chdir(tmp_path)
    Path("nodes.txt").write_text("0 0\n1 0\n")
    if "--config" in argv:
        Path("c.json").write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], "c.json"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and field in errors[0] and "Traceback" not in err, err
    assert {p.name for p in tmp_path.iterdir()} <= {"nodes.txt", "c.json"}


def test_an_old_metadata_holding_a_nan_unused_field_is_repaired_by_its_flag(tmp_path, capsys):
    """A metadata.json whose grid run stored random_side NaN reruns as a
    usage error naming random_side, and --random-side repairs it: the rerun
    gives the same rates and strict JSON metadata."""
    first = tmp_path / "first"
    assert main(["run", "--grid-side", "2", "--snr-db", "30", "50", "--trials", "3", "--output", str(first)]) == 0
    meta = json.loads((first / "metadata.json").read_text(), parse_constant=_refuse_constant)
    meta["config"]["random_side"] = math.nan
    old = tmp_path / "old.json"
    old.write_text(json.dumps(meta))
    rerun = tmp_path / "rerun"
    argv = ["run", "--from-metadata", str(old), "--output", str(rerun)]
    assert _exit_code(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "random_side" in errors[0]
    assert not rerun.exists()
    assert main([*argv, "--random-side", "4"]) == 0
    assert (rerun / "rates.csv").read_bytes() == (first / "rates.csv").read_bytes()
    meta = json.loads((rerun / "metadata.json").read_text(), parse_constant=_refuse_constant)
    assert meta["config"]["random_side"] == 4


@pytest.mark.parametrize("snr", ["nan", "inf", "4000", "config-nan", "nan nan"])
@pytest.mark.parametrize("command", ["run", "sizes"])
def test_non_finite_or_overflowing_snr_exits_2(tmp_path, capsys, command, snr):
    """An SNR point that is not finite, or whose 10^(dB/10) overflows, is a
    usage error before anything runs: exit 2, one error line naming snr_db,
    no traceback and no output. Two NaN points are named as NaN, not as a
    repeat. 3000 dB still runs."""
    (tmp_path / "c.json").write_text('{"grid_side": 2, "snr_db": [30.0, NaN]}')
    snr_args = ["--grid-side", "2", "--snr-db", *snr.split()]
    if snr == "config-nan":
        snr_args = ["--config", str(tmp_path / "c.json")]
    argv = [command, *snr_args]
    if command == "run":
        argv += ["--trials", "4", "--output", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error: " in line]
    assert len(errors) == 1 and "error: snr_db: nominal SNR P must be finite and > 1 (0 dB), got " in errors[0]
    assert "Traceback" not in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    assert _exit_code(["sizes", "--grid-side", "2", "--snr-db", "3000"]) == 0


@pytest.mark.parametrize("snr", [["20", "20"], ["30", "20", "30.0"], "config"])
@pytest.mark.parametrize("command", ["run", "sizes"])
def test_repeated_snr_exits_2(tmp_path, capsys, command, snr):
    """A repeated SNR point is a usage error before anything runs: a slope
    fitted over it would rest on fewer x values than it claims."""
    (tmp_path / "c.json").write_text('{"grid_side": 2, "snr_db": [40.0, 20.0, 40.0]}')
    snr_args = ["--config", str(tmp_path / "c.json")] if snr == "config" else ["--grid-side", "2", "--snr-db", *snr]
    argv = [command, *snr_args]
    if command == "run":
        argv += ["--trials", "4", "--output", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert "error: snr_db points must be distinct" in err
    assert "Traceback" not in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("kind", ["grid", "random", "positions"])
def test_validate_returns_the_layout_the_config_resolves(kind):
    cfg = {
        "grid": ExperimentConfig(grid_side=3),
        "random": ExperimentConfig(layout_kind="random", random_k=6, random_side=2.5, seed=9),
        "positions": ExperimentConfig(layout_kind="positions", positions=[[0.25, 1.0], [3.0, 0.5], [1.125, 2.0]]),
    }[kind]
    layout = cfg.validate()
    assert layout.positions.tobytes() == resolve_layout(cfg).positions.tobytes()


@pytest.mark.parametrize(
    "command, resolves",
    [
        ("run_experiment", 1),
        (["sizes", "--grid-side", "2", "--snr-db", "40"], 1),
        (["sizes", "--layout-file", "{tmp}/pos.txt", "--snr-db", "40"], 1),
        (["layout", "--random-k", "5", "--out", "{tmp}/emitted.txt"], 1),
        # The CLI validates the config, and run_experiment validates it again.
        (["run", "--grid-side", "2", "--snr-db", "30", "50", "--trials", "2", "--output", "{tmp}/out"], 2),
        (["run", "--layout-file", "{tmp}/pos.txt", "--snr-db", "30", "--trials", "2", "--output", "{tmp}/out"], 2),
        (["fig2-desk", "--trials", "2", "--output", "{tmp}/out"], 2),
    ],
    ids=["run_experiment", "sizes", "sizes-layout-file", "layout-out", "run", "run-layout-file", "fig2-desk"],
)
def test_each_validation_resolves_the_layout_once(tmp_path, monkeypatch, command, resolves):
    """validate hands on the layout it resolved and checked, so a command
    resolves its layout once per validation, and a random layout is drawn
    once per validation."""
    (tmp_path / "pos.txt").write_text("0.25 1\n3 0.5\n1.125 2\n")
    calls = []

    def counting(config):
        calls.append(config.layout_kind)
        return resolve_layout(config)

    monkeypatch.setattr("netmimo.cli.resolve_layout", counting)
    if command == "run_experiment":
        run_experiment(_tiny_config(tmp_path / "out", trials=2))
    else:
        assert main([arg.replace("{tmp}", str(tmp_path)) for arg in command]) == 0
    assert len(calls) == resolves, calls


def test_run_summary_reports_the_highest_snr_point(tmp_path, capsys):
    """The summary's top point is the highest SNR, where the slope's fit
    window ends, whatever order the points were given in."""
    argv = ["run", "--grid-side", "2", "--trials", "4", "--policies", "perfect", "--output", str(tmp_path / "out")]
    assert main([*argv, "--snr-db", "40", "20"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert " top 40 dB: " in line
    rates = [r.split(",") for r in (tmp_path / "out" / "rates.csv").read_text().splitlines()]
    top = next(r for r in rates if r[2] == "40" and r[3] == "avg")
    assert f"{float(top[4]):.3f} bits/user" in line


_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.lists(_coordinate, min_size=2, max_size=2), min_size=1, max_size=6))
def test_positions_round_trip_bit_exact(positions):
    """The positions survive the config JSON, and the layout file a
    --layout-file run reads, to the bit: -0.0, subnormals and 1e300 included."""
    cfg = ExperimentConfig(layout_kind="positions", positions=positions)
    cfg.validate()
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    want = resolve_layout(cfg).positions.tobytes()
    assert resolve_layout(back).positions.tobytes() == want
    from_file = parse_layout(format_layout(resolve_layout(cfg))).positions.tolist()
    assert resolve_layout(replace(cfg, positions=from_file)).positions.tobytes() == want


def _exit_code(argv):
    """main's exit code, whether it returns it or exits with a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sizes", "--grid-side", "2", "--snr-db", "40", "--output", "{missing}/x.csv"], "{missing}/x.csv"),
        (["sizes", "--grid-side", "2", "--snr-db", "40", "--export-bits", "{file}/bits"], "{file}/bits"),
        (["verify", "--trials", "20", "--output", "{missing}/v.csv"], "{missing}/v.csv"),
        (["run", "--grid-side", "2", "--save-config", "{missing}/c.json"], "{missing}/c.json"),
        (["layout", "--grid-side", "2", "--out", "{missing}/l.txt"], "{missing}/l.txt"),
        (["layout", "--show", "{missing}/l.txt"], "--show: {missing}/l.txt"),
        (["layout", "--layout-file", "{missing}/l.txt", "--out", "{tmp}/x.txt"], "layout file {missing}/l.txt"),
    ],
    ids=["sizes-output", "sizes-export-bits", "verify-output", "run-save-config", "layout-out", "layout-show",
         "layout-layout-file"],
)
def test_unreadable_input_or_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv, named):
    suites = []
    monkeypatch.setattr("netmimo.cli.run_verification", lambda **kwargs: suites.append(kwargs))
    regular = tmp_path / "F"
    regular.write_text("")
    paths = {"missing": tmp_path / "missing", "file": regular, "tmp": tmp_path}
    assert _exit_code([arg.format(**paths) for arg in argv]) == 2
    assert suites == []  # verify finds an unwritable output before the suite runs
    err = capsys.readouterr().err
    assert "error: " in err and named.format(**paths) in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [regular]


@pytest.mark.parametrize("unwritable", ["table", "table-existing-dir", "bits"])
def test_sizes_writes_the_table_and_the_bit_dumps_together_or_not_at_all(tmp_path, capsys, unwritable):
    regular = tmp_path / "F"
    regular.write_text("")
    table = tmp_path / ("missing" if unwritable.startswith("table") else ".") / "sizes.csv"
    bits = regular / "bits" if unwritable == "bits" else tmp_path / "new" / "bits"
    if unwritable == "table-existing-dir":
        bits.mkdir(parents=True)
    argv = ["sizes", "--grid-side", "2", "--snr-db", "40", "60", "--policies", "distance", "uniform",
            "--output", str(table), "--export-bits", str(bits)]
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err
    assert not table.exists()
    if unwritable == "table-existing-dir":
        assert bits.is_dir() and not any(bits.iterdir())
    else:
        assert list(tmp_path.iterdir()) == [regular]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--output", "o", "--dump-channel", "o/rates.csv"], "o/rates.csv"),
        (["run", "--output", "o", "--dump-channel", "o/metadata.json"], "o/metadata.json"),
        (["run", "--output", "o", "--dump-channel", "{tmp}/o/rates.csv"], "{tmp}/o/rates.csv"),
        (["run", "--output", "{tmp}/o", "--dump-channel", "./o/../o/layout.txt"], "o/../o/layout.txt"),
        (["run", "--output", "o", "--dump-channel", "{tmp}/o"], "{tmp}/o"),
        (["sizes", "--export-bits", "d", "--output", "d/bits_distance_a1_40dB.csv"], "d/bits_distance_a1_40dB.csv"),
        (["sizes", "--export-bits", "d", "--output", "{tmp}/d/bits_distance_a1_40dB.csv"],
         "{tmp}/d/bits_distance_a1_40dB.csv"),
    ],
    ids=["run-rates", "run-metadata", "run-absolute", "run-dotted", "run-directory", "sizes-bits",
         "sizes-bits-absolute"],
)
def test_two_outputs_naming_one_file_exit_2(tmp_path, capsys, monkeypatch, argv, named):
    """Two outputs of one command that resolve to the same file, a run's
    output directory counted as one, are a usage error naming that path,
    found before any trial runs: exit 2, no traceback, nothing written."""

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr("netmimo.evaluation._simulate_trials", no_trials)
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    argv += ["--grid-side", "2", "--snr-db", "40", "--policies", "perfect", "distance"]
    if argv[0] == "run":
        argv += ["--trials", "4"]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert f"error: two outputs of this command name the same file: {named.format(tmp=tmp_path)}" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sizes", "--grid-side", "6", "--snr-db", "40", "--export-bits", "eb",
          "--policies", "cluster:4", "cluster:9", "uniform", "uniform:conventional"],
         "policies must be distinct, got cluster:4 and cluster:9, which the outputs cannot tell apart"),
        (["sizes", "--grid-side", "4", "--snr-db", "40", "--policies", "uniform", "uniform:conventional"],
         "policies must be distinct, got uniform:all and uniform:conventional, which the outputs cannot tell apart"),
        (["run", "--grid-side", "4", "--snr-db", "20", "40", "--trials", "3", "--output", "out",
          "--policies", "uniform:conventional", "perfect", "uniform"],
         "policies must be distinct, got uniform:conventional and uniform:all, which the outputs cannot tell apart"),
        (["run", "--grid-side", "2", "--snr-db", "20", "40", "--trials", "3", "--output", "out",
          "--policies", "distance:1", "distance:1.00000000001"],
         "policies must be distinct, got distance:1.0 and distance:1.00000000001, which the outputs cannot tell apart"),
        (["sizes", "--grid-side", "2", "--snr-db", "20", "20.00000000001", "--export-bits", "eb"],
         "snr_db points must be distinct, got 20.0 dB and 20.00000000001 dB, which the outputs cannot tell apart"),
        (["run", "--grid-side", "2", "--snr-db", "20", "40", "20.00000000001", "--trials", "3", "--output", "out"],
         "snr_db points must be distinct, got 20.0 dB and 20.00000000001 dB, which the outputs cannot tell apart"),
    ],
    ids=["sizes-clusters", "sizes-uniform-supports", "run-uniform-supports", "run-alphas", "sizes-snr", "run-snr"],
)
def test_outputs_that_cannot_tell_two_entries_apart_exit_2(tmp_path, capsys, monkeypatch, argv, reason):
    """Two policies, or two SNR points, that would write the same rows at
    .10g, the same metadata label or the same bit-file name are a usage error
    naming both, before anything runs: exit 2, no traceback, no output."""
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert f"error: {reason}" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_export_bits_writes_a_file_per_policy_and_snr_point(tmp_path, capsys):
    """Policies and SNR points that differ at 10 significant digits get bit
    files and size-table rows of their own."""
    argv = ["sizes", "--grid-side", "2", "--snr-db", "20", "20.0000001", "--export-bits", str(tmp_path / "eb"),
            "--policies", "distance:1", "distance:1.0000001", "uniform:conventional", "cluster:1"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len({tuple(r.split(",")[:3]) for r in rows}) == len(rows) == 2 * 5  # conventional and 4 policies
    assert sorted(p.name for p in (tmp_path / "eb").iterdir()) == sorted(
        f"bits_{name}_{db}dB.csv"
        for name in ("cluster", "distance_a1", "distance_a1.0000001", "uniform")
        for db in ("20", "20.0000001")
    )


def test_uniform_support_is_named_in_the_metadata(tmp_path):
    cfg = _tiny_config(tmp_path / "out", policies=[PolicySpec("uniform", uniform_support="conventional")])
    run_experiment(cfg)
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert list(meta["dof"]) == list(meta["rejections"]) == ["uniform(support=conventional)"]


@pytest.mark.parametrize(
    "argv, patched",
    [
        (["run", "--grid-side", "2", "--snr-db", "20", "40", "--trials", "3", "--output", "out"], "evaluate_curves"),
        (["fig1-desk", "--trials", "2", "--output", "out"], "evaluate_curves"),
        (["sizes", "--grid-side", "2", "--snr-db", "40", "--output", "out.csv", "--export-bits", "eb"],
         "compute_size_table"),
    ],
    ids=["run", "preset", "sizes"],
)
def test_memory_error_is_an_error_line_and_exit_2(tmp_path, capsys, monkeypatch, argv, patched):
    """A MemoryError that escapes a command is reported as one error line,
    exit 2, with nothing written."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.75 GiB for an array with shape (625, 625, 625)")

    monkeypatch.setattr(f"netmimo.cli.{patched}", out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert "error: out of memory: Unable to allocate 1.75 GiB" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []
