"""End-to-end checks of the kellybench command and its CSV contracts."""

import errno
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import kellybench
from kellybench import cli, stream, utility
from kellybench.cli import main

SIM_ARGS = ["--p", "0.52", "--kelly", "--n", "128", "--paths", "600", "--seed", "7"]

# SHA-256 of `verify --quick --seed 1`'s errata.csv; refactors of the registry keep it
ERRATA_SEED_1 = "483fea405b2fcd0a162cedb58f13992b53399d6b9bb3492f51e704dfba7949a2"


def read_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rows]


# -------------------------------------------------------------- analyze


def test_analyze_emits_three_tables(tmp_path):
    assert main(["analyze", "--p", "0.52", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "utility_curve.csv").exists()
    assert (tmp_path / "partition.csv").exists()
    assert (tmp_path / "entropy.csv").exists()


def test_analyze_partition_roundtrips_the_root(tmp_path):
    main(["analyze", "--p", "0.52", "--out", str(tmp_path)])
    header, rows = read_rows(tmp_path / "partition.csv")
    row = dict(zip(header, rows[0]))
    # 17 significant digits round-trip: the parsed root is still a root
    assert abs(utility(float(row["f_star"]), 0.52)) < 1e-12
    assert float(row["f_kelly"]) == pytest.approx(0.04, abs=1e-15)


def test_analyze_entropy_table_contains_identity(tmp_path):
    main(["analyze", "--p", "0.52", "--out", str(tmp_path)])
    header, rows = read_rows(tmp_path / "entropy.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["log2_minus_H"]) == pytest.approx(
        float(row["utility_at_kelly"]), abs=1e-12
    )


def test_analyze_without_edge_omits_partition(tmp_path, capsys):
    assert main(["analyze", "--p", "0.4", "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "partition.csv").exists()
    assert (tmp_path / "utility_curve.csv").exists()
    # p < 1/2: no Kelly stake in [0, 1], so entropy.csv's utility_at_kelly is nan
    assert capsys.readouterr().err == (
        "no positive edge: partition omitted; utility_at_kelly written as nan\n")
    header, rows = read_rows(tmp_path / "entropy.csv")
    assert dict(zip(header, rows[0]))["utility_at_kelly"] == "nan"


@pytest.mark.parametrize("p, nan_columns, lines", [
    ("0.81", {"f_star_approx", "epsilon"}, 1),  # the series needs F_K^2 < 3/8
    ("0.95", {"f_star_approx", "epsilon"}, 1),  # the root is the best float below 1
    ("0.985", {"f_star", "f_star_approx", "epsilon"}, 2),  # no root below 1 in float64
])
def test_analyze_writes_nan_where_a_hypothesis_fails(tmp_path, capsys, p, nan_columns, lines):
    assert main(["analyze", "--p", p, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.count("partition: ") == len(err.splitlines()) == lines
    header, rows = read_rows(tmp_path / "partition.csv")
    row = {k: float(v) for k, v in zip(header, rows[0])}
    assert {k for k, v in row.items() if math.isnan(v)} == nan_columns
    if "f_star" not in nan_columns:
        assert row["f_kelly"] < row["f_star"] < 1.0
    assert (tmp_path / "utility_curve.csv").exists() and (tmp_path / "entropy.csv").exists()


@pytest.mark.parametrize("p, tables, notes", [
    ("0", ["entropy.csv", "utility_curve.csv"], ["no positive edge: partition omitted"]),
    ("1", ["entropy.csv", "partition.csv", "utility_curve.csv"],
     ["partition: f_star_approx and epsilon are nan", "partition: f_star is nan"]),
])
def test_analyze_accepts_the_deterministic_games(tmp_path, capsys, p, tables, notes):
    assert main(["analyze", "--p", p, "--grid", "3", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(notes) and all(e.startswith(n) for e, n in zip(err, notes))
    assert sorted(f.name for f in tmp_path.iterdir()) == tables
    header, rows = read_rows(tmp_path / "entropy.csv")
    assert dict(zip(header, rows[0]))["H"] == "0"  # not "-0"


def test_analyze_exits_zero_on_the_whole_edge_grid(tmp_path):
    # every p on the 0.005 grid over (0.5, 1) writes its three tables
    for k in range(1, 100):
        out = tmp_path / str(k)
        argv = ["analyze", "--p", f"0.{500 + 5 * k:03d}", "--grid", "2", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "entropy.csv", "partition.csv", "utility_curve.csv"]


def test_analyze_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--p", "0.52", "--out", str(a)])
    main(["analyze", "--p", "0.52", "--out", str(b)])
    for name in ("utility_curve.csv", "partition.csv", "entropy.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ------------------------------------------------------------- simulate


def test_simulate_emits_summary_doob_and_drift(tmp_path):
    assert main(["simulate", *SIM_ARGS, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "trajectories_summary.csv")
    assert header == ["I", "mean_W", "var_W", "mean_M", "empirical_sup_prob", "doob_bound"]
    assert [int(r[0]) for r in rows] == [32, 64, 96, 128]
    header, rows = read_rows(tmp_path / "doob.csv")
    assert len(rows) == 20
    for lam, sup, bound in ((float(a), float(b), float(c)) for a, b, c in rows):
        assert sup <= bound
    header, rows = read_rows(tmp_path / "drift.csv")
    drift = dict(zip(header, rows[0]))
    assert abs(float(drift["z_score"])) <= 4.0
    assert math.isfinite(float(drift["empirical_drift"]))


def test_simulate_doob_bound_holds_for_supermartingale(tmp_path):
    # p < 1/2: E[W(N)]/lambda is ~4e-5 here, yet most paths pass 1.01 w0;
    # Ville's w0/lambda is the bound that holds
    argv = ["simulate", "--p", "0.45", "--stake", "0.1", "--n", "1000", "--paths", "2000"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "doob.csv")
    for lam, sup, bound in ((float(a), float(b), float(c)) for a, b, c in rows):
        assert sup <= bound == min(1.0, 1000.0 / lam)
    header, rows = read_rows(tmp_path / "trajectories_summary.csv")
    for row in rows:
        r = dict(zip(header, row))
        assert float(r["empirical_sup_prob"]) <= float(r["doob_bound"])


def test_simulate_is_byte_deterministic_across_threads(tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    main(["simulate", *SIM_ARGS, "--out", str(outs[0])])
    main(["simulate", *SIM_ARGS, "--out", str(outs[1])])
    main(["simulate", *SIM_ARGS, "--threads", "4", "--out", str(outs[2])])
    for name in ("trajectories_summary.csv", "doob.csv", "drift.csv"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref


def test_simulate_variance_just_below_float_limit(tmp_path):
    # log Var[W(640)] is 699.6 here, below log(float64 max) = 709.8; at
    # N = 660 it is 721.1 and the command exits 2 before the batch
    argv = ["simulate", "--p", "0.9", "--stake", "0.8", "--n", "640", "--paths", "200"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "trajectories_summary.csv")
    assert all(math.isfinite(float(dict(zip(header, row))["var_W"])) for row in rows)


@pytest.mark.parametrize("n", [3300, 3500])
def test_simulate_wealth_underflow_is_not_ruin(tmp_path, n):
    # the low-win paths' wealth underflows to 0.0 at F = 1/2; they keep their
    # finite log growth, so no path is dropped and the drift is unbiased
    argv = ["simulate", "--p", "0.45", "--stake", "0.5", "--n", str(n), "--paths", "2000",
            "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    header, rows = read_rows(tmp_path / "drift.csv")
    drift = dict(zip(header, rows[0]))
    assert drift["excluded_ruined"] == "0"
    assert abs(float(drift["z_score"])) <= 3.0


def test_simulate_every_path_underflowing(tmp_path):
    argv = ["simulate", "--p", "0.3", "--stake", "0.5", "--n", "3000", "--paths", "300"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "drift.csv")
    assert dict(zip(header, rows[0]))["excluded_ruined"] == "0"


def test_simulate_full_stake_drift_has_no_theory(tmp_path, capsys):
    # U(1, p) = -inf for p < 1: the survivors' drift log 2 has no finite
    # theory to meet, so theory and z_score are nan, not -inf and inf
    argv = ["simulate", "--p", "0.99", "--stake", "1", "--n", "5", "--paths", "1000"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "drift.csv")
    drift = dict(zip(header, rows[0]))
    assert drift["theory"] == drift["z_score"] == "nan"
    assert float(drift["empirical_drift"]) == math.log(2.0)
    assert float(drift["se"]) == 0.0
    assert int(drift["excluded_ruined"]) > 0
    # U(1, p) < 0 is outside the growth regime, so mean_M is nan too
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].endswith("mean_M written as nan") and "nan" in err[1]


@pytest.mark.parametrize("argv, rate", [
    (["--p", "1.0", "--kelly"], math.log(2.0)),
    (["--p", "0.0", "--stake", "0.3"], math.log1p(-0.3)),
], ids=["p1-kelly", "p0-stake"])
def test_simulate_deterministic_game_writes_no_z_score(tmp_path, capsys, argv, rate):
    # every path has the same win count, so the spread of the log growth is
    # rounding only: se is 0 and z_score nan, not a z of -14
    assert main(["simulate", *argv, "--n", "1000", "--paths", "200", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "drift.csv")
    drift = dict(zip(header, rows[0]))
    assert float(drift["empirical_drift"]) == 1000 * rate / 1000
    assert float(drift["se"]) == 0.0 and drift["z_score"] == "nan"
    assert float(drift["theory"]) == pytest.approx(rate, rel=1e-15)
    # p = 0 has no growth regime, so its mean_M is nan and says so first
    notes = ["same win count"] if rate > 0.0 else ["mean_M written as nan", "same win count"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(notes) and all(n in e for n, e in zip(notes, err))


def test_simulate_names_mean_M_where_it_is_nan(tmp_path, capsys):
    # a fair game is outside the growth regime: mean_M is nan in every row
    # and one stderr line says so; the other columns are written as ever
    argv = ["simulate", "--p", "0.5", "--stake", "0.1", "--n", "40", "--paths", "200"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "trajectories_summary.csv")
    assert [dict(zip(header, row))["mean_M"] for row in rows] == ["nan"] * 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("doob: ")
    assert err[0].endswith("; mean_M written as nan")


def test_simulate_refuses_few_paths_before_the_batch(tmp_path, capsys, monkeypatch):
    def no_batch(config):
        raise AssertionError("the batch ran")

    monkeypatch.setattr("kellybench.martingale_lab.simulate", no_batch)
    # a RuntimeWarning from np.var(ddof=1) would fail this test
    argv = ["simulate", "--p", "0.52", "--kelly", "--n", "10", "--paths", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "needs >= 100 paths" in capsys.readouterr().err


def test_simulate_small_w0_with_large_growth(tmp_path):
    # g^1500 alone overflows float64, but E[W(N)] = w0 g^N is about 1e122
    argv = ["simulate", "--p", "0.9", "--stake", "0.8", "--n", "1500", "--paths", "200",
            "--w0", "1e-200"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "trajectories_summary.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    _, rows = read_rows(tmp_path / "doob.csv")
    assert all(float(bound) == 1.0 for _, _, bound in rows)


def test_simulate_requires_exactly_one_stake_mode(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--p", "0.52", "--n", "10", "--paths", "200", "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        main([
            "simulate", "--p", "0.52", "--kelly", "--stake", "0.1",
            "--n", "10", "--paths", "200", "--out", str(tmp_path),
        ])


def test_simulate_kelly_mode_refuses_losing_game(tmp_path):
    rc = main(["simulate", "--p", "0.4", "--kelly", "--n", "10", "--paths", "200",
               "--out", str(tmp_path)])
    assert rc == 2


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("KELLYBENCH_OUT", str(tmp_path / "envdir"))
    assert main(["analyze", "--p", "0.52"]) == 0
    assert (tmp_path / "envdir" / "partition.csv").exists()


# ----------------------------------------------------------- config file


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("grid = 11  # coarse curve\np = 0.6\n")
    # grid comes from the file unless a flag sets it, even to its default value
    for flags, grid in (([], 11), (["--grid", "1001"], 1001)):
        out = tmp_path / str(grid)
        argv = ["analyze", "--p", "0.52", *flags, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_rows(out / "utility_curve.csv")
        assert len(rows) == grid
        _, prow = read_rows(out / "partition.csv")
        assert float(prow[0][0]) == 0.52  # explicit --p beat the file value


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("\n# a coarse curve\ngrid = 11  # note\n   \n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--p", "0.52", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["analyze", "--p", "0.52", "--grid", "11", "--out", str(b)]) == 0
    for name in ("utility_curve.csv", "partition.csv", "entropy.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_a_config_never_carries_into_the_next_command(tmp_path, capsys, monkeypatch):
    # a config's values become defaults of the parser of its own command line,
    # never of a later call of main in the same process
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("grid = 11\n")
    assert main(["analyze", "--p", "0.52", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", "--p", "0.52", "--out", str(tmp_path / "b")]) == 0
    assert len(read_rows(tmp_path / "a" / "utility_curve.csv")[1]) == 11
    assert len(read_rows(tmp_path / "b" / "utility_curve.csv")[1]) == 1001

    scales = []
    monkeypatch.setattr("kellybench.verify.run_verification",
                        lambda seed, scale: scales.append(scale) or ([], True))
    cfg.write_text("full = true\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert main(["verify", "--out", str(tmp_path / "d")]) == 0
    assert scales == ["full", "quick"]
    assert "(quick scale)" in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("command", ["analyze", "simulate", "tradeoff"])
def test_config_file_supplies_p(tmp_path, command):
    # a `p` key takes effect, and an explicit --p beats it
    rest = ["--kelly", "--n", "20", "--paths", "200"] if command == "simulate" else []
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("p = 0.6\n")
    runs = {"key": ["--config", str(cfg)], "flag": ["--p", "0.6"],
            "flag-over-key": ["--p", "0.52", "--config", str(cfg)], "flag-alone": ["--p", "0.52"]}
    written = {}
    for name, flags in runs.items():
        out = tmp_path / name
        assert main([command, *flags, *rest, "--out", str(out)]) == 0
        written[name] = {f.name: f.read_bytes() for f in out.glob("*.csv")}
    assert written["key"] == written["flag"] != written["flag-alone"] == written["flag-over-key"]


@pytest.mark.parametrize("command", ["analyze", "simulate", "tradeoff"])
def test_p_is_required_of_a_flag_or_a_config_key(tmp_path, capsys, command):
    rest = ["--kelly", "--n", "20", "--paths", "200"] if command == "simulate" else []
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"out = {tmp_path / 'out'}\n")
    for flags in ([], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, *rest])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"kellybench {command}: error: the following arguments are required: --p\n")
    assert not (tmp_path / "out").exists()


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("gird = 11\n")
    assert main(["analyze", "--p", "0.52", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_config_file_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("grid 11\n")
    assert main(["analyze", "--p", "0.52", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key, value", [
    ("stake", "0.04"), ("fraction", "0.5"), ("lam", "1200"),
])
def test_config_file_values_take_the_option_type(tmp_path, key, value):
    # options without a default are read with the type their flag declares
    argv = ["simulate", "--p", "0.52", "--n", "20", "--paths", "200", "--seed", "3"]
    if key == "lam":
        argv.append("--kelly")
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"{key} = {value}\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--config", str(cfg), "--out", str(a)]) == 0
    assert main([*argv, f"--{key}", value, "--out", str(b)]) == 0
    for name in ("trajectories_summary.csv", "doob.csv", "drift.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("argv, line", [
    (["verify", "--quick"], "full = ture"),
    (["analyze", "--p", "0.52"], "grid = many"),
    (["simulate", "--p", "0.52", "--kelly", "--n", "20", "--paths", "200"], "lam = abc"),
], ids=["boolean", "integer", "float"])
def test_config_file_rejects_unreadable_values(tmp_path, capsys, argv, line):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_config_file_that_cannot_be_read(tmp_path, capsys, kind):
    cfg = tmp_path / "bench.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"grid = 11  # \xff\n")
    out = tmp_path / "out"
    assert main(["analyze", "--p", "0.52", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory(tmp_path, capsys, under):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if under else taken
    assert main(["analyze", "--p", "0.52", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory") and err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"
    assert not list(tmp_path.rglob("*.csv"))


# -------------------------------------------------------------- tradeoff


def test_tradeoff_emits_table(tmp_path):
    assert main(["tradeoff", "--p", "0.52", "--n", "100", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "tradeoff.csv")
    assert header == ["f", "F", "expected_wealth", "volatility", "utility"]
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(2.0 / 75.0, abs=1e-15)


def test_tradeoff_high_edge_and_overflow(tmp_path, capsys):
    # the volatility column needs no exact-variance oracle, which overflows here
    assert main(["tradeoff", "--p", "0.9", "--out", str(tmp_path / "a")]) == 0
    _, rows = read_rows(tmp_path / "a" / "tradeoff.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    # E[W(N)] itself overflows float64: exit 2 with a message, not a traceback
    assert main(["tradeoff", "--p", "0.9", "--n", "5000", "--out", str(tmp_path / "b")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0.52", "--kelly", "--n", "128", "--paths", "50"],  # < 100 paths
    ["analyze", "--p", "0.52", "--grid", "1"],  # a curve needs two points
    # the library's probability rule, as in simulate and tradeoff
    ["analyze", "--p", "1.5"],
    ["analyze", "--p", "nan"],
    ["simulate", "--p", "0.9", "--stake", "0.8", "--n", "5000", "--paths", "200"],  # E[W] overflows
    ["simulate", "--p", "0.9", "--stake", "0.8", "--n", "1000", "--paths", "200"],  # Var[W] too
    ["simulate", *SIM_ARGS, "--seed", "-1"],
    ["simulate", "--p", "0.52", "--kelly", "--n", "10", "--paths", "200", "--w0", "inf"],
    # zero variance passes the guards, but the cross-path mean overflows
    ["simulate", "--p", "0.52", "--stake", "0", "--n", "100", "--paths", "200", "--w0", "1e308"],
    ["tradeoff", "--p", "0.52", "--w0", "inf"],
    ["tradeoff", "--p", "0.52", "--f", "0.5,abc"],
    ["verify", "--quick", "--seed", "-1"],
], ids=["simulate", "analyze", "analyze-p", "analyze-p-nan", "simulate-overflow",
        "simulate-variance", "simulate-seed", "simulate-w0", "simulate-mean-overflow",
        "tradeoff-w0", "tradeoff-f", "verify-seed"])
def test_failed_command_writes_no_csv(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, blocked", [
    (["simulate", *SIM_ARGS], "doob.csv"),  # the second of three CSVs
    (["verify", "--quick", "--seed", "1"], "errata.csv"),  # exit 1 would read as REGRESSION
    # the last of three, after a 20 000-row curve
    (["analyze", "--p", "0.52", "--grid", "20000"], "entropy.csv"),
], ids=["simulate", "verify", "analyze"])
def test_csv_that_cannot_be_written_leaves_no_csv(tmp_path, capsys, argv, blocked):
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and blocked in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert (tmp_path / blocked).is_dir()


def test_a_write_that_fails_midway_leaves_no_csv(tmp_path, capsys, monkeypatch):
    # the curve is streamed: half of it has passed the file's buffer when the
    # device fills up
    fmt, fields = cli._fmt, []

    def fields_then_a_full_disk(x):
        fields.append(1)
        if len(fields) > 20_000:
            raise OSError(errno.ENOSPC, "No space left on device")
        return fmt(x)

    monkeypatch.setattr("kellybench.cli._fmt", fields_then_a_full_disk)
    assert main(["analyze", "--p", "0.52", "--grid", "20000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "No space left" in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_analyze_memory_is_bounded_by_its_output(tmp_path):
    # rows are formatted and written one at a time: no table is held as one
    # string, nor as a list of rows
    main(["analyze", "--p", "0.52", "--out", str(tmp_path)])  # one-time allocations first
    tracemalloc.start()
    try:
        assert main(["analyze", "--p", "0.52", "--grid", "200000", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "utility_curve.csv").stat().st_size
    assert size > 8 * 10**6
    assert peak <= 2 * size


def test_analyze_grid_is_refused_before_it_is_built(tmp_path, capsys):
    # 10^6 + 1 points would hold 8 MB of F values alone; the guard runs first
    tracemalloc.start()
    try:
        assert main(["analyze", "--p", "0.52", "--grid", "1000001", "--out", str(tmp_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("error: grid of 1000001 points")
    assert peak < 10**6
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------- verify


def test_verify_quick_is_clean(tmp_path, capsys):
    assert main(["verify", "--quick", "--seed", "1", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "errata.csv")
    assert header == ["claim_id", "paper_location", "paper_value", "oracle_value",
                      "gap", "tol", "verdict"]
    verdicts = {r[-1] for r in rows}
    assert verdicts <= {"match", "mismatch"}
    for row in rows:  # every verdict is the registry's one rule, read from its row
        r = dict(zip(header, row))
        assert (r["verdict"] == "match") == (float(r["gap"]) <= float(r["tol"])), r["claim_id"]
    assert "mismatch" in verdicts  # documented inconsistencies are reported, not hidden
    assert "verification clean" in capsys.readouterr().out
    assert hashlib.sha256((tmp_path / "errata.csv").read_bytes()).hexdigest() == ERRATA_SEED_1


def test_explicit_quick_beats_full_in_config(tmp_path, capsys, monkeypatch):
    scales = []

    def record_scale(seed, scale):
        scales.append(scale)
        return [], True

    monkeypatch.setattr("kellybench.verify.run_verification", record_scale)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("full = true\n")
    for flags, scale in (([], "full"), (["--quick"], "quick")):
        argv = ["verify", *flags, "--config", str(cfg), "--out", str(tmp_path / scale)]
        assert main(argv) == 0
        assert f"({scale} scale)" in capsys.readouterr().out
    assert scales == ["full", "quick"]


# -------------------------------------------------------------- start-up


def _run_child(code, *args, **env):
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(kellybench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)


def _hashes(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*.csv")}


_NO_SCIPY_CHILD = """
import sys
import kellybench.cli
kellybench.cli.build_parser()
heavy = ("numpy", "kellybench.martingale_lab", "kellybench.stream", "kellybench.verify")
assert not [m for m in heavy if m in sys.modules], [m for m in heavy if m in sys.modules]
from kellybench.cli import main
out = sys.argv[1]
assert main(["analyze", "--p", "0.52", "--out", out + "/analyze"]) == 0
assert main(["tradeoff", "--p", "0.52", "--out", out + "/tradeoff"]) == 0
assert "numpy" not in sys.modules
assert main(["simulate", *sys.argv[2:], "--out", out + "/simulate"]) == 0
assert main(["verify", "--quick", "--seed", "1", "--out", out + "/verify"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_closed_form_and_simulate_commands_load_no_scipy(tmp_path):
    # importing scipy would take most of a cold start, and verify's enumeration
    # oracles read the package's own integer binomial core instead. NumPy
    # is the larger part of the rest: the parser and the closed-form commands
    # never load it, nor the sampler or the claim registry
    proc = _run_child(_NO_SCIPY_CHILD, str(tmp_path), *SIM_ARGS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # after verify's claim lines
    assert len(list(tmp_path.rglob("*.csv"))) == 8
    # a first call of main in a fresh process, as from a shell, writes the pinned bytes
    for command in ("analyze", "tradeoff", "simulate"):
        assert _hashes(tmp_path / command) == PINNED_CSVS[command][1]
    assert _hashes(tmp_path / "verify") == {"errata.csv": ERRATA_SEED_1}


_ORACLES_NO_NUMPY_CHILD = """
import math, sys
from kellybench import BinomialSpec, covariance_uv, expected_wealth_enumeration, log_mgf, mgf
from kellybench import mgf_bruteforce, net_wins_variance, variance_report
from kellybench.entropy import binomial_entropy_forms
spec = BinomialSpec(N=200, p=0.52)
values = [covariance_uv(200, 0.52), net_wins_variance(200, 0.52), log_mgf(spec, 0.3),
          mgf(spec, 0.3), mgf_bruteforce(spec, 0.3), *binomial_entropy_forms(spec),
          expected_wealth_enumeration(1000.0, 0.52, 0.04, 200),
          variance_report(1000.0, 0.52, 0.04, 200).oracle_exact]
assert all(map(math.isfinite, values)), values
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_enumeration_oracles_load_no_numpy():
    # every sum over the win count is the law's expect in scalar floats
    proc = _run_child(_ORACLES_NO_NUMPY_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


try:  # NumPy's run-time dispatched CPU features, and whether each is on
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_DISPATCH_OFF_CHILD = """
import json, sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from kellybench.cli import main
out, commands = sys.argv[1], json.loads(sys.argv[2])
for name, argv in commands.items():
    assert main([*argv, "--out", out + "/" + name]) == 0
assert main(["verify", "--quick", "--seed", "1", "--out", out + "/verify"]) == 0
print(json.dumps([k for k in __cpu_dispatch__ if __cpu_features__[k]]))
"""


def _warn_without_dispatch():
    if not any(__cpu_features__[k] for k in __cpu_dispatch__):
        warnings.warn(f"this CPU has none of NumPy's dispatched features {list(__cpu_dispatch__)}:"
                      " the child runs the kernels of this process, so the test checks less")


def test_pinned_bytes_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # with every kernel that NumPy picks at run time switched off, the child
    # runs the baseline loops: a pinned byte that came from a SIMD kernel of
    # this CPU (an array power, exp or log) would read differently there
    _warn_without_dispatch()
    commands = {name: argv for name, (argv, _) in PINNED_CSVS.items()}
    proc = _run_child(_DISPATCH_OFF_CHILD, str(tmp_path), json.dumps(commands),
                      NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []  # every one was off in the child
    for name, (_, pins) in PINNED_CSVS.items():
        assert _hashes(tmp_path / name) == pins, name
    assert _hashes(tmp_path / "verify") == {"errata.csv": ERRATA_SEED_1}


ORACLES = ("expected_wealth_enumeration", "variance_report", "mgf_bruteforce", "log_mgf")


def _oracle_hexes() -> list[list[str]]:
    """float.hex of each of ORACLES at 400 seeded games (p, F, N) with
    w0 = 1000 and xi = log(1 - F), or "guard" where it refuses the game."""

    def read(value):
        try:
            return value().hex()
        except kellybench.ResourceGuardError:
            return "guard"

    rng = random.Random(36)
    hexes = []
    for _ in range(400):
        p, F, N = rng.uniform(0.3, 0.95), rng.uniform(0.001, 0.5), rng.randint(1, 1000)
        spec, xi = kellybench.BinomialSpec(N=N, p=p), math.log1p(-F)
        hexes.append([read(lambda: kellybench.expected_wealth_enumeration(1000.0, p, F, N)),
                      read(lambda: kellybench.variance_report(1000.0, p, F, N).oracle_exact),
                      read(lambda: kellybench.mgf_bruteforce(spec, xi)),
                      read(lambda: kellybench.log_mgf(spec, xi))])
    return hexes


_ORACLES_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_cli import __cpu_dispatch__, __cpu_features__, _oracle_hexes
print(json.dumps(_oracle_hexes()))
print(json.dumps([k for k in __cpu_dispatch__ if __cpu_features__[k]]))
"""


def test_oracles_do_not_depend_on_numpy_cpu_dispatch():
    # the enumeration oracles that verify checks the closed forms against
    # take scalar libm calls only, so a child with every dispatched kernel
    # off reads the bytes of this process at every game
    _warn_without_dispatch()
    proc = _run_child(_ORACLES_CHILD, str(Path(__file__).parent),
                      NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    assert proc.returncode == 0, proc.stderr
    child, on = map(json.loads, proc.stdout.splitlines()[-2:])
    assert on == []  # every one was off in the child
    ours = _oracle_hexes()
    moved = {name: sum(a[j] != b[j] for a, b in zip(child, ours)) for j, name in enumerate(ORACLES)}
    assert moved == dict.fromkeys(ORACLES, 0)


# SHA-256 of every CSV each command writes; a refactor must keep these bytes
PINNED_CSVS = {
    "analyze": (["analyze", "--p", "0.52"], {
        "entropy.csv": "a6e759b75b0e46ad9248bc4be44d0d427f85237681c09edb01140a1bfad83377",
        "partition.csv": "4b0059e35c39757933ff232a64a28ca691a923551e01ca423698171aa82a0d17",
        "utility_curve.csv": "945e4dfd4ac3a5874e7725110d207cb44c90408b7a8d8bdc42d81e167ab58ebb",
    }),
    "tradeoff": (["tradeoff", "--p", "0.52"], {
        "tradeoff.csv": "03f982d97056dbf8f9dbe88e21889ada2b9aa21ff992653e6607b87b8a1ef34e",
    }),
    "simulate": (["simulate", *SIM_ARGS], {
        "doob.csv": "968ce72f8a0cfa11ff38405862c5dc2cc28532c9985b9d35368795bcc831cdac",
        "drift.csv": "8b40f83aa6a5d1befa14f7e1c9d6c0b1a326b66e313796c8b70ff9e4e9ca5141",
        "trajectories_summary.csv":
            "560ab66ff4462cb93d32a48e67cab920504e849b912e107af9c15af2caf9eb66",
    }),
    # 4 100 paths and --threads 2, which has no effect; one 4 MB chunk at N = 40
    "simulate-chunks": (["simulate", "--p", "0.52", "--kelly", "--n", "40", "--paths", "4100",
                         "--seed", "5", "--threads", "2"], {
        "doob.csv": "f2b83e923b21169f1f8cb49a982402ff2b1431f563d8afe5002ff56122452328",
        "drift.csv": "3b76257ebbc3979b012204243fbf9401fe20a05a6d10dc3e827495f6e416f0a3",
        "trajectories_summary.csv":
            "81830412ab96fe349c7a8a005016d4384bef1ad183d11302f187443ac38a5994",
    }),
    "simulate-supermartingale": (["simulate", "--p", "0.45", "--stake", "0.1", "--n", "200",
                                  "--paths", "300", "--seed", "2"], {
        "doob.csv": "77a9f446abc028d007ef3127cd70c93adc60c662deccf15546939e5708d709da",
        "drift.csv": "f29db53d6ffad6b9b797063c544fa4dd995a4e061b08f17dcc606be956f44d14",
        "trajectories_summary.csv":
            "14bc9185873ec05a59a12de23943c44c0de64de2de95d61f26ba872f7818e43b",
    }),
    "simulate-zero-stake": (["simulate", "--p", "0.52", "--stake", "0", "--n", "7",
                             "--paths", "300", "--seed", "3"], {
        "doob.csv": "fee72044b192ed24766001a4bd1bff65e4d6e8b200eadfce1ebbf3d09e251184",
        "drift.csv": "19c394b733453e62a9d2eb301e82ef8dbed7ab865f45e3807cb6f10d11b9a704",
        "trajectories_summary.csv":
            "f124b41317199a7d30801f0d218dde8654444fd918e150dd79ee7cdc53a9c200",
    }),
    # a long horizon over three chunks of the 4 MB budget
    "simulate-long": (["simulate", "--p", "0.52", "--kelly", "--n", "5000", "--paths", "200",
                       "--seed", "8"], {
        "doob.csv": "d5bfc365c1f7c0eedbc92dde38f6e2563c83faf98d2f42271dec9e2e92b80b0f",
        "drift.csv": "ffe25a47850c6e1233eb003373e799b37b5442c1a6bf72b1990714dbaee53459",
        "trajectories_summary.csv":
            "0511cf9854d6e4f70aad394f7a63c6aff63a1ba08100f10cf8b1117f648ee3a8",
    }),
    # a stake past 1/3; the other pins stake at most 0.1
    "simulate-large-stake": (["simulate", "--p", "0.6", "--stake", "0.75", "--n", "40",
                              "--paths", "300", "--seed", "6"], {
        "doob.csv": "c4d9dc700d8d2a6d373328cb541724aad5a2805dfda437bd261c015a758bd0ad",
        "drift.csv": "4f49e52f4a7f471d41f197616754225adffed75163191a6a56dc9e3a63f46e6b",
        "trajectories_summary.csv":
            "736b8cf44046a42f95d8080205481a92021aeb8c179d25346b7e170a1e9175b3",
    }),
    # two-thirds Kelly: p(1+F) + q(1-F) and 1 + F(2p-1) differ in the last bit here
    "simulate-fractional": (["simulate", "--p", "0.52", "--fraction", "0.6666666666666666",
                             "--n", "200", "--paths", "300", "--seed", "9"], {
        "doob.csv": "39ec8d718cfef16e2f20d813f9ff06061773e5d4577fbd10905660ed5bbc30b8",
        "drift.csv": "e28681ff318274456e801f20a1812c1d1ca0292f780f7440d0262b5c3be2bf0b",
        "trajectories_summary.csv":
            "ae19348d0f1dd76cd7912b2657f0f8dfa68146e61ee1d89f91385bd1b5dc652f",
    }),
    # two-thirds Kelly over 1 000 steps: M(I) = W(I) g^(-I) by an array power
    # read differently here with and without NumPy's AVX-512 kernels
    "simulate-fractional-wide": (["simulate", "--p", "0.52", "--fraction", "0.6666666666666666",
                                  "--n", "1000", "--paths", "2000"], {
        "doob.csv": "af3d6c26d3fef10bdddb08d3f0d45b4b82d5efafe61fc40b6f51f833d2d7296b",
        "drift.csv": "44f402c90bf22af01f230b819a5863906395391da7d93082e0f640dfad2f714d",
        "trajectories_summary.csv":
            "69ae1ddc68052a4799bdebf1e932eab089427cb718492078419f9faf7e912532",
    }),
    # full stake: a loss factor of +0.0, so every losing path is ruined
    "simulate-full-stake": (["simulate", "--p", "0.98", "--stake", "1", "--n", "20",
                             "--paths", "400", "--seed", "4"], {
        "doob.csv": "ddcb0e259d43efbd7588e1b5978b24c510c1149b2c7722233ad5f55328556b26",
        "drift.csv": "84873c50ab731c7a967769b7bf612a4edc14866b486e2e3f623d678b964ca076",
        "trajectories_summary.csv":
            "2381a6f9c0e37f0aa49366c4c3be93a08e64fe309f73c9f5f02ebb565fe3bc77",
    }),
}


def test_csv_fields_follow_the_value_contract():
    # a string as it is, an integer in full, any other number to 17 digits
    floats = [0.1, np.float64(2.0 / 3.0), np.float32(0.1), math.nan, math.inf, -math.inf,
              -0.0, 5e-324, 1.7976931348623157e308, np.float64(-math.inf)]
    ints = [np.int32(-7), np.int64(2**62 + 1), 2**64 + 1, True]
    row = [*floats, *ints, "match"]
    want = ([format(float(x), ".17g") for x in floats] + [str(int(x)) for x in ints]
            + ["match"])
    f = io.StringIO()
    cli._write_csv(f, [f"c{k}" for k in range(len(row))], iter([row, tuple(row)]))
    header, *lines = f.getvalue().split("\n")
    assert lines == [",".join(want)] * 2 + [""]
    assert want[:9] == ["0.10000000000000001", "0.66666666666666663", "0.10000000149011612",
                        "nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                        "1.7976931348623157e+308"]
    assert want[11:13] == ["4611686018427387905", "18446744073709551617"]


@pytest.mark.parametrize("command", sorted(PINNED_CSVS))
def test_csv_bytes_are_pinned(tmp_path, command):
    argv, pins = PINNED_CSVS[command]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.glob("*.csv")}
    assert written == pins


def test_lane_route_never_probes_the_state_layout(tmp_path, monkeypatch):
    # simulate-chunks is one chunk of 4 100 paths at N = 40, drawn in uint64
    # lanes: no NumPy generator is built, and its private memory is not read
    def no_probe(bit_gen):
        raise AssertionError("the lane route probed PCG64's state layout")

    monkeypatch.setattr(stream, "_pcg64_words", no_probe)
    argv, pins = PINNED_CSVS["simulate-chunks"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.glob("*.csv")}
    assert written == pins
