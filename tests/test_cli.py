"""End-to-end checks of the kellybench command and its CSV contracts."""

import hashlib
import math

import pytest

from kellybench import utility
from kellybench.cli import main

SIM_ARGS = ["--p", "0.52", "--kelly", "--n", "128", "--paths", "600", "--seed", "7"]


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
    assert "partition omitted" in capsys.readouterr().err


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
    ["analyze", "--p", "0.9"],  # series estimate of F* invalid at this edge
    ["simulate", "--p", "0.9", "--stake", "0.8", "--n", "5000", "--paths", "200"],  # E[W] overflows
], ids=["simulate", "analyze", "simulate-overflow"])
def test_failed_command_writes_no_csv(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


# --------------------------------------------------------------- verify


def test_verify_quick_is_clean(tmp_path, capsys):
    assert main(["verify", "--quick", "--seed", "1", "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "errata.csv")
    assert header == ["claim_id", "paper_location", "paper_value", "oracle_value",
                      "rel_gap", "verdict"]
    verdicts = {r[-1] for r in rows}
    assert verdicts <= {"match", "mismatch"}
    assert "mismatch" in verdicts  # documented inconsistencies are reported, not hidden
    assert "verification clean" in capsys.readouterr().out
    # refactors of the registry must keep the errata bytes of this seed
    assert hashlib.sha256((tmp_path / "errata.csv").read_bytes()).hexdigest() == (
        "d721e88423e6bcf14503b7da5c0d3d678dff49e970cff2f92c1d4345beb2cc7a"
    )


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
            "afb4ce19a5e80c737524697de105c824dcce9874ed3dbeaf9bd427157e1d6591",
    }),
}


@pytest.mark.parametrize("command", sorted(PINNED_CSVS))
def test_csv_bytes_are_pinned(tmp_path, command):
    argv, pins = PINNED_CSVS[command]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.glob("*.csv")}
    assert written == pins
