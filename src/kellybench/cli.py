"""Command-line bench: CSV emitters and the verification suite.

Commands:

- analyze:  utility curve, regime partition, entropy table for one game
- simulate: seeded wealth trajectories with checkpoint stats, maximal-
            inequality table, and log-drift check
- tradeoff: fractional-Kelly growth/volatility table
- verify:   run the claim registry; exit 1 on any regression

All CSVs are deterministic byte streams for a fixed config and seed:
fixed column order, 17 significant digits, '.' decimal separator, and
'\\n' line endings. The KELLYBENCH_OUT environment variable sets the
default output directory; a flat `key = value` config file may supply
defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import (
    NoEdgeError,
    SimConfig,
    doob_bound,
    doob_decompose,
    empirical_sup_prob,
    expected_wealth_linear,
    kelly_fraction,
    log_drift_check,
    shannon,
    simulate,
    tradeoff_table,
    utility,
    utility_curve,
)
from .errors import KellyBenchError
from .utility_kelly import regime_partition
from .verify import run_verification

_DEFAULT_SEED = 20260823


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("KELLYBENCH_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; unknown keys rejected
    later, at argument application time."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise KellyBenchError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _config_defaults(args) -> dict:
    """The config file's values, converted with the types of their flags."""
    # keys, defaults and value types come from the subcommand's own parser
    parser = args.sub_parser
    declared = {action.dest: action.type for action in parser._actions}
    known = vars(args).keys() - {"command", "config", "fn", "sub_parser"}
    values = {}
    for key, val in _load_config_file(args.config).items():
        if key not in known:
            raise KellyBenchError(f"unknown config key: {key!r}")
        if isinstance(parser.get_default(key), bool):
            if val.lower() not in _BOOLEANS:
                raise KellyBenchError(f"config key {key!r} needs a boolean, got {val!r}")
            values[key] = _BOOLEANS[val.lower()]
        else:
            convert = declared[key]
            try:
                values[key] = convert(val)
            except ValueError:
                raise KellyBenchError(
                    f"config key {key!r} needs a {convert.__name__}, got {val!r}"
                ) from None
    return values


# what a command returns for main to write: (file name, header, rows)
Table = tuple[str, list[str], list[list]]


def cmd_analyze(args, parser) -> tuple[int, list[Table]]:
    p = args.p
    if not (0.0 < p < 1.0):
        parser.error(f"--p must be in (0, 1), got {p}")

    fs, us = utility_curve(p, args.grid)
    tables = [("utility_curve.csv", ["F", "U"], [[f, u] for f, u in zip(fs, us)])]

    if p > 0.5:
        part = regime_partition(p)
        tables.append((
            "partition.csv",
            ["p", "f_kelly", "f_star", "f_star_approx", "epsilon"],
            [[part.p, part.f_kelly, part.f_star, part.f_star_approx, part.epsilon]],
        ))
    else:
        print("no positive edge: partition omitted", file=sys.stderr)

    h = shannon(p)
    u_at_kelly = utility(kelly_fraction(p), p) if p >= 0.5 else float("nan")
    tables.append((
        "entropy.csv",
        ["p", "H", "log2_minus_H", "utility_at_kelly"],
        [[p, h, math.log(2.0) - h, u_at_kelly]],
    ))
    return 0, tables


def _resolve_stake(args, parser) -> float:
    modes = [args.kelly, args.fraction is not None, args.stake is not None]
    if sum(modes) != 1:
        parser.error("choose exactly one of --kelly, --fraction, --stake")
    if args.kelly:
        return kelly_fraction(args.p)
    if args.fraction is not None:
        return args.fraction * kelly_fraction(args.p)
    return args.stake


def cmd_simulate(args, parser) -> tuple[int, list[Table]]:
    F = _resolve_stake(args, parser)
    config = SimConfig(
        w0=args.w0, p=args.p, F=F, N=args.n, paths=args.paths,
        seed=args.seed, threads=args.threads,
    )
    # the bounds below read E[W(cp)], which overflows only if E[W(N)] does:
    # fail on that before the batch is run
    expected_wealth_linear(config.w0, config.p, F, config.N)
    batch = simulate(config)
    dec = None
    if config.p > 0.5 and utility(F, config.p) >= 0.0:
        dec = doob_decompose(batch)

    lam_ref = args.lam if args.lam is not None else 1.5 * config.w0
    rows = []
    for j, cp in enumerate(batch.checkpoints):
        w_cp = batch.checkpoint_wealth[:, j]
        rows.append([
            cp,
            float(np.mean(w_cp)),
            float(np.var(w_cp, ddof=1)),
            float(np.mean(dec.martingale_part[:, j])) if dec is not None else float("nan"),
            float(np.mean(batch.checkpoint_running_max[:, j] >= lam_ref)),
            doob_bound(config.w0, config.p, F, cp, lam_ref),
        ])
    lam_grid = np.linspace(1.01, 2.0, 20) * config.w0
    chk = log_drift_check(batch)
    return 0, [
        ("trajectories_summary.csv",
         ["I", "mean_W", "var_W", "mean_M", "empirical_sup_prob", "doob_bound"], rows),
        ("doob.csv", ["lambda", "empirical_sup_prob", "doob_bound"],
         [[lam, empirical_sup_prob(batch, lam), doob_bound(config.w0, config.p, F, config.N, lam)]
          for lam in lam_grid]),
        ("drift.csv", ["empirical_drift", "se", "theory", "z_score", "excluded_ruined"],
         [[chk.empirical_drift, chk.se, chk.theory, chk.z_score, chk.excluded_ruined]]),
    ]


def cmd_tradeoff(args, parser) -> tuple[int, list[Table]]:
    f_grid = [float(tok) for tok in args.f.split(",")]
    rows = tradeoff_table(args.p, f_grid, args.n, args.w0)
    return 0, [(
        "tradeoff.csv",
        ["f", "F", "expected_wealth", "volatility", "utility"],
        [[r.f, r.F, r.expected_wealth, r.volatility, r.utility] for r in rows],
    )]


def cmd_verify(args, parser) -> tuple[int, list[Table]]:
    scale = "full" if args.full else "quick"
    results, clean = run_verification(args.seed, scale=scale)
    for r in results:
        print(f"{r.verdict:>9}  {r.claim_id}: {r.paper_location}")
    print(f"verification {'clean' if clean else 'REGRESSION'} ({scale} scale)")
    return 0 if clean else 1, [(
        "errata.csv",
        ["claim_id", "paper_location", "paper_value", "oracle_value", "rel_gap", "verdict"],
        [[r.claim_id, r.paper_location.replace(",", ";"),
          _fmt(r.paper_value).replace(",", ";"), _fmt(r.oracle_value).replace(",", ";"),
          r.rel_gap, r.verdict] for r in results],
    )]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellybench",
        description="Kelly-criterion analysis bench for binary Bernoulli games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="utility curve, partition and entropy tables")
    pa.add_argument("--p", type=float, required=True)
    pa.add_argument("--grid", type=int, default=1001)
    pa.add_argument("--out", type=str, default=None)
    pa.add_argument("--config", type=str, default=None)
    pa.set_defaults(fn=cmd_analyze, sub_parser=pa)

    ps = sub.add_parser("simulate", help="seeded Monte Carlo wealth trajectories")
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--kelly", action="store_true")
    ps.add_argument("--fraction", type=float, default=None)
    ps.add_argument("--stake", type=float, default=None)
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--paths", type=int, default=10000)
    ps.add_argument("--w0", type=float, default=1000.0)
    ps.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--lam", type=float, default=None,
                    help="reference threshold for the per-checkpoint sup table")
    ps.add_argument("--out", type=str, default=None)
    ps.add_argument("--config", type=str, default=None)
    ps.set_defaults(fn=cmd_simulate, sub_parser=ps)

    pt = sub.add_parser("tradeoff", help="fractional-Kelly growth/volatility table")
    pt.add_argument("--p", type=float, required=True)
    pt.add_argument("--f", type=str, default="0.5,0.6666666666666666,0.75,1")
    pt.add_argument("--n", type=int, default=1000)
    pt.add_argument("--w0", type=float, default=1000.0)
    pt.add_argument("--out", type=str, default=None)
    pt.add_argument("--config", type=str, default=None)
    pt.set_defaults(fn=cmd_tradeoff, sub_parser=pt)

    pv = sub.add_parser("verify", help="run the claim registry against its oracles")
    mode = pv.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True)
    mode.add_argument("--full", action="store_true", default=False)
    pv.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    pv.add_argument("--out", type=str, default=None)
    pv.add_argument("--config", type=str, default=None)
    pv.set_defaults(fn=cmd_verify, sub_parser=pv)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values become parser defaults, so explicit flags win by
            # argparse's own rule, even when they repeat the default
            args.sub_parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        code, tables = args.fn(args, parser)
    except NoEdgeError as exc:
        print(f"no-edge: {exc}", file=sys.stderr)
        return 2
    except KellyBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # written only once the command returned: a failed command leaves no partial set
    out = _out_dir(args)
    for name, header, rows in tables:
        _write_csv(out / name, header, rows)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
