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

Each command imports what it runs when it runs: building the parser loads
no command module, `analyze` and `tradeoff` never load NumPy, and only
`simulate` and `verify` load it and the sampler.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .errors import DomainError, KellyBenchError, NoEdgeError, ResourceGuardError

_DEFAULT_SEED = 20260823


def _fmt(x) -> str:
    """One CSV field: a string as it is, an integer in full, any other number
    to 17 significant digits."""
    if type(x) is float:  # nearly every field; format(float(x)) in one call
        return format(x, ".17g")
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):  # NumPy integers too; np.bool_ is not one
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(f, header: list[str], rows: Iterable) -> None:
    """Write one table to the text file `f`, a line a row as `rows` yields
    it; the file's own buffer batches the writes, so a long table never
    stands in memory as one string."""
    f.write(",".join(header) + "\n")
    f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("KELLYBENCH_OUT") or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or a path under a file
        raise KellyBenchError(f"output directory {out!r}: {exc.strerror}") from None
    return path


def _load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; unknown keys rejected
    later, at argument application time."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory, unreadable
        raise KellyBenchError(f"config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise KellyBenchError(f"config file {path!r} is not UTF-8 text") from None
    values = {}
    for raw in text.splitlines():
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


# what a command returns for main to write: (file name, header, rows); the
# rows may be any iterable of rows, read once when the table is written
Table = tuple[str, list[str], Iterable]


def cmd_analyze(args, parser) -> tuple[int, list[Table]]:
    """The utility curve, the regime partition (only for p > 1/2) and the
    entropy row."""
    from .entropy import shannon
    from .utility_kelly import kelly_fraction, regime_partition, utility, utility_curve

    p = args.p
    fs, us = utility_curve(p, args.grid)
    tables = [("utility_curve.csv", ["F", "U"], zip(fs, us))]

    if p > 0.5:
        part = regime_partition(p)
        for note in part.notes:
            print(f"partition: {note}", file=sys.stderr)
        tables.append((
            "partition.csv",
            ["p", "f_kelly", "f_star", "f_star_approx", "epsilon"],
            [[p, part.f_kelly, part.f_star, part.f_star_approx, part.epsilon]],
        ))
    else:
        nan_note = "; utility_at_kelly written as nan" if p < 0.5 else ""
        print(f"no positive edge: partition omitted{nan_note}", file=sys.stderr)

    h = shannon(p)
    u_at_kelly = utility(kelly_fraction(p), p) if p >= 0.5 else float("nan")
    tables.append((
        "entropy.csv",
        ["p", "H", "log2_minus_H", "utility_at_kelly"],
        [[p, h, math.log(2.0) - h, u_at_kelly]],
    ))
    return 0, tables


def _resolve_stake(args, parser) -> float:
    from .utility_kelly import kelly_fraction

    modes = [args.kelly, args.fraction is not None, args.stake is not None]
    if sum(modes) != 1:
        parser.error("choose exactly one of --kelly, --fraction, --stake")
    if args.kelly:
        return kelly_fraction(args.p)
    if args.fraction is not None:
        return args.fraction * kelly_fraction(args.p)
    return args.stake


def cmd_simulate(args, parser) -> tuple[int, list[Table]]:
    import numpy as np

    from .martingale_lab import (
        _MIN_DRIFT_PATHS,
        SimConfig,
        doob_decompose,
        empirical_sup_prob,
        log_drift_check,
        simulate,
    )
    from .risk_metrics import _check_variance_fits, doob_bound, expected_wealth_linear

    F = _resolve_stake(args, parser)
    config = SimConfig(
        w0=args.w0, p=args.p, F=F, N=args.n, paths=args.paths,
        seed=args.seed, threads=args.threads,
    )
    # fail before the batch is run: the drift row needs its paths, the bounds
    # below read E[W(cp)], which overflows only if E[W(N)] does, and var_W
    # is Var[W(cp)]
    if config.paths < _MIN_DRIFT_PATHS:
        raise DomainError(
            f"drift check needs >= {_MIN_DRIFT_PATHS} paths, got {config.paths}")
    expected_wealth_linear(config.w0, config.p, F, config.N)
    for cp in config.checkpoints:
        _check_variance_fits(config.w0, config.p, F, cp)
    batch = simulate(config)
    try:
        dec = doob_decompose(batch)
    except DomainError as exc:  # outside the growth regime
        print(f"doob: {exc}; mean_M written as nan", file=sys.stderr)
        dec = None

    lam_ref = args.lam if args.lam is not None else 1.5 * config.w0
    rows = []
    try:
        with np.errstate(over="raise"):  # zero-variance games pass the guards at any w0
            for j, cp in enumerate(batch.checkpoints):
                w_cp = batch.checkpoint_wealth[:, j]
                rows.append([
                    cp,
                    float(np.mean(w_cp)),
                    float(np.var(w_cp, ddof=1)),
                    float(np.mean(dec.martingale_part[:, j])) if dec else float("nan"),
                    empirical_sup_prob(batch, lam_ref, j),
                    doob_bound(config.w0, config.p, F, cp, lam_ref),
                ])
            lam_grid = np.linspace(1.01, 2.0, 20) * config.w0
    except FloatingPointError as exc:
        raise ResourceGuardError(f"simulate summary overflows float64: {exc}") from None
    chk = log_drift_check(config, batch.wins)
    if math.isnan(chk.theory):
        print(f"drift: U(1, {config.p!r}) is -inf at full stake; theory and z_score "
              "written as nan", file=sys.stderr)
    elif math.isnan(chk.z_score):
        print("drift: every surviving path has the same win count; se is 0 and z_score "
              "written as nan", file=sys.stderr)
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
    from .risk_metrics import tradeoff_table

    try:
        f_grid = [float(tok) for tok in args.f.split(",")]
    except ValueError as exc:  # the message names the bad entry
        raise DomainError(f"--f: {exc}") from None
    rows = tradeoff_table(args.p, f_grid, args.n, args.w0)
    return 0, [(
        "tradeoff.csv",
        ["f", "F", "expected_wealth", "volatility", "utility"],
        [[r.f, r.F, r.expected_wealth, r.volatility, r.utility] for r in rows],
    )]


def cmd_verify(args, parser) -> tuple[int, list[Table]]:
    from .verify import run_verification

    scale = "full" if args.full else "quick"
    results, clean = run_verification(args.seed, scale=scale)
    for r in results:
        print(f"{r.verdict:>9}  {r.claim_id}: {r.paper_location}")
    print(f"verification {'clean' if clean else 'REGRESSION'} ({scale} scale)")
    return 0 if clean else 1, [(
        "errata.csv",
        ["claim_id", "paper_location", "paper_value", "oracle_value", "gap", "tol", "verdict"],
        [[r.claim_id, r.paper_location.replace(",", ";"),
          _fmt(r.paper_value).replace(",", ";"), _fmt(r.oracle_value).replace(",", ";"),
          r.gap, r.tol, r.verdict] for r in results],
    )]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellybench",
        description="Kelly-criterion analysis bench for binary Bernoulli games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="utility curve, partition and entropy tables")
    pa.add_argument("--p", type=float)
    pa.add_argument("--grid", type=int, default=1001)
    pa.add_argument("--out", type=str, default=None)
    pa.add_argument("--config", type=str, default=None)
    pa.set_defaults(fn=cmd_analyze, sub_parser=pa)

    ps = sub.add_parser("simulate", help="seeded Monte Carlo wealth trajectories")
    ps.add_argument("--p", type=float)
    ps.add_argument("--kelly", action="store_true")
    ps.add_argument("--fraction", type=float, default=None)
    ps.add_argument("--stake", type=float, default=None)
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--paths", type=int, default=10000)
    ps.add_argument("--w0", type=float, default=1000.0)
    ps.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    ps.add_argument("--threads", type=int, default=1, help="accepted; no effect (one thread)")
    ps.add_argument("--lam", type=float, default=None,
                    help="reference threshold for the per-checkpoint sup table")
    ps.add_argument("--out", type=str, default=None)
    ps.add_argument("--config", type=str, default=None)
    ps.set_defaults(fn=cmd_simulate, sub_parser=ps)

    pt = sub.add_parser("tradeoff", help="fractional-Kelly growth/volatility table")
    pt.add_argument("--p", type=float)
    pt.add_argument("--f", type=str, default="0.5,0.6666666666666666,0.75,1")
    pt.add_argument("--n", type=int, default=1000)
    pt.add_argument("--w0", type=float, default=1000.0)
    pt.add_argument("--out", type=str, default=None)
    pt.add_argument("--config", type=str, default=None)
    pt.set_defaults(fn=cmd_tradeoff, sub_parser=pt)

    pv = sub.add_parser("verify", help="run the claim registry against its oracles")
    mode = pv.add_mutually_exclusive_group()
    # one destination, so an explicit --quick beats `full = true` in --config
    mode.add_argument("--quick", dest="full", action="store_false", default=False)
    mode.add_argument("--full", dest="full", action="store_true", default=False)
    pv.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    pv.add_argument("--out", type=str, default=None)
    pv.add_argument("--config", type=str, default=None)
    pv.set_defaults(fn=cmd_verify, sub_parser=pv)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    written = []
    try:
        if args.config:
            # file values become parser defaults, so explicit flags win by
            # argparse's own rule, even when they repeat the default
            args.sub_parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        # not required of argparse, which checks before the file's defaults apply
        if "p" in vars(args) and args.p is None:
            args.sub_parser.error("the following arguments are required: --p")
        code, tables = args.fn(args, parser)
        # created only once the command returned: a failed command leaves no partial set
        out = _out_dir(args)
        for name, header, rows in tables:
            with open(out / name, "w", encoding="ascii", newline="") as f:
                written.append(f.name)
                _write_csv(f, header, rows)
    except NoEdgeError as exc:
        print(f"no-edge: {exc}", file=sys.stderr)
        return 2
    except (KellyBenchError, OSError) as exc:  # OSError: a CSV that cannot be written
        for path in written:  # a failed write leaves no partial set either
            os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
