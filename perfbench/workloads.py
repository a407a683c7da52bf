"""The benchmark workloads: seeded inputs, the CLI call, and output checks.

An operation is one or more `kellybench.cli.main` calls made in-process.
Every input (CLI `--seed`, `--p`) is drawn from the workload seed before any
result is seen; a check that fails on some seed is reported as a failed
operation and never re-drawn.

A workload is a fixed pass of operations drawn once from the workload seed;
a run repeats that pass and ends only at a pass boundary. Outputs are
deterministic, so the share of failed operations depends on the workload
seed alone, not on how many passes fit in the measured time.

Each operation ends in one of three outcomes:

- ok:     every command exited 0 and every output check passed;
- failed: a command exited non-zero or raised, or a statistical gate
          (|z| <= 3, empirical <= Doob bound) or an expected verify verdict
          did not hold;
- wrong:  a command exited 0 but its output is provably wrong: a golden
          hash differs, `--threads 1` and `--threads 2` bytes differ, or a
          CSV is missing or malformed. Any wrong operation makes the run
          incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "goldens" / "closed_form.json"

# closed_form draws P from this even grid over (0.5, 1); the goldens cover it
P_GRID = [f"0.{500 + 5 * k:03d}" for k in range(1, 100)]

SIM_FILES = ("trajectories_summary.csv", "doob.csv", "drift.csv")
Z_GATE = 3.0

# verdict of every registry claim at the commit that defined the benchmark
VERIFY_EXPECTED = {
    "count-moments": "match",
    "count-covariance": "mismatch",
    "net-wins-variance": "mismatch",
    "entropy-max": "match",
    "binomial-entropy-forms": "match",
    "deterministic-entropy": "match",
    "kelly-point": "match",
    "growth-entropy-identity": "match",
    "break-even-root": "match",
    "dominance-in-p": "match",
    "sign-partition": "match",
    "expected-wealth-linear": "match",
    "expected-wealth-product": "mismatch",
    "quadratic-term-example": "match",
    "exponential-growth": "match",
    "kelly-stake-polynomials": "match",
    "one-step-expectation": "mismatch",
    "drift-trichotomy": "match",
    "ruin-law": "match",
    "doob-maximal-inequality": "match",
    "martingale-flatness": "match",
    "pathwise-decomposition": "mismatch",
    "wealth-series": "mismatch",
    "variance-estimate": "mismatch",
    "fractional-kelly": "match",
    "binomial-mgf": "match",
    "complement-typo": "mismatch",
}


@dataclass
class Op:
    """One operation: the commands it runs and what it yields once run."""

    commands: list[tuple[str, list[str]]]  # (label, argv without --out)
    threads: int | None = None
    last_in_pass: bool = False  # a run stops only after a pass is complete
    label: str = ""
    mode: str = "plain"  # plain | traced | alloc (traced under tracemalloc)
    # filled in by run_op
    trace_id: int = -1
    t0: float = 0.0
    t1: float = 0.0
    status: dict[str, object] = field(default_factory=dict)
    outcome: str = ""
    reason: str = ""
    csv_bytes: int = 0

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def call_cli(main, argv: list[str]) -> object:
    """Call `main(argv)` with its console output captured.

    Returns the exit code, the SystemExit code, or the name of the uncaught
    exception, so that a crash counts as a failed operation.
    """
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a crash of the program under test is an outcome
        return type(exc).__name__


def run_op(cli, op: Op, out_root: Path, tracer=None) -> None:
    """Run every command of `op` back to back and time them as one.

    `cli.main` is looked up per call so that a tracer wrapper installed on
    the module attribute is the one called."""
    dirs = {}
    for label, _ in op.commands:
        d = out_root / label
        shutil.rmtree(d, ignore_errors=True)
        dirs[label] = d
    if tracer is not None:
        tracer.begin_op()
        op.trace_id = tracer.op_id
    op.t0 = perf_counter()
    for label, argv in op.commands:
        op.status[label] = call_cli(cli.main, argv + ["--out", str(dirs[label])])
    op.t1 = perf_counter()
    if tracer is not None:
        tracer.end_op(op.t0, op.t1)
    op.csv_bytes = sum(f.stat().st_size for d in dirs.values() if d.is_dir() for f in d.iterdir())


def _read_outputs(d: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())} if d.is_dir() else {}


def _rows(data: bytes) -> list[dict[str, str]]:
    """Parse a CSV; raise ValueError unless it is a rectangular table."""
    reader = csv.reader(io.StringIO(data.decode("ascii")))
    header = next(reader)
    rows = []
    for row in reader:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        rows.append(dict(zip(header, row)))
    return rows


def _numeric_table(data: bytes) -> None:
    for row in _rows(data):
        for value in row.values():
            float(value)


class Workload:
    """Base: draws one pass of operations from the seed, repeats it, and
    checks the outputs."""

    name = ""
    seeds_per_pass = 0  # CLI --seed values drawn once and reused by every pass

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seeds = [self._cli_seed() for _ in range(self.seeds_per_pass)]

    def one_pass(self) -> list[Op]:
        """Fresh `Op`s for one pass; the same inputs on every call."""
        raise NotImplementedError

    def ops(self):
        while True:
            batch = self.one_pass()
            batch[-1].last_in_pass = True
            yield from batch

    def check(self, op: Op, out_root: Path) -> None:
        raise NotImplementedError

    @staticmethod
    def _set(op: Op, outcome: str, reason: str = "") -> None:
        op.outcome, op.reason = outcome, reason

    def _cli_seed(self) -> str:
        return str(self.rng.randrange(1, 2**31))


class Simulate(Workload):
    """Shared checks of `simulate` output: |z| gate and the Doob bound."""

    shape: list[str] = []
    pair_threads = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self._first: dict[str, bytes] | None = None

    def one_pass(self) -> list[Op]:
        batch = []
        for seed in self.seeds:
            argv = ["simulate", *self.shape, "--seed", seed]
            if self.pair_threads:
                batch.append(Op([("sim", argv + ["--threads", "1"])], threads=1,
                                label=f"seed={seed} threads=1"))
                batch.append(Op([("sim", argv + ["--threads", "2"])], threads=2,
                                label=f"seed={seed} threads=2"))
            else:
                batch.append(Op([("sim", argv)], threads=1, label=f"seed={seed}"))
        return batch

    def check(self, op: Op, out_root: Path) -> None:
        files = _read_outputs(out_root / "sim")
        first, self._first = self._first, None
        if op.status["sim"] != 0:
            return self._set(op, "failed", f"exit {op.status['sim']}")
        missing = [f for f in SIM_FILES if f not in files]
        if missing:
            return self._set(op, "wrong", f"missing {missing}")
        try:
            drift = _rows(files["drift.csv"])
            doob = _rows(files["doob.csv"])
            _numeric_table(files["trajectories_summary.csv"])
            z = float(drift[0]["z_score"])
            over = [r["lambda"] for r in doob
                    if float(r["empirical_sup_prob"]) > float(r["doob_bound"])]
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            return self._set(op, "wrong", f"malformed csv: {exc}")
        if self.pair_threads and op.threads == 1:
            self._first = {f: files[f] for f in SIM_FILES}
        if self.pair_threads and op.threads == 2 and first is not None:
            differ = [f for f in SIM_FILES if first[f] != files[f]]
            if differ:
                return self._set(op, "wrong", f"threads 1 vs 2 bytes differ: {differ}")
        if not abs(z) <= Z_GATE:
            return self._set(op, "failed", f"drift |z|={abs(z):.3f} > {Z_GATE}")
        if over:
            return self._set(op, "failed", f"empirical sup prob above Doob bound at lambda {over}")
        self._set(op, "ok")


class McWide(Simulate):
    """100k paths x 50 steps; --threads 1 and 2 alternate on one seed."""

    name = "mc_wide"
    shape = ["--p", "0.52", "--kelly", "--n", "50", "--paths", "100000"]
    pair_threads = True
    seeds_per_pass = 2


class McLong(Simulate):
    """2k paths x 5000 steps at --threads 1."""

    name = "mc_long"
    shape = ["--p", "0.52", "--kelly", "--n", "5000", "--paths", "2000"]
    seeds_per_pass = 10


class VerifyQuick(Workload):
    """verify --quick, one CLI seed per operation."""

    name = "verify_quick"
    seeds_per_pass = 2

    def one_pass(self) -> list[Op]:
        return [Op([("verify", ["verify", "--quick", "--seed", seed])], threads=1,
                   label=f"seed={seed}") for seed in self.seeds]

    def check(self, op: Op, out_root: Path) -> None:
        files = _read_outputs(out_root / "verify")
        if op.status["verify"] != 0:
            return self._set(op, "failed", f"exit {op.status['verify']}")
        if "errata.csv" not in files:
            return self._set(op, "wrong", "missing errata.csv")
        try:
            verdicts = {r["claim_id"]: r["verdict"] for r in _rows(files["errata.csv"])}
        except (ValueError, KeyError, StopIteration) as exc:
            return self._set(op, "wrong", f"malformed errata.csv: {exc}")
        off = [f"{cid}={verdicts.get(cid, 'absent')}" for cid, want in VERIFY_EXPECTED.items()
               if verdicts.get(cid) != want]
        if off:
            return self._set(op, "failed", f"verdicts differ from expected: {off}")
        self._set(op, "ok")


class ClosedForm(Workload):
    """analyze --p P then tradeoff --p P, with P drawn from P_GRID."""

    name = "closed_form"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.golden = json.loads(GOLDEN_PATH.read_text())
        # a pass is a permutation of the whole grid, so every P is equally
        # likely and every pass has the same mix of inputs
        self.order = list(P_GRID)
        self.rng.shuffle(self.order)

    def one_pass(self) -> list[Op]:
        return [Op([("analyze", ["analyze", "--p", p]), ("tradeoff", ["tradeoff", "--p", p])],
                   label=f"p={p}") for p in self.order]

    def check(self, op: Op, out_root: Path) -> None:
        argv = op.commands[0][1]
        p = argv[argv.index("--p") + 1]
        failures = []
        for label, _ in op.commands:
            want = self.golden[p][label]
            status = op.status[label]
            if status != 0:
                known = "known" if status == want["status"] else f"baseline {want['status']}"
                failures.append(f"{label} {status} ({known})")
                continue
            files = _read_outputs(out_root / label)
            for name, digest in want["files"].items():
                if name not in files or hashlib.sha256(files[name]).hexdigest() != digest:
                    return self._set(op, "wrong", f"{label} {name} differs from golden")
            try:
                for name in files.keys() - want["files"].keys():
                    _numeric_table(files[name])
            except (ValueError, StopIteration) as exc:
                return self._set(op, "wrong", f"{label} new output malformed: {exc}")
        if failures:
            return self._set(op, "failed", "; ".join(failures))
        self._set(op, "ok")


WORKLOADS = {w.name: w for w in (McWide, McLong, VerifyQuick, ClosedForm)}
