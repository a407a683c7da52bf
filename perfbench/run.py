"""kellybench benchmark: drives `kellybench.cli.main` in-process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With one workload, the process runs that workload alone (so its peak RSS is
its own), prints a human-readable report and, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end-to-end metrics; `--trace 1` reports the per-layer metrics
from a run that alternates traced and untraced operations. `--workload all`
(the default) runs every workload, each in a fresh process, and prints
every metric by name and unit.

The program is imported from `src/` next to this directory; nothing is
installed. Scratch output goes to `perfbench/.runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from tracing import Tracer, by_op, layer_metrics, op_profile, self_check, self_times
from workloads import WORKLOADS, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

SETUP_SAMPLES = 3  # fresh interpreters timed per run; the median is reported
IMPORTTIME_SAMPLES = 3

SETUP_CHILD = (
    "import os, sys, time\n"
    "import kellybench.cli\n"
    "kellybench.cli.build_parser()\n"
    "t = time.perf_counter()\n"
    "sys.stdout.write(repr(t) + ' ' + kellybench.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
    "os._exit(0)\n"
)

# the 90th percentile needs at least ten samples beyond it
P90_MIN_OPS = 100


# -- environment ---------------------------------------------------------------
def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read(str(idx / "level")).strip()
        size = _read(str(idx / "size")).strip()
        if level.isdigit() and size and int(level) >= best[0]:
            best = (int(level), f"L{level} {size}")
    return best[1]


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unavailable (not a git checkout)"
    ref = head[5:]
    sha = _read(str(ROOT / ".git" / ref)).strip()
    if not sha:
        for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or "unavailable"


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "llc": _llc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "alloc_note": ("simulate_peak_alloc_mb and simulate_alloc_bytes_per_step are "
                       "tracemalloc peaks of Python-heap allocation inside simulate, "
                       "not hardware memory traffic"),
    }


# -- set-up probes ---------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh_interpreter(extra: list[str]) -> tuple[float, str]:
    """Start a fresh interpreter that imports kellybench.cli and builds the
    parser; return (seconds from spawn to build_parser returning, stderr)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", SETUP_CHILD], env=_child_env(),
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    stamp, origin = proc.stdout.split(" ", 1)
    if not Path(origin.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported kellybench from {origin.strip()}")
    return float(stamp) - t0, proc.stderr


def setup_samples(n: int) -> list[float]:
    return [_fresh_interpreter([])[0] for _ in range(n)]


def import_breakdown(n: int) -> dict[str, float]:
    """Median over n fresh interpreters of the `-X importtime` self time
    summed per top-level package."""
    samples = {"scipy": [], "numpy": [], "kellybench": []}
    for _ in range(n):
        _, err = _fresh_interpreter(["-X", "importtime"])
        self_us = Counter()
        for line in err.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            cols = line[len("import time:"):].split("|")
            self_us[cols[2].strip().split(".")[0]] += int(cols[0])
        for pkg in samples:
            samples[pkg].append(self_us[pkg] / 1e6)
    return {f"setup.import_{pkg}_s": float(median(v)) for pkg, v in samples.items()}


# -- the measured loop -------------------------------------------------------------
def measure(workload, cli, seconds: float, trace: bool, out_root: Path):
    """Repeat the workload's pass for about `seconds`, stopping only at a
    pass boundary, so every run holds whole passes.

    Untraced runs time every operation. Traced runs first run one operation
    under tracemalloc (allocation figures only), then alternate untraced and
    traced passes so that the difference is the tracing overhead.
    """
    tracer = Tracer() if trace else None
    ops = []

    def run(op, mode):
        op.mode = mode
        if mode != "plain":
            tracer.track_alloc = mode == "alloc"
            tracer.install()
        try:
            run_op(cli, op, out_root, tracer if mode != "plain" else None)
        finally:
            if mode != "plain":
                tracer.uninstall()
        workload.check(op, out_root)
        ops.append(op)

    start = perf_counter()
    if trace:
        # a stream of its own, so the alloc operation leaves passes whole
        run(next(workload.ops()), "alloc")
    mode = "plain"
    cycle_start = perf_counter()
    for op in workload.ops():
        run(op, mode)
        if not op.last_in_pass:
            continue
        if trace and mode == "plain":
            mode = "traced"  # every untraced pass is paired with a traced one
            continue
        mode = "plain"
        now = perf_counter()
        elapsed, cycle, cycle_start = now - start, now - cycle_start, now
        # end at the cycle boundary nearest to `seconds`, the last cycle
        # predicting the next one
        if elapsed + cycle / 2 >= seconds:
            break
    return ops, tracer


def end_to_end(ops, setup: list[float]) -> dict[str, float]:
    walls = [o.wall for o in ops if o.outcome == "ok"]
    return {
        "setup_s": float(median(setup)),
        "cmd_s_p50": float(median(walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": len(walls) / len(ops),
    }


def per_layer(ops, tracer: Tracer, imports: dict[str, float]):
    spans = tracer.spans
    selfs = self_times(spans)
    errors = self_check(spans, selfs)
    groups = by_op(spans)
    traced = [o for o in ops if o.mode == "traced" and o.outcome == "ok"]
    plain = [o for o in ops if o.mode == "plain" and o.outcome == "ok"]
    profiles = {id(o): op_profile(groups[o.trace_id], selfs, tracer.counts[o.trace_id])
                for o in traced}
    alloc_spans = [s for o in ops if o.mode == "alloc" for s in groups[o.trace_id]]
    m = dict(imports)
    m.update(layer_metrics(list(profiles.values()), alloc_spans))
    m["cli.csv_bytes"] = float(median(o.csv_bytes for o in traced))
    m["trace.overhead_s"] = float(median(o.wall for o in traced) - median(o.wall for o in plain))
    m["cmd_s_p90"] = (float(quantiles([o.wall for o in plain], n=10, method="inclusive")[8])
                      if len(plain) >= P90_MIN_OPS else 0.0)
    for threads, key in ((1, "steps_per_s"), (2, "steps_per_s_t2")):
        steps = [profiles[id(o)]["sim"]["steps"] for o in traced if o.threads == threads]
        walls = [o.wall for o in plain if o.threads == threads]
        m[key] = float(median(steps) / median(walls)) if steps and walls and median(steps) else 0.0
    return m, errors


# -- reporting -----------------------------------------------------------------------
def _import_program():
    if not (SRC / "kellybench" / "cli.py").is_file():
        raise RuntimeError(f"program source not found at {SRC}/kellybench")
    sys.path.insert(0, str(SRC))
    import kellybench.cli

    if not Path(kellybench.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"kellybench imported from {kellybench.cli.__file__}, not {SRC}")
    return kellybench.cli


def run_one(args) -> int:
    try:
        cli = _import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        setup, imports = [], import_breakdown(IMPORTTIME_SAMPLES)
    else:
        setup, imports = setup_samples(SETUP_SAMPLES), {}

    out_root = RUNS / f"work-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        ops, tracer = measure(workload, cli, args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    # the tracemalloc probe repeats the first input of the pass; leaving it
    # out of the counts keeps the failed share a function of the seed alone
    counted = [o for o in ops if o.mode != "alloc"]
    failed = [o for o in counted if o.outcome != "ok"]
    wrong = [o for o in ops if o.outcome == "wrong"]
    errors = []
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if not any(o.outcome == "ok" for o in ops) or (
            args.trace and not {"plain", "traced"} <= {o.mode for o in ops if o.outcome == "ok"}):
        for reason, k in Counter(o.reason for o in failed).most_common():
            print(f"# failed x{k}: {reason}")
        print("perfbench: no successful operation to time", file=sys.stderr)
        return 1
    if args.trace:
        metrics, errors = per_layer(ops, tracer, imports)
    else:
        metrics = end_to_end(ops, setup)
        print(f"# setup_s samples (fresh interpreters, not in-process): {setup}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {units.keys() ^ metrics.keys()}")
    n_plain = sum(o.mode == "plain" and o.outcome == "ok" for o in ops)
    print(f"# operations: attempted={len(counted)} ok={len(counted) - len(failed)} "
          f"failed={len(failed)} "
          f"(wrong output: {len(wrong)}) by mode {dict(Counter(o.mode for o in ops))}")
    print(f"fail_ratio {len(failed) / len(counted)!r} ratio")
    for reason, k in Counter(o.reason for o in failed).most_common():
        print(f"# failed x{k}: {reason}")
    if tracer is not None:
        print(f"# trace self-check: {len(errors)} of {tracer.op_id + 1} traced operations off")
        for e in errors[:5]:
            print(f"#   {e}")
        if tracer.missing:
            print(f"# trace targets not found: {tracer.missing}")
    for name, value in metrics.items():
        note = f"  (n={n_plain} successful untraced operations)" if name.startswith("cmd_s_") else ""
        print(f"{name} {value!r} {units[name]}{note}")

    RUNS.mkdir(exist_ok=True)
    record = {
        "env": env, "setup_s_samples": setup, "metrics": metrics,
        "ops": [{"mode": o.mode, "label": o.label, "threads": o.threads, "wall_s": o.wall,
                 "status": {k: str(v) for k, v in o.status.items()}, "outcome": o.outcome,
                 "reason": o.reason} for o in ops],
    }
    if tracer is not None:
        record["trace"] = {"installed_on": tracer.installed_on, "missing": tracer.missing,
                           "self_check_errors": errors, "spans": tracer.spans,
                           "counts": {str(k): dict(v) for k, v in tracer.counts.items()}}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")

    result = {
        "correct": not wrong and not errors,
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric by name and unit."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, end="\n\n")
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}: {proc.stderr.strip()[-800:]}",
                  file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<13} {'metric':<46} {'value':>16}  unit")
    for name, res in results.items():
        print(f"{name:<13} {'fail_ratio':<46} {res['failed'] / res['attempted']:>16.6g}  ratio"
              f"  ({res['failed']}/{res['attempted']}, correct={res['correct']})")
        for metric, v in res["metrics"].items():
            print(f"{name:<13} {metric:<46} {v['value']:>16.6g}  {v['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
