"""Spans around the public functions of each kellybench layer.

The tracer wraps functions from outside the package: nothing under `src/`
knows about it. A name bound by `from . import x` is a separate module
attribute, so each wrapper is installed on every `kellybench.*` module
attribute that holds the function (the defining module, the package and
every consumer such as `cli.simulate` or `verify.simulate`); otherwise calls
that cross a layer boundary would not be attributed.

A span is [op id, span id, parent span id, name, start, end, extra]. Spans are
kept in memory and written out once the run ends. The root span of each
operation is named "op" and is timed by the benchmark itself.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from statistics import median

# module -> public functions timed as spans
SPANNED = {
    "kellybench.cli": ("main", "build_parser"),
    "kellybench.verify": ("run_verification",),
    "kellybench.martingale_lab": ("simulate", "log_drift_check", "doob_decompose",
                                  "empirical_sup_prob"),
    "kellybench.risk_metrics": ("tradeoff_table", "variance_report"),
    "kellybench.utility_kelly": ("utility_curve", "regime_partition"),
    "kellybench.entropy": ("shannon",),
    "kellybench.bernoulli_core": ("log_pmf_array",),
}
# called point by point, thousands of times per operation: counted, not spanned
COUNTED = {"kellybench.utility_kelly": ("utility",)}

SIMULATE = "martingale_lab.simulate"


def _short(module: str, fn: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{fn}"


class Tracer:
    """Records spans and call counts for the operations run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.track_alloc = False  # tracemalloc peak inside simulate
        self.installed_on: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- operations --------------------------------------------------------
    def begin_op(self) -> None:
        self._op += 1
        sid = len(self.spans)
        self.spans.append([self._op, sid, None, "op", 0.0, 0.0, None])
        self._stack = [sid]

    def end_op(self, t0: float, t1: float) -> None:
        root = self.spans[self._stack[0]]
        root[4], root[5] = t0, t1
        self._stack = []

    @property
    def op_id(self) -> int:
        return self._op

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [self._op, len(spans), self._stack[-1], name, 0.0, 0.0, None]
            spans.append(rec)
            self._stack.append(rec[1])
            rec[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()

        return spanned

    def _simulate_span(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def spanned(config, *args, **kwargs):
            rec = [self._op, len(spans), self._stack[-1], name, 0.0, 0.0,
                   {"steps": config.paths * config.N, "threads": config.threads}]
            spans.append(rec)
            self._stack.append(rec[1])
            alloc = self.track_alloc
            if alloc:
                tracemalloc.start()
            c0 = time.process_time()
            rec[4] = time.perf_counter()
            try:
                return fn(config, *args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                rec[6]["cpu_s"] = time.process_time() - c0
                if alloc:
                    rec[6]["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return spanned

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[self._op][name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        self.missing = []
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "kellybench" or n.startswith("kellybench."))]
        plan = [(mod, fn, False) for mod, fns in SPANNED.items() for fn in fns]
        plan += [(mod, fn, True) for mod, fns in COUNTED.items() for fn in fns]
        for modname, fn, counted in plan:
            name = _short(modname, fn)
            orig = getattr(sys.modules.get(modname), fn, None)
            if orig is None:
                self.missing.append(name)
                continue
            if counted:
                wrapper = self._counter(name, orig)
            elif name == SIMULATE:
                wrapper = self._simulate_span(name, orig)
            else:
                wrapper = self._span(name, orig)
            homes = []
            for mod in mods:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))
                    homes.append(f"{mod.__name__}.{attr}")
            self.installed_on[name] = homes

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []


# -- analysis ----------------------------------------------------------------
def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append(s)
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered, reach = 0.0, start
        for c in sorted(children[s[1]], key=lambda c: c[4]):
            lo, hi = max(c[4], reach), min(c[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[1]] = (end - start) - covered
    return out


def by_op(spans: list[list]) -> dict[int, list[list]]:
    """Operation id -> its spans, root first."""
    groups: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        groups[s[0]].append(s)
    return groups


def self_check(spans: list[list], selfs: dict[int, float]) -> list[str]:
    """Per operation, the self times of all its spans must sum to its wall
    time. Overlapping siblings, a child outside its parent or a span left
    open breaks the sum; returns one message per operation that fails."""
    errors = []
    for op, group in sorted(by_op(spans).items()):
        root = group[0]
        total = sum(selfs[s[1]] for s in group)
        wall = root[5] - root[4]
        if root[3] != "op" or abs(total - wall) > 1e-9 * (1 + len(group)):
            errors.append(f"op {op}: self times sum to {total!r} s, wall {wall!r} s")
    return errors


def _has_ancestor(span: list, name: str, index: dict[int, list]) -> bool:
    parent = span[2]
    while parent is not None:
        p = index[parent]
        if p[3] == name:
            return True
        parent = p[2]
    return False


def op_profile(group: list[list], selfs: dict[int, float], counts: Counter) -> dict:
    """Per-operation totals: busy time, self time per layer, call counts."""
    index = {s[1]: s for s in group}
    dur: Counter = Counter()
    calls: Counter = Counter(counts)
    layer_self: Counter = Counter()
    sim = {"steps": 0, "wall": 0.0, "cpu": 0.0, "verify_calls": 0, "verify_steps": 0}
    for s in group[1:]:
        dur[s[3]] += s[5] - s[4]
        calls[s[3]] += 1
        layer_self[s[3].split(".", 1)[0]] += selfs[s[1]]
        if s[3] == SIMULATE:
            sim["steps"] += s[6]["steps"]
            sim["wall"] += s[5] - s[4]
            sim["cpu"] += s[6]["cpu_s"]
            if _has_ancestor(s, "verify.run_verification", index):
                sim["verify_calls"] += 1
                sim["verify_steps"] += s[6]["steps"]
    return {"dur": dur, "calls": calls, "self": layer_self, "sim": sim}


# per-layer metric -> figure of op_profile: a span's busy time ("dur") or call
# count ("calls"), a layer's self time ("self"), or a simulate total ("sim")
PER_OP = {
    "cli.main_s": ("dur", "cli.main"),
    "cli.self_s": ("self", "cli"),
    "cli.build_parser_s": ("dur", "cli.build_parser"),
    "verify.run_verification_s": ("dur", "verify.run_verification"),
    "verify.self_s": ("self", "verify"),
    "verify.simulate_calls": ("sim", "verify_calls"),
    "verify.simulate_steps": ("sim", "verify_steps"),
    "martingale_lab.simulate_s": ("dur", SIMULATE),
    "martingale_lab.simulate_calls": ("calls", SIMULATE),
    "martingale_lab.simulate_steps": ("sim", "steps"),
    "martingale_lab.log_drift_check_s": ("dur", "martingale_lab.log_drift_check"),
    "martingale_lab.doob_decompose_s": ("dur", "martingale_lab.doob_decompose"),
    "martingale_lab.empirical_sup_prob_s": ("dur", "martingale_lab.empirical_sup_prob"),
    "martingale_lab.empirical_sup_prob_calls": ("calls", "martingale_lab.empirical_sup_prob"),
    "risk_metrics.tradeoff_table_s": ("dur", "risk_metrics.tradeoff_table"),
    "risk_metrics.variance_report_s": ("dur", "risk_metrics.variance_report"),
    "risk_metrics.variance_report_calls": ("calls", "risk_metrics.variance_report"),
    "utility_kelly.utility_calls": ("calls", "utility_kelly.utility"),
    "utility_kelly.utility_curve_s": ("dur", "utility_kelly.utility_curve"),
    "utility_kelly.regime_partition_s": ("dur", "utility_kelly.regime_partition"),
    "entropy.shannon_s": ("dur", "entropy.shannon"),
    "bernoulli_core.log_pmf_array_s": ("dur", "bernoulli_core.log_pmf_array"),
    "bernoulli_core.log_pmf_array_calls": ("calls", "bernoulli_core.log_pmf_array"),
}


def layer_metrics(profiles: list[dict], alloc_spans: list[list]) -> dict[str, float]:
    """Per-layer metrics: medians over traced operations of per-op figures,
    ratios from sums over them, allocation figures from the tracemalloc op."""
    m = {name: float(median(p[kind][key] for p in profiles)) if profiles else 0.0
         for name, (kind, key) in PER_OP.items()}
    sim_wall = sum(p["sim"]["wall"] for p in profiles)
    sim_steps = sum(p["sim"]["steps"] for p in profiles)
    sim_cpu = sum(p["sim"]["cpu"] for p in profiles)
    m["martingale_lab.simulate_ns_per_step"] = 1e9 * sim_wall / sim_steps if sim_steps else 0.0
    m["martingale_lab.simulate_cpu_per_wall"] = sim_cpu / sim_wall if sim_wall else 0.0
    peak = max((s for s in alloc_spans if s[3] == SIMULATE),
               key=lambda s: s[6]["peak_alloc_b"], default=None)
    m["martingale_lab.simulate_peak_alloc_mb"] = peak[6]["peak_alloc_b"] / 2**20 if peak else 0.0
    m["martingale_lab.simulate_alloc_bytes_per_step"] = (
        peak[6]["peak_alloc_b"] / peak[6]["steps"] if peak else 0.0)
    return m
