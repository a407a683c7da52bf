"""Release gate: every claim-registry row at full scale, one printed verdict each.

Each registry case evaluates one row of `kellybench.verify` on one run at the
full scale with the gate's seed, which every case shares as `verify --full`
does, and asserts the verdict the row expects, documented
mismatches included: a published error that starts to "match" fails the gate
as surely as a regression. Three rows run under the criterion names they had
before the registry existed; criteria 9 and 11 check properties no registry
row states. Run with `pytest tests/test_acceptance.py -v -s` to see the
PASS/FAIL line of every check as it completes.
"""

import math

import numpy as np
import pytest

from kellybench import SimConfig, simulate, variance_report
from kellybench.cli import main
from kellybench.verify import _CLAIMS, SCALES, Run, _evaluate

SEED = 424242
THREADS = 4

# registry rows gated under their criterion test names below
_NAMED_ROWS = ("drift-trichotomy", "doob-maximal-inequality", "martingale-flatness")


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_run() -> Run:
    # one registry run for every row, as `verify --full` makes: the drift, Doob
    # and flatness rows read its one shared batch, drawn by the first of them
    return Run(SCALES["full"], SEED)


def gate(run: Run, claim_id: str) -> None:
    claim = next(c for c in _CLAIMS if c.claim_id == claim_id)
    r = _evaluate(claim, run)
    report(claim_id, r.verdict == claim.expected,
           f"{r.verdict}, expected {claim.expected} (paper {r.paper_value}, "
           f"oracle {r.oracle_value}, gap {r.gap:.3g}, tol {r.tol:.3g})")


@pytest.mark.parametrize(
    "claim_id", [c.claim_id for c in _CLAIMS if c.claim_id not in _NAMED_ROWS]
)
def test_registry_claim(full_run, claim_id):
    gate(full_run, claim_id)


def test_criterion_05_drift_trichotomy(full_run):
    gate(full_run, "drift-trichotomy")


def test_criterion_07_doob_maximal_inequality(full_run):
    gate(full_run, "doob-maximal-inequality")


def test_criterion_08_martingale_flatness(full_run):
    gate(full_run, "martingale-flatness")


def test_criterion_09_variance_reporting():
    N, p, F, paths = 100, 0.52, 0.04, 100_000
    rep = variance_report(1000.0, p, F, N)
    ok = rep.oracle_exact > 0.0
    notes = [f"paper {rep.paper_estimate:.6g}, oracle {rep.oracle_exact:.6g}"]
    for seed in (SEED, SEED + 1):
        batch = simulate(SimConfig(w0=1000.0, p=p, F=F, N=N, paths=paths,
                                   seed=seed, threads=THREADS))
        w = batch.checkpoint_wealth[:, -1]
        sample_var = float(np.var(w, ddof=1))
        m4 = float(np.mean((w - np.mean(w)) ** 4))
        se = math.sqrt((m4 - sample_var**2) / paths)
        ok &= abs(sample_var - rep.oracle_exact) < 5.0 * se
        notes.append(f"seed {seed}: MC var {sample_var:.6g}")
    report("variance report stable and oracle-consistent", ok, "; ".join(notes))


def test_criterion_11_reproducibility(tmp_path):
    # 5 000 paths of 500 steps span six 4 MB chunks, so bytes are compared across chunks too
    args = ["simulate", "--p", "0.52", "--kelly", "--n", "500", "--paths", "5000",
            "--seed", str(SEED)]
    outs = [tmp_path / n for n in ("a", "b", "c")]
    main([*args, "--out", str(outs[0])])
    main([*args, "--out", str(outs[1])])
    main([*args, "--threads", "4", "--out", str(outs[2])])
    ok = True
    for name in ("trajectories_summary.csv", "doob.csv", "drift.csv"):
        ref = (outs[0] / name).read_bytes()
        ok &= (outs[1] / name).read_bytes() == ref
        ok &= (outs[2] / name).read_bytes() == ref
    report("byte-identical CSVs across runs and thread counts", ok, "3 CSVs x 3 runs")
