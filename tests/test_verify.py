"""The claim registry's rows: the draws of its Monte Carlo rows and the
accuracy of its enumeration oracles."""

import math
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kellybench import (
    DomainError,
    SimConfig,
    doob_bound,
    doob_decompose,
    empirical_sup_prob,
    f_star,
    kelly_fraction,
    log_drift_check,
    simulate,
    verify,
)
from kellybench.martingale_lab import _ruined
from kellybench.verify import _CLAIMS, SCALES, Run, _evaluate

SHARED_ROWS = ("drift-trichotomy", "doob-maximal-inequality", "martingale-flatness")


def claim(claim_id):
    return next(c for c in _CLAIMS if c.claim_id == claim_id)


@pytest.mark.parametrize("claim_id", ["drift-trichotomy", "ruin-law"])
def test_win_count_rows_draw_no_wealth(monkeypatch, claim_id):
    # neither row draws on its own: both read the win counts of the run's
    # shared batch, drawn once for them and the Doob and flatness rows
    draws = []

    def recording_simulate(config, checkpoints=None):
        draws.append((config, checkpoints))
        return simulate(config, checkpoints=checkpoints)

    monkeypatch.setattr(verify, "simulate", recording_simulate)
    run = Run(SCALES["quick"], 1)
    result = _evaluate(claim(claim_id), run)
    assert result.verdict == claim(claim_id).expected
    assert [cps for _, cps in draws] == [verify._SHARED_CHECKPOINTS]
    for other in SHARED_ROWS:
        _evaluate(claim(other), run)
    assert len(draws) == 1
    if claim_id == "ruin-law":
        # the batch's wins at I = 50 are the full-stake draw of N = 50, so the
        # row reads what a draw of its own would give. At p = 0.52 every path
        # is ruined either way, so the wins that the row reads are compared too
        read = []

        def recording_ruined(cfg, wins):
            read.append(wins)
            return _ruined(cfg, wins)

        monkeypatch.setattr(verify, "_ruined", recording_ruined)
        for seed in (1, 7):
            cfg = SimConfig(w0=1.0, p=0.52, F=1.0, N=50, paths=SCALES["quick"].paths,
                            seed=seed)
            own = simulate(cfg, checkpoints=()).wins
            r = _evaluate(claim(claim_id), Run(SCALES["quick"], seed))
            assert r.oracle_value == float(np.mean(own < cfg.N))
            assert np.array_equal(read.pop(), own)
        # the whole quick run: the shared batch and the pathwise row's 200 x 20
        draws.clear()
        verify.run_verification(1, "quick")
        assert len(draws) == 2
        assert sum(cfg.paths * cfg.N for cfg, _ in draws) == 6_004_000


def own_rows(scale, seed):
    """The three shared rows, each computed from its own batch of its own config."""
    p, paths = 0.52, scale.paths
    base = SimConfig(w0=1.0, p=p, F=kelly_fraction(p), N=scale.N, paths=paths, seed=seed)
    wins = simulate(base, checkpoints=()).wins
    zs, signs_ok = [], True
    for F, want in ((kelly_fraction(p), 1), (f_star(p), 0), (0.2, -1)):
        chk = log_drift_check(replace(base, F=F), wins)
        zs.append(abs(chk.z_score))
        if want:
            signs_ok &= want * chk.empirical_drift > 3 * chk.se
    drift = ("z within 3", max(zs), max(zs) if signs_ok else math.inf)

    cfg = SimConfig(w0=1.0, p=p, F=0.04, N=200, paths=paths, seed=seed)
    batch = simulate(cfg)
    bounds = [(lam, doob_bound(1.0, p, 0.04, 200, lam)) for lam in np.linspace(1.01, 2.0, 20)]
    worst = max(empirical_sup_prob(batch, lam) - b for lam, b in bounds if b < 1.0)
    doob = ("<= 0", worst, worst)

    dec = doob_decompose(simulate(replace(cfg, N=100)))
    worst = 0.0
    for col in dec.martingale_part.T:
        se = float(np.std(col, ddof=1) / math.sqrt(col.size))
        worst = max(worst, abs(float(np.mean(col)) - 1.0) / se)
    flat = ("z within 3", worst, worst)
    return dict(zip(SHARED_ROWS, (drift, doob, flat)))


def test_shared_rows_equal_their_own_draws():
    # seed 7 is pinned nowhere else: each row read from the shared batch is
    # the row its own batch gives, to the byte
    run = Run(SCALES["quick"], 7)
    for claim_id, (paper, oracle, gap) in own_rows(SCALES["quick"], 7).items():
        r = _evaluate(claim(claim_id), run)
        assert (r.paper_value, r.oracle_value, r.gap, r.verdict) == (
            paper, oracle, gap, "match" if gap <= claim(claim_id).tol else "mismatch"), claim_id


def test_registry_rows_are_well_formed():
    ids = [c.claim_id for c in _CLAIMS]
    assert len(set(ids)) == len(ids)
    for c in _CLAIMS:
        assert c.expected in ("match", "mismatch"), c.claim_id
        assert isinstance(c.tol, (int, float)) and math.isfinite(c.tol) and c.tol >= 0, c.claim_id


def test_unknown_scale_is_refused():
    with pytest.raises(ValueError, match="unknown scale"):
        verify.run_verification(1, scale="medium")


def test_break_even_row_needs_a_root(monkeypatch):
    # a stake 1e-6 off the root leaves |U| near 4e-8, so the series is not
    # checked against it: the row's gap is inf, whatever epsilon reads
    off = f_star(0.52) + 1e-6
    monkeypatch.setattr(verify, "f_star", lambda p: off)
    r = _evaluate(claim("break-even-root"), Run(SCALES["quick"], 1))
    assert (r.gap, r.verdict) == (math.inf, "mismatch")


def test_doob_row_reads_its_bound(monkeypatch):
    # the worst gap is taken where the bound is below 1, so a bound of the
    # wrong horizon moves the row's value, and a bound of 1 everywhere leaves
    # the row nothing to check
    run = Run(SCALES["quick"], 1)
    doob = claim("doob-maximal-inequality")
    right = _evaluate(doob, run).oracle_value
    monkeypatch.setattr(verify, "doob_bound",
                        lambda w0, p, F, N, lam: doob_bound(w0, p, F, N + 100, lam))
    assert _evaluate(doob, run).oracle_value < right - 0.1
    monkeypatch.setattr(verify, "doob_bound", lambda w0, p, F, N, lam: 1.0)
    with pytest.raises(DomainError, match="no lambda"):
        _evaluate(doob, run)


def rational_moments(N, p, f):
    """Mean and variance of f(U), U ~ Binomial(N, p), in the exact rationals of
    the float inputs."""
    pr = Fraction(p)
    probs = [math.comb(N, k) * pr**k * (1 - pr) ** (N - k) for k in range(N + 1)]
    values = [f(k) for k in range(N + 1)]
    mean = sum(P * x for P, x in zip(probs, values))
    return mean, sum(P * x * x for P, x in zip(probs, values)) - mean * mean


def wealth(w0, F, N):
    return lambda k: Fraction(w0) * (1 + Fraction(F)) ** k * (1 - Fraction(F)) ** (N - k)


@pytest.mark.parametrize("claim_id, exact", [
    ("count-covariance", lambda: -rational_moments(10, 0.52, Fraction)[1]),  # COV(U, N-U)
    ("net-wins-variance", lambda: rational_moments(10, 0.52, lambda k: 2 * k - 10)[1]),
    ("expected-wealth-linear", lambda: rational_moments(20, 0.52, wealth(1000.0, 0.04, 20))[0]),
    ("expected-wealth-product", lambda: rational_moments(20, 0.52, wealth(1000.0, 0.2, 20))[0]),
    ("variance-estimate", lambda: rational_moments(100, 0.52, wealth(1000.0, 0.04, 100))[1]),
])
def test_enumeration_oracles_agree_with_rational_enumeration(claim_id, exact):
    oracle = _evaluate(claim(claim_id), Run(SCALES["quick"], 1)).oracle_value
    truth = exact()
    assert abs(Fraction(oracle) - truth) <= Fraction(1e-14) * abs(truth)


def test_readme_findings_table_is_the_registry():
    # one row a claim, in the registry's order, with its expected verdict:
    # a new row or a flipped expectation fails until the README says so
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    findings = readme.split("\n## Findings\n", 1)[1].split("\n## ", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in findings.splitlines()
            if re.match(r"\| [1-5E] \|", line)]
    assert all(len(cells) == 5 for cells in rows)
    pairs = [(cells[1].strip().strip("`"), cells[3].strip()) for cells in rows]
    assert pairs == [(c.claim_id, c.expected) for c in _CLAIMS]
