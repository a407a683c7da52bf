"""Claim registry and verification suite.

Every published formula this package implements is checked here against an
independent oracle (enumeration, brute-force summation, finite differences,
or seeded Monte Carlo). Each claim is one row of `_CLAIMS`, which states its
expected verdict once; claims fall into two classes:

- expected "match": the formula agrees with its oracle; a failure here is a
  regression and flips the process exit code.
- expected "mismatch": a documented internal inconsistency of the source
  material (e.g. the zero-covariance assumption against complementary
  counts). These are reported, never silently corrected, and do not fail
  the run.

The acceptance gate (tests/test_acceptance.py) evaluates every row at the
full scale and asserts its expected verdict, mismatches included, so a
claim's config, tolerance and expected verdict are written only here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import (
    BinomialSpec,
    CovarianceModel,
    SimConfig,
    TrialCounts,
    conditional_growth_factor,
    covariance_uv,
    doob_bound,
    doob_decompose,
    empirical_sup_prob,
    expected_wealth_enumeration,
    expected_wealth_exponential,
    expected_wealth_linear,
    expected_wealth_product,
    f_star,
    f_star_approx,
    fractional_plan,
    kelly_fraction,
    log_drift_check,
    mgf,
    mgf_bruteforce,
    moments,
    net_wins_variance,
    pmf_array,
    ruin_probability_full_stake,
    shannon,
    simulate,
    utility,
    utility_derivatives,
    utility_dominance,
    utility_entropy_identity,
    variance_report,
    wealth_approx,
)
from .entropy import binomial_entropy_forms


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    paper_location: str
    paper_value: float | str
    oracle_value: float | str
    rel_gap: float
    verdict: str  # match | mismatch


@dataclass(frozen=True)
class Scale:
    paths: int
    N: int


@dataclass(frozen=True)
class Claim:
    """One registry row; its verdict is "match" exactly when the check holds."""

    claim_id: str
    paper_location: str
    expected: str  # match | mismatch
    check: Callable[[Scale, int], tuple]  # -> (paper, oracle, rel_gap, holds)


SCALES = {
    "quick": Scale(paths=20_000, N=300),
    "full": Scale(paths=100_000, N=1000),
}


def _rel(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


def _close(paper: float, oracle: float, tol: float) -> tuple:
    """The check of a claim that a published value equals its oracle within tol."""
    gap = _rel(paper, oracle)
    return paper, oracle, gap, gap <= tol


def _claim_count_moments(scale: Scale, seed: int) -> tuple:
    spec = BinomialSpec(N=20, p=0.52)
    probs = pmf_array(spec)
    alpha = np.arange(21, dtype=float)
    mean = float(np.dot(alpha, probs))
    var = float(np.dot(alpha * alpha, probs)) - mean * mean
    m = moments(spec)
    gap = max(_rel(m.mean, mean), _rel(m.variance, var))
    return (f"mean={m.mean:.6g},var={m.variance:.6g}", f"mean={mean:.6g},var={var:.6g}",
            gap, gap <= 1e-12)


def _claim_covariance(scale: Scale, seed: int) -> tuple:
    return _close(0.0, covariance_uv(10, 0.52, CovarianceModel.COMPLEMENTARY), 1e-12)


def _claim_net_wins_variance(scale: Scale, seed: int) -> tuple:
    paper = net_wins_variance(10, 0.52, CovarianceModel.PAPER_INDEPENDENT)
    oracle = net_wins_variance(10, 0.52, CovarianceModel.COMPLEMENTARY)
    return _close(paper, oracle, 1e-12)


def _claim_entropy_max(scale: Scale, seed: int) -> tuple:
    h = shannon(0.5)
    d = (shannon(0.5 + 1e-6) - shannon(0.5 - 1e-6)) / 2e-6
    gap = max(_rel(h, math.log(2.0)), abs(d))
    return math.log(2.0), h, gap, gap <= 1e-9


def _claim_binomial_entropy(scale: Scale, seed: int) -> tuple:
    direct, expanded = binomial_entropy_forms(BinomialSpec(N=12, p=0.52))
    return _close(expanded, direct, 1e-10)


def _claim_entropy_p1(scale: Scale, seed: int) -> tuple:
    direct, _ = binomial_entropy_forms(BinomialSpec(N=8, p=1.0))
    # source text appends a stray "= beta"; the computed value is 0
    return 0.0, direct, abs(direct), abs(direct) <= 1e-15


def _claim_kelly_point(scale: Scale, seed: int) -> tuple:
    fk = kelly_fraction(0.52)
    d1 = utility_derivatives(fk, 0.52).first
    gap = max(abs(fk - 0.04), abs(d1))
    return 0.04, fk, gap, gap <= 1e-12


def _claim_entropy_identity(scale: Scale, seed: int) -> tuple:
    chk = utility_entropy_identity(0.52)
    return _close(chk.lhs, chk.rhs, 1e-12)


def _claim_break_even_root(scale: Scale, seed: int) -> tuple:
    root = f_star(0.52)
    series = f_star_approx(0.52)
    u_at_root = utility(root, 0.52)
    ok = abs(u_at_root) < 1e-12 and abs(series.epsilon - 0.0001714) / 0.0001714 < 0.1
    return series.approx, root, _rel(series.approx, root), ok


def _claim_dominance(scale: Scale, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(1000):
        p_hat = rng.uniform(0.5 + 1e-6, 0.99)
        p = rng.uniform(p_hat + 1e-9, 1.0 - 1e-9)
        F = rng.uniform(1e-9, 1.0 - 1e-9)
        worst = min(worst, utility_dominance(F, p, p_hat))
    return "> 0", worst, 0.0, worst > 0.0


def _claim_sign_partition(scale: Scale, seed: int) -> tuple:
    p = 0.6
    root = f_star(p)
    fs = np.linspace(1e-6, 1.0 - 1e-9, 2000)
    us = np.array([utility(float(f), p) for f in fs])
    h = fs[1] - fs[0]
    ok = bool(np.all(us[fs < root - h] > 0.0) and np.all(us[fs > root + h] < 0.0))
    return "sign trichotomy", "grid verified" if ok else "violated", 0.0, ok


def _claim_linear_expectation(scale: Scale, seed: int) -> tuple:
    game = (1000.0, 0.52, 0.04, 20)
    return _close(expected_wealth_linear(*game), expected_wealth_enumeration(*game), 1e-10)


def _claim_product_expectation(scale: Scale, seed: int) -> tuple:
    game = (1000.0, 0.52, 0.2, 20)
    return _close(expected_wealth_product(*game), expected_wealth_enumeration(*game), 1e-10)


def _claim_pqf2_example(scale: Scale, seed: int) -> tuple:
    p, F = 0.51, 0.02
    return _close(0.00009996, p * (1 - p) * F * F, 1e-10)


def _claim_exponential_growth(scale: Scale, seed: int) -> tuple:
    game = (1000.0, 0.52, 0.04, 100)
    return _close(expected_wealth_exponential(*game), expected_wealth_linear(*game), 0.01)


def _claim_growth_factor_polynomials(scale: Scale, seed: int) -> tuple:
    p = 0.52
    fk = kelly_fraction(p)
    lin = 1.0 + fk * (2 * p - 1)
    prod = (1.0 + p * fk) * (1.0 - (1 - p) * fk)
    poly_lin = 4 * p * p - 4 * p + 2
    poly_prod = 4 * p**4 - 8 * p**3 + 9 * p * p - 5 * p + 2
    gap = max(_rel(lin, poly_lin), _rel(prod, poly_prod))
    return f"{poly_lin:.12g},{poly_prod:.12g}", f"{lin:.12g},{prod:.12g}", gap, gap <= 1e-12


def _claim_one_step_ratio(scale: Scale, seed: int) -> tuple:
    # g > 1 for any F > 0 at p > 1/2: the raw-wealth supermartingale
    # labelling cannot hold at the one-step expectation level
    g = conditional_growth_factor(0.52, 0.2)
    return "<= 1 (claimed)", g, abs(g - 1.0), g <= 1.0


def _claim_drift_trichotomy(scale: Scale, seed: int) -> tuple:
    p = 0.52
    zs = []
    signs_ok = True
    for F, want in ((kelly_fraction(p), 1), (f_star(p), 0), (0.2, -1)):
        cfg = SimConfig(w0=1.0, p=p, F=F, N=scale.N, paths=scale.paths, seed=seed)
        chk = log_drift_check(simulate(cfg))
        zs.append(abs(chk.z_score))
        if want > 0:
            signs_ok &= chk.empirical_drift > 3 * chk.se
        elif want < 0:
            signs_ok &= chk.empirical_drift < -3 * chk.se
    return "z within 3", max(zs), 0.0, signs_ok and max(zs) <= 3.0


def _claim_ruin_law(scale: Scale, seed: int) -> tuple:
    p, N = 0.52, 50
    cfg = SimConfig(w0=1.0, p=p, F=1.0, N=N, paths=scale.paths, seed=seed)
    batch = simulate(cfg)
    emp = float(np.mean(batch.ruined))
    theory = ruin_probability_full_stake(p, N)
    se = math.sqrt(theory * (1 - theory) / scale.paths)
    return theory, emp, _rel(theory, emp), abs(emp - theory) <= 3 * se


def _claim_doob_inequality(scale: Scale, seed: int) -> tuple:
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=200, paths=scale.paths, seed=seed)
    batch = simulate(cfg)
    lam_grid = np.linspace(1.01, 2.0, 20)
    worst = -math.inf
    for lam in lam_grid:
        bound = doob_bound(cfg.w0, cfg.p, cfg.F, cfg.N, lam)
        worst = max(worst, empirical_sup_prob(batch, lam) - bound)
    return "<= 0", worst, 0.0, worst <= 0.0


def _claim_martingale_flatness(scale: Scale, seed: int) -> tuple:
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=100, paths=scale.paths, seed=seed)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    worst = 0.0
    for j in range(len(dec.checkpoints)):
        col = dec.martingale_part[:, j]
        se = float(np.std(col, ddof=1) / math.sqrt(col.size))
        worst = max(worst, abs(float(np.mean(col)) - cfg.w0) / se)
    return "z within 3", worst, 0.0, worst <= 3.0


def _claim_pathwise_decomposition(scale: Scale, seed: int) -> tuple:
    # the pathwise split W = M + A is not an identity under these
    # definitions of M and A; only the expectation-level identity holds
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=20, paths=200, seed=seed)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    w_at_end = batch.checkpoint_wealth[:, -1]
    m_plus_a = dec.martingale_part[:, -1] + dec.drift[-1]
    gap = float(np.max(np.abs(w_at_end - m_plus_a)))
    return "identity (claimed)", gap, gap, gap <= 1e-12


def _claim_wealth_approx(scale: Scale, seed: int) -> tuple:
    # the published second-order form drops the F^2 U V cross term, so its
    # error is O(F^2): halving F cuts it ~4x, not the ~8x a cubic tail gives
    counts = TrialCounts(U=12, V=8, N=20)
    w0 = 1000.0
    errs = []
    for F in (0.04, 0.02):
        exact = w0 * (1 + F) ** counts.U * (1 - F) ** counts.V
        errs.append(abs(wealth_approx(w0, F, counts, order=2) - exact))
    ratio = errs[0] / errs[1]
    return ">= 8x reduction", ratio, abs(ratio - 8.0) / 8.0, ratio >= 8.0


def _claim_variance_estimate(scale: Scale, seed: int) -> tuple:
    rep = variance_report(1000.0, 100, 0.52, 0.04)
    return _close(rep.paper_estimate, rep.oracle_exact, 1e-3)


def _claim_fractional_kelly(scale: Scale, seed: int) -> tuple:
    plan = fractional_plan(0.52, 2.0 / 3.0)
    ok = (
        abs(plan.F_frac - 2.0 / 75.0) <= 1e-15
        and plan.growth_frac < plan.growth_full
        and plan.vol_frac < plan.vol_full
    )
    return 2.0 / 75.0, plan.F_frac, _rel(2.0 / 75.0, plan.F_frac), ok


def _claim_mgf(scale: Scale, seed: int) -> tuple:
    spec = BinomialSpec(N=8, p=0.52)
    return _close(mgf(spec, 0.3), mgf_bruteforce(spec, 0.3), 1e-12)


def _claim_q_typo(scale: Scale, seed: int) -> tuple:
    # source worked example states q = 0.475 for p = 0.515; 1 - p = 0.485
    return _close(0.475, 1.0 - 0.515, 1e-12)


_CLAIMS = (
    Claim("count-moments", "win-count mean/variance closed forms", "match", _claim_count_moments),
    Claim("count-covariance", "zero-covariance assumption vs complementary counts",
          "mismatch", _claim_covariance),
    Claim("net-wins-variance", "net-win variance 2Np(1-p) vs enumeration",
          "mismatch", _claim_net_wins_variance),
    Claim("entropy-max", "single-trial entropy peaks at 1/2 with value log 2",
          "match", _claim_entropy_max),
    Claim("binomial-entropy-forms", "binomial entropy three-sum expansion",
          "match", _claim_binomial_entropy),
    Claim("deterministic-entropy", "entropy of a deterministic game (p=1)",
          "match", _claim_entropy_p1),
    Claim("kelly-point", "utility derivative vanishes at F = 2p-1 (0.04 at p=0.52)",
          "match", _claim_kelly_point),
    Claim("growth-entropy-identity", "growth at Kelly stake equals log 2 - H(p)",
          "match", _claim_entropy_identity),
    Claim("break-even-root", "numeric root of U=0 vs series 2F_K + eps (eps ~ 0.0001714)",
          "match", _claim_break_even_root),
    Claim("dominance-in-p", "higher win probability dominates at every stake",
          "match", _claim_dominance),
    Claim("sign-partition", "U > 0 below the break-even root, U < 0 above it",
          "match", _claim_sign_partition),
    Claim("expected-wealth-linear", "E[W(N)] = w0 (1 + F(2p-1))^N vs enumeration",
          "match", _claim_linear_expectation),
    Claim("expected-wealth-product", "factorized (1+pF)^N (1-qF)^N form vs enumeration",
          "mismatch", _claim_product_expectation),
    Claim("quadratic-term-example", "per-trial gap pqF^2 worked example 0.00009996",
          "match", _claim_pqf2_example),
    Claim("exponential-growth", "small-stake exponential estimate of E[W(N)]",
          "match", _claim_exponential_growth),
    Claim("kelly-stake-polynomials", "polynomial bases at the Kelly stake",
          "match", _claim_growth_factor_polynomials),
    Claim("one-step-expectation", "raw wealth one-step ratio 1 + F(2p-1) above break-even",
          "mismatch", _claim_one_step_ratio),
    Claim("drift-trichotomy", "log-wealth drift sign matches U(F, p) in all regimes",
          "match", _claim_drift_trichotomy),
    Claim("ruin-law", "full-stake ruin probability 1 - p^N", "match", _claim_ruin_law),
    Claim("doob-maximal-inequality", "P(sup W >= lambda) <= E[W(N)] / lambda",
          "match", _claim_doob_inequality),
    Claim("martingale-flatness", "mean of normalized wealth stays at w0",
          "match", _claim_martingale_flatness),
    Claim("pathwise-decomposition", "pathwise W(N) = M(N) + A(N) claim",
          "mismatch", _claim_pathwise_decomposition),
    Claim("wealth-series", "second-order wealth expansion error scales as F^3",
          "mismatch", _claim_wealth_approx),
    Claim("variance-estimate", "first-order variance estimate 2 w0^2 N pq F^2 vs oracle",
          "mismatch", _claim_variance_estimate),
    Claim("fractional-kelly", "two-thirds Kelly stake 2/75 with reduced growth and volatility",
          "match", _claim_fractional_kelly),
    Claim("binomial-mgf", "closed-form MGF vs brute-force summation", "match", _claim_mgf),
    Claim("complement-typo", "stated complement 0.475 for p = 0.515", "mismatch", _claim_q_typo),
)


def _evaluate(claim: Claim, scale: Scale, seed: int) -> ClaimResult:
    paper, oracle, gap, holds = claim.check(scale, seed)
    verdict = "match" if holds else "mismatch"
    return ClaimResult(claim.claim_id, claim.paper_location, paper, oracle, gap, verdict)


def run_verification(seed: int, scale: str = "quick") -> tuple[list[ClaimResult], bool]:
    """Run every registry claim; returns (results, clean).

    clean is False iff a claim expected to match failed to, i.e. a
    regression. Documented mismatches never affect it.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; use one of {sorted(SCALES)}")
    sc = SCALES[scale]
    results = [_evaluate(claim, sc, seed) for claim in _CLAIMS]
    clean = all(
        r.verdict == "match" for claim, r in zip(_CLAIMS, results) if claim.expected == "match"
    )
    return results, clean
