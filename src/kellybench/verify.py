"""Claim registry and verification suite.

Every published formula this package implements is checked here against an
independent oracle (enumeration, brute-force summation, finite differences,
or seeded Monte Carlo). Each claim is one row of `_CLAIMS`, which states its
tolerance and expected verdict once. Its check returns (paper, oracle, gap),
and `_evaluate` alone decides the verdict: "match" exactly when gap <= tol.
A value row's gap is its relative (or absolute) error; an inequality row's
is its signed margin, and a count row's the number of draws or grid points
that break the claim, both against tol 0; a Monte Carlo row's is |z|,
against tol 3. Where a side condition fails (the 3-se drift signs,
|U(F*)| < 1e-12, the fractional-Kelly orderings), the gap is inf. The
expected verdicts are of two kinds:

- expected "match": the formula agrees with its oracle; a failure here is a
  regression and flips the process exit code.
- expected "mismatch": a documented internal inconsistency of the source
  material (e.g. the zero-covariance assumption against complementary
  counts). These are reported, never silently corrected, and do not fail
  the run.

The acceptance gate (tests/test_acceptance.py) evaluates every row at the
full scale and asserts its expected verdict, mismatches included, so a
claim's config, tolerance and expected verdict are written only here.

A row is checked against one `Run` of the registry: its scale, its seed,
and the Monte Carlo batch that the regime rows share. The drift, ruin, Doob
and flatness rows all play p = 0.52 over a prefix of the same paths, so the
run draws them once, at F = 0.04 to the scale's horizon, on first use. The
draw never reads F, and the win count, W(I) and max W(0..I) at a checkpoint
do not depend on the horizon, so each row reads the bytes that its own
batch would give: the ruin row, for one, reads the win counts at I = 50 as
its full-stake draw of N = 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import (
    BinomialSpec,
    DomainError,
    SimConfig,
    TrajectoryBatch,
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
    kelly_fraction,
    log_drift_check,
    mgf,
    mgf_bruteforce,
    moments,
    net_wins_variance,
    ruin_probability_full_stake,
    shannon,
    simulate,
    tradeoff_table,
    utility,
    utility_derivatives,
    utility_dominance,
    utility_entropy_identity,
    variance_report,
    wealth_approx,
)
from .bernoulli_core import _check_count, _enumerated_count_moments
from .entropy import binomial_entropy_forms
from .martingale_lab import _ruined


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    paper_location: str
    paper_value: float | str
    oracle_value: float | str
    gap: float
    tol: float
    verdict: str  # match | mismatch


@dataclass(frozen=True)
class Scale:
    paths: int
    N: int


# the shared batch: the flatness row reads the first four columns (its
# quarters of N = 100), the ruin row the win counts at 50, the Doob row the
# running maximum at 200
_SHARED_CHECKPOINTS = (25, 50, 75, 100, 200)


@dataclass
class Run:
    """One run of the registry at a scale and seed, with the batch that the
    regime rows share, drawn when a row first reads it."""

    scale: Scale
    seed: int

    @cached_property
    def batch(self) -> TrajectoryBatch:
        cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=self.scale.N, paths=self.scale.paths,
                        seed=self.seed)
        return simulate(cfg, checkpoints=_SHARED_CHECKPOINTS)


@dataclass(frozen=True)
class Claim:
    """One registry row: its verdict is "match" exactly when the gap that its
    check returns is at most tol (see the module docstring)."""

    claim_id: str
    paper_location: str
    expected: str  # match | mismatch
    tol: float
    check: Callable[[Run], tuple]  # -> (paper, oracle, gap)


SCALES = {
    "quick": Scale(paths=20_000, N=300),
    "full": Scale(paths=100_000, N=1000),
}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _close(paper: float, oracle: float) -> tuple:
    """The check of a claim that a published value equals its oracle."""
    return paper, oracle, _rel(paper, oracle)


def _claim_count_moments(run: Run) -> tuple:
    spec = BinomialSpec(N=20, p=0.52)
    mean, var, _ = _enumerated_count_moments(spec.N, spec.p)
    m = moments(spec)
    gap = max(_rel(m.mean, mean), _rel(m.variance, var))
    return f"mean={m.mean:.6g},var={m.variance:.6g}", f"mean={mean:.6g},var={var:.6g}", gap


def _claim_covariance(run: Run) -> tuple:
    return _close(0.0, covariance_uv(10, 0.52))


def _claim_net_wins_variance(run: Run) -> tuple:
    N, p = 10, 0.52
    return _close(2.0 * N * p * (1.0 - p), net_wins_variance(N, p))


def _claim_entropy_max(run: Run) -> tuple:
    h = shannon(0.5)
    d = (shannon(0.5 + 1e-6) - shannon(0.5 - 1e-6)) / 2e-6
    return math.log(2.0), h, max(_rel(h, math.log(2.0)), abs(d))


def _claim_binomial_entropy(run: Run) -> tuple:
    direct, expanded = binomial_entropy_forms(BinomialSpec(N=12, p=0.52))
    return _close(expanded, direct)


def _claim_entropy_p1(run: Run) -> tuple:
    direct, _ = binomial_entropy_forms(BinomialSpec(N=8, p=1.0))
    # source text appends a stray "= beta"; the computed value is 0
    return 0.0, direct, abs(direct)


def _claim_kelly_point(run: Run) -> tuple:
    fk = kelly_fraction(0.52)
    d1 = utility_derivatives(fk, 0.52).first
    return 0.04, fk, max(abs(fk - 0.04), abs(d1))


def _claim_entropy_identity(run: Run) -> tuple:
    chk = utility_entropy_identity(0.52)
    return _close(chk.lhs, chk.rhs)


def _claim_break_even_root(run: Run) -> tuple:
    eps = f_star_approx(0.52).epsilon
    gap = abs(eps - 0.0001714) / 0.0001714
    # the series is checked only against a root that is one
    return 0.0001714, eps, gap if abs(utility(f_star(0.52), 0.52)) < 1e-12 else math.inf


def _claim_dominance(run: Run) -> tuple:
    rng = np.random.default_rng(run.seed)
    dominance = []
    for _ in range(1000):
        p_hat = rng.uniform(0.5 + 1e-6, 0.99)
        p = rng.uniform(p_hat + 1e-9, 1.0 - 1e-9)
        F = rng.uniform(1e-9, 1.0 - 1e-9)
        dominance.append(utility_dominance(F, p, p_hat))
    # the claim is strict: a draw with dominance 0 breaks it
    return "> 0", min(dominance), sum(d <= 0.0 for d in dominance)


def _claim_sign_partition(run: Run) -> tuple:
    p = 0.6
    root = f_star(p)
    fs = np.linspace(1e-6, 1.0 - 1e-9, 2000)
    us = np.array([utility(float(f), p) for f in fs])
    h = fs[1] - fs[0]
    wrong = np.count_nonzero(us[fs < root - h] <= 0.0) + np.count_nonzero(us[fs > root + h] >= 0.0)
    return "sign trichotomy", "violated" if wrong else "grid verified", wrong


def _claim_linear_expectation(run: Run) -> tuple:
    game = (1000.0, 0.52, 0.04, 20)
    return _close(expected_wealth_linear(*game), expected_wealth_enumeration(*game))


def _claim_product_expectation(run: Run) -> tuple:
    game = (1000.0, 0.52, 0.2, 20)
    return _close(expected_wealth_product(*game), expected_wealth_enumeration(*game))


def _claim_pqf2_example(run: Run) -> tuple:
    p, F = 0.51, 0.02
    return _close(0.00009996, p * (1 - p) * F * F)


def _claim_exponential_growth(run: Run) -> tuple:
    game = (1000.0, 0.52, 0.04, 100)
    return _close(expected_wealth_exponential(*game), expected_wealth_linear(*game))


def _claim_growth_factor_polynomials(run: Run) -> tuple:
    p = 0.52
    fk = kelly_fraction(p)
    lin = conditional_growth_factor(p, fk)
    prod = (1.0 + p * fk) * (1.0 - (1 - p) * fk)
    poly_lin = 4 * p * p - 4 * p + 2
    poly_prod = 4 * p**4 - 8 * p**3 + 9 * p * p - 5 * p + 2
    gap = max(_rel(lin, poly_lin), _rel(prod, poly_prod))
    return f"{poly_lin:.12g},{poly_prod:.12g}", f"{lin:.12g},{prod:.12g}", gap


def _claim_one_step_ratio(run: Run) -> tuple:
    # g > 1 for any F > 0 at p > 1/2: the raw-wealth supermartingale
    # labelling cannot hold at the one-step expectation level
    g = conditional_growth_factor(0.52, 0.2)
    return "<= 1 (claimed)", g, g - 1.0


def _claim_drift_trichotomy(run: Run) -> tuple:
    batch = run.batch
    p = batch.config.p
    # the draw does not read F: the three stakes share the batch's win counts
    zs = []
    signs_ok = True
    for F, want in ((kelly_fraction(p), 1), (f_star(p), 0), (0.2, -1)):
        chk = log_drift_check(replace(batch.config, F=F), batch.wins)
        zs.append(abs(chk.z_score))
        if want:  # the drift's sign is 3 se clear of 0
            signs_ok &= want * chk.empirical_drift > 3 * chk.se
    return "z within 3", max(zs), max(zs) if signs_ok else math.inf


def _claim_ruin_law(run: Run) -> tuple:
    # ruin at full stake over N = 50 reads only the wins in steps 1..50, which
    # the shared batch counts at its checkpoint 50: the draw never reads F
    batch, N = run.batch, 50
    cfg = replace(batch.config, F=1.0, N=N)
    wins = batch.checkpoint_wins[:, batch.checkpoints.index(N)]
    emp = float(np.mean(_ruined(cfg, wins)))
    theory = ruin_probability_full_stake(cfg.p, N)
    se = math.sqrt(theory * (1 - theory) / cfg.paths)
    return theory, emp, abs(emp - theory) / se


def _claim_doob_inequality(run: Run) -> tuple:
    batch = run.batch
    cfg, N = batch.config, batch.checkpoints[-1]  # the maximum over I <= 200
    # a bound capped at 1 holds trivially, so only a lambda above E[W(N)] reads it
    gaps = []
    for lam in np.linspace(1.01, 2.0, 20):
        bound = doob_bound(cfg.w0, cfg.p, cfg.F, N, lam)
        if bound < 1.0:
            gaps.append(empirical_sup_prob(batch, lam) - bound)
    if not gaps:
        raise DomainError(f"no lambda of the grid exceeds E[W({N})]; the bound is 1 on all")
    worst = max(gaps)
    return "<= 0", worst, worst


def _claim_martingale_flatness(run: Run) -> tuple:
    batch = run.batch
    dec = doob_decompose(batch)
    worst = 0.0
    for j in range(4):  # the quarters of N = 100
        col = dec.martingale_part[:, j]
        se = float(np.std(col, ddof=1) / math.sqrt(col.size))
        worst = max(worst, abs(float(np.mean(col)) - batch.config.w0) / se)
    return "z within 3", worst, worst


def _claim_pathwise_decomposition(run: Run) -> tuple:
    # the pathwise split W = M + A is not an identity under these
    # definitions of M and A; only the expectation-level identity holds
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=20, paths=200, seed=run.seed)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    w_at_end = batch.checkpoint_wealth[:, -1]
    m_plus_a = dec.martingale_part[:, -1] + dec.drift[-1]
    gap = float(np.max(np.abs(w_at_end - m_plus_a)))
    return "identity (claimed)", gap, gap


def _claim_wealth_approx(run: Run) -> tuple:
    # the published second-order form drops the F^2 U V cross term, so its
    # error is O(F^2): halving F cuts it ~4x, not the ~8x a cubic tail gives
    counts, w0 = TrialCounts(U=12, V=8, N=20), 1000.0
    errs = []
    for F in (0.04, 0.02):
        exact = w0 * (1 + F) ** counts.U * (1 - F) ** counts.V
        errs.append(abs(wealth_approx(w0, F, counts, order=2) - exact))
    ratio = errs[0] / errs[1]
    return ">= 8x reduction", ratio, (8.0 - ratio) / 8.0


def _claim_variance_estimate(run: Run) -> tuple:
    rep = variance_report(1000.0, 0.52, 0.04, 100)
    return _close(rep.paper_estimate, rep.oracle_exact)


def _claim_fractional_kelly(run: Run) -> tuple:
    frac, full = tradeoff_table(0.52, [2.0 / 3.0, 1.0], 1000, 1000.0)
    ordered = frac.utility < full.utility and frac.volatility < full.volatility
    return 2.0 / 75.0, frac.F, abs(frac.F - 2.0 / 75.0) if ordered else math.inf


def _claim_mgf(run: Run) -> tuple:
    spec = BinomialSpec(N=8, p=0.52)
    return _close(mgf(spec, 0.3), mgf_bruteforce(spec, 0.3))


def _claim_q_typo(run: Run) -> tuple:
    # source worked example states q = 0.475 for p = 0.515; 1 - p = 0.485
    return _close(0.475, 1.0 - 0.515)


_CLAIMS = (
    Claim("count-moments", "win-count mean/variance closed forms", "match", 1e-12,
          _claim_count_moments),
    Claim("count-covariance", "zero-covariance assumption vs complementary counts",
          "mismatch", 1e-12, _claim_covariance),
    Claim("net-wins-variance", "net-win variance 2Np(1-p) vs enumeration",
          "mismatch", 1e-12, _claim_net_wins_variance),
    Claim("entropy-max", "single-trial entropy peaks at 1/2 with value log 2",
          "match", 1e-9, _claim_entropy_max),
    Claim("binomial-entropy-forms", "binomial entropy three-sum expansion",
          "match", 1e-10, _claim_binomial_entropy),
    Claim("deterministic-entropy", "entropy of a deterministic game (p=1)",
          "match", 1e-15, _claim_entropy_p1),
    Claim("kelly-point", "utility derivative vanishes at F = 2p-1 (0.04 at p=0.52)",
          "match", 1e-12, _claim_kelly_point),
    Claim("growth-entropy-identity", "growth at Kelly stake equals log 2 - H(p)",
          "match", 1e-12, _claim_entropy_identity),
    Claim("break-even-root", "numeric root of U=0 vs series 2F_K + eps (eps ~ 0.0001714)",
          "match", 0.1, _claim_break_even_root),
    Claim("dominance-in-p", "higher win probability dominates at every stake",
          "match", 0.0, _claim_dominance),
    Claim("sign-partition", "U > 0 below the break-even root, U < 0 above it",
          "match", 0.0, _claim_sign_partition),
    Claim("expected-wealth-linear", "E[W(N)] = w0 (1 + F(2p-1))^N vs enumeration",
          "match", 1e-10, _claim_linear_expectation),
    Claim("expected-wealth-product", "factorized (1+pF)^N (1-qF)^N form vs enumeration",
          "mismatch", 1e-10, _claim_product_expectation),
    Claim("quadratic-term-example", "per-trial gap pqF^2 worked example 0.00009996",
          "match", 1e-10, _claim_pqf2_example),
    Claim("exponential-growth", "small-stake exponential estimate of E[W(N)]",
          "match", 0.01, _claim_exponential_growth),
    Claim("kelly-stake-polynomials", "polynomial bases at the Kelly stake",
          "match", 1e-12, _claim_growth_factor_polynomials),
    Claim("one-step-expectation", "raw wealth one-step ratio 1 + F(2p-1) above break-even",
          "mismatch", 0.0, _claim_one_step_ratio),
    Claim("drift-trichotomy", "log-wealth drift sign matches U(F, p) in all regimes",
          "match", 3.0, _claim_drift_trichotomy),
    Claim("ruin-law", "full-stake ruin probability 1 - p^N", "match", 3.0, _claim_ruin_law),
    Claim("doob-maximal-inequality", "P(sup W >= lambda) <= E[W(N)] / lambda",
          "match", 0.0, _claim_doob_inequality),
    Claim("martingale-flatness", "mean of normalized wealth stays at w0",
          "match", 3.0, _claim_martingale_flatness),
    Claim("pathwise-decomposition", "pathwise W(N) = M(N) + A(N) claim",
          "mismatch", 1e-12, _claim_pathwise_decomposition),
    Claim("wealth-series", "second-order wealth expansion error scales as F^3",
          "mismatch", 0.0, _claim_wealth_approx),
    Claim("variance-estimate", "first-order variance estimate 2 w0^2 N pq F^2 vs oracle",
          "mismatch", 1e-3, _claim_variance_estimate),
    Claim("fractional-kelly", "two-thirds Kelly stake 2/75 with reduced growth and volatility",
          "match", 1e-15, _claim_fractional_kelly),
    Claim("binomial-mgf", "closed-form MGF vs brute-force summation", "match", 1e-12, _claim_mgf),
    Claim("complement-typo", "stated complement 0.475 for p = 0.515", "mismatch", 1e-12,
          _claim_q_typo),
)


def _evaluate(claim: Claim, run: Run) -> ClaimResult:
    paper, oracle, gap = claim.check(run)
    verdict = "match" if gap <= claim.tol else "mismatch"  # nan never matches
    return ClaimResult(claim.claim_id, claim.paper_location, paper, oracle, gap, claim.tol,
                       verdict)


def run_verification(seed: int, scale: str = "quick") -> tuple[list[ClaimResult], bool]:
    """Run every registry claim; returns (results, clean).

    clean is False iff a claim expected to match failed to, i.e. a
    regression. Documented mismatches never affect it.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; use one of {sorted(SCALES)}")
    _check_count(seed, "seed", least=0)
    run = Run(SCALES[scale], seed)
    results = [_evaluate(claim, run) for claim in _CLAIMS]
    clean = all(
        r.verdict == "match" for claim, r in zip(_CLAIMS, results) if claim.expected == "match"
    )
    return results, clean
