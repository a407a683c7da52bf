"""Seeded Monte Carlo wealth simulation and martingale-regime checks.

Wealth evolves multiplicatively, W(I) = W(I-1) * (1 + F*Z(I)); the product
form is algebraically identical to the additive random-walk form but avoids
cancellation. Path k draws from the substream (seed, k), so results are
bitwise reproducible regardless of chunking, thread count, or evaluation
order. Full paths are never kept: final wealth, win counts, running maxima
and checkpoint snapshots are all a check needs.

The regime statements are verified at the level where they are literally
true: the drift of log-wealth has the sign of U(F, p). The exact one-step
conditional expectation ratio E[W(I+1)|W(I)] / W(I) = 1 + F(2p-1) exceeds 1
for any F > 0 when p > 1/2, and is exposed here as errata evidence.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationDomainError, DomainError, ResourceGuardError
from .utility_kelly import _check_fp, utility

# hard ceiling on paths * N
MAX_TOTAL_STEPS = 10**9

_CHUNK = 4096


def _check_game(w0: float, p: float, F: float, N: int) -> None:
    """The game every closed form and every run is defined on."""
    if not (w0 > 0.0):
        raise DomainError(f"initial wealth {w0!r} must be positive")
    _check_fp(F, p)
    if N < 1:
        raise DomainError(f"trial count {N!r} must be at least 1")


@dataclass(frozen=True)
class SimConfig:
    """A reproducible Monte Carlo run: game, stake, horizon, and seeding."""

    w0: float
    p: float
    F: float
    N: int
    paths: int
    seed: int
    checkpoints: tuple[int, ...] = ()
    threads: int = 1

    def __post_init__(self) -> None:
        _check_game(self.w0, self.p, self.F, self.N)
        if self.paths < 1:
            raise DomainError(f"path count {self.paths!r} must be at least 1")
        if self.threads < 1:
            raise DomainError(f"thread count {self.threads!r} must be at least 1")
        for c in self.checkpoints:
            if not (1 <= c <= self.N):
                raise DomainError(f"checkpoint {c!r} outside 1..{self.N}")

    def resolved_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints:
            return tuple(sorted(set(self.checkpoints)))
        quarters = {max(1, self.N // 4), max(1, self.N // 2), max(1, 3 * self.N // 4), self.N}
        return tuple(sorted(quarters))


@dataclass(frozen=True)
class TrajectoryBatch:
    """Per-path summaries of a simulated batch: all that any check reads."""

    config: SimConfig
    final_wealth: np.ndarray  # (paths,)
    wins: np.ndarray  # (paths,) win count per path
    running_max: np.ndarray  # (paths,) max of W(0..N)
    ruined: np.ndarray  # (paths,) bool, wealth absorbed at 0
    checkpoints: tuple[int, ...]
    checkpoint_wealth: np.ndarray  # (paths, len(checkpoints))
    checkpoint_running_max: np.ndarray  # (paths, len(checkpoints))

    @property
    def log_growth_per_trial(self) -> np.ndarray:
        """Per-path mean log increment; -inf on ruined paths."""
        cfg = self.config
        losses = cfg.N - self.wins
        if cfg.F == 1.0:
            out = np.where(self.ruined, -np.inf, self.wins * math.log(2.0))
        elif cfg.F == 0.0:
            out = np.zeros(cfg.paths)
        else:
            out = self.wins * math.log1p(cfg.F) + losses * math.log1p(-cfg.F)
        return out / cfg.N


@dataclass(frozen=True)
class DriftCheck:
    empirical_drift: float
    se: float
    theory: float
    z_score: float
    excluded_ruined: int


@dataclass(frozen=True)
class DoobDecomposition:
    """Martingale part M(I) = W(I) * g^(-I) and deterministic drift A(I)."""

    checkpoints: tuple[int, ...]
    martingale_part: np.ndarray  # (paths, len(checkpoints))
    drift: np.ndarray  # (len(checkpoints),)
    growth_factor: float


def _simulate_chunk(config: SimConfig, start: int, stop: int, cps: np.ndarray, out: dict) -> None:
    """Simulate paths [start, stop); write results into preallocated slots."""
    n = stop - start
    u = np.empty((n, config.N))
    for i in range(n):
        rng = np.random.default_rng((config.seed, start + i))
        u[i] = rng.random(config.N)
    win = u < config.p
    # the factor 1 + F Z(I) is exactly 1.0 + F on a win and 1.0 - F on a loss
    factors = np.where(win, 1.0 + config.F, 1.0 - config.F)
    sl = slice(start, stop)
    # fold w0 into the first step so cumprod performs the literal recursion
    # W(I) = W(I-1) * (1 + F Z(I)) with one rounding per step
    factors[:, 0] *= config.w0
    wealth = np.cumprod(factors, axis=1)
    out["final"][sl] = wealth[:, -1]
    out["wins"][sl] = win.sum(axis=1)
    runmax = np.maximum.accumulate(wealth, axis=1)
    out["runmax"][sl] = np.maximum(config.w0, runmax[:, -1])
    out["ruined"][sl] = wealth[:, -1] == 0.0
    out["cp_wealth"][sl] = wealth[:, cps - 1]
    out["cp_runmax"][sl] = np.maximum(config.w0, runmax[:, cps - 1])


def simulate(config: SimConfig) -> TrajectoryBatch:
    """Run the configured batch of independent trajectories.

    Reproducibility contract: identical config (seed included) yields a
    bitwise-identical batch for any thread count, because every path has
    its own substream and reductions read preallocated, ordered arrays.
    """
    if config.paths * config.N > MAX_TOTAL_STEPS:
        raise ResourceGuardError(
            f"{config.paths} paths x {config.N} steps exceeds {MAX_TOTAL_STEPS}"
        )
    cps = np.asarray(config.resolved_checkpoints(), dtype=int)
    out = {
        "final": np.empty(config.paths),
        "wins": np.empty(config.paths, dtype=np.int64),
        "runmax": np.empty(config.paths),
        "ruined": np.empty(config.paths, dtype=bool),
        "cp_wealth": np.empty((config.paths, len(cps))),
        "cp_runmax": np.empty((config.paths, len(cps))),
    }
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [
            pool.submit(_simulate_chunk, config, s, min(s + _CHUNK, config.paths), cps, out)
            for s in range(0, config.paths, _CHUNK)
        ]
        for f in futures:
            f.result()
    return TrajectoryBatch(
        config=config,
        final_wealth=out["final"],
        wins=out["wins"],
        running_max=out["runmax"],
        ruined=out["ruined"],
        checkpoints=tuple(int(c) for c in cps),
        checkpoint_wealth=out["cp_wealth"],
        checkpoint_running_max=out["cp_runmax"],
    )


def conditional_growth_factor(p: float, F: float) -> float:
    """Exact one-step ratio E[W(I+1) | W(I)] / W(I) = 1 + F(2p - 1)."""
    _check_fp(F, p)
    return p * (1.0 + F) + (1.0 - p) * (1.0 - F)


def expected_wealth_linear(w0: float, p: float, F: float, N: int) -> float:
    """Closed form w0 * (1 + F(2p-1))^N for E[W(N)].

    A power beyond float64 range is a ResourceGuardError, not an
    OverflowError escaping to the caller.
    """
    _check_game(w0, p, F, N)
    try:
        return w0 * (1.0 + F * (2.0 * p - 1.0)) ** N
    except OverflowError:
        raise ResourceGuardError(
            f"expected wealth overflows float64 at N={N}, F={F!r}"
        ) from None


def expected_wealth_product(w0: float, p: float, F: float, N: int) -> float:
    """Factorized form w0 * (1+pF)^N (1-qF)^N of E[W(N)].

    It treats the win and loss counts as independent; under the
    complementary model it deviates from the exact expectation, and the
    gap is a reported erratum.
    """
    _check_game(w0, p, F, N)
    q = 1.0 - p
    return w0 * ((1.0 + p * F) * (1.0 - q * F)) ** N


def expected_wealth_exponential(w0: float, p: float, F: float, N: int) -> float:
    """Small-stake exponential estimate w0 * exp(N F (p - q))."""
    _check_game(w0, p, F, N)
    if F > 0.1:
        raise ApproximationDomainError(f"exponential estimate requires F <= 0.1, got {F!r}")
    return w0 * math.exp(N * F * (2.0 * p - 1.0))


def expected_wealth_enumeration(w0: float, p: float, F: float, N: int) -> float:
    """Exact E[W(N)] by summation over the binomial win count; the oracle."""
    from .bernoulli_core import ENUMERATION_GUARD, BinomialSpec, pmf_array

    _check_game(w0, p, F, N)
    if N + 1 > ENUMERATION_GUARD:
        raise ResourceGuardError(f"enumeration over {N + 1} terms exceeds guard")
    probs = pmf_array(BinomialSpec(N=N, p=p))
    alpha = np.arange(N + 1, dtype=float)
    w = w0 * (1.0 + F) ** alpha * (1.0 - F) ** (N - alpha)
    return float(np.dot(probs, w))


def log_drift_check(batch: TrajectoryBatch) -> DriftCheck:
    """Empirical per-trial log drift against the closed-form U(F, p).

    Ruined full-stake paths have no finite log and are excluded with a
    count; requires at least 100 surviving paths for a meaningful SE.
    """
    cfg = batch.config
    rates = batch.log_growth_per_trial[~batch.ruined]
    excluded = int(np.count_nonzero(batch.ruined))
    if rates.size < 100:
        raise DomainError(
            f"drift check needs >= 100 surviving paths, got {rates.size}"
        )
    theory = utility(cfg.F, cfg.p)
    empirical = float(np.mean(rates))
    se = float(np.std(rates, ddof=1) / math.sqrt(rates.size))
    if se == 0.0:
        z = 0.0 if empirical == theory else math.inf
    else:
        z = (empirical - theory) / se
    return DriftCheck(
        empirical_drift=empirical, se=se, theory=theory, z_score=z, excluded_ruined=excluded
    )


def ruin_probability_full_stake(p: float, N: int) -> float:
    """Probability 1 - p^N that an all-in strategy hits zero within N bets."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability {p!r} outside [0, 1]")
    if N < 1:
        raise DomainError(f"trial count {N!r} must be at least 1")
    return 1.0 - p**N


def doob_bound(w0: float, p: float, F: float, N: int, lam: float) -> float:
    """Maximal-inequality ceiling min(1, max(w0, E[W(N)]) / lambda) on
    P(max_{I<=N} W(I) >= lambda).

    Doob's E[W(N)] / lambda for the submartingale (p >= 1/2, where
    E[W(N)] >= w0) and Ville's w0 / lambda for the supermartingale
    (p < 1/2), so the one expression holds in every regime.
    """
    if not (lam > 0.0):
        raise DomainError(f"threshold {lam!r} must be positive")
    return min(1.0, max(w0, expected_wealth_linear(w0, p, F, N)) / lam)


def empirical_sup_prob(batch: TrajectoryBatch, lam: float) -> float:
    """Fraction of paths whose running maximum reaches lambda."""
    if not (lam > 0.0):
        raise DomainError(f"threshold {lam!r} must be positive")
    return float(np.mean(batch.running_max >= lam))


def doob_decompose(batch: TrajectoryBatch) -> DoobDecomposition:
    """Split the growth-regime process into martingale part and drift.

    M(I) = W(I) * (1 + F(2p-1))^(-I) and A(I) = w0 * (1 + F(2p-1))^I - w0.
    The decomposition identity is verified at the expectation level: the
    cross-path mean of M(I) stays flat at w0.
    """
    cfg = batch.config
    # F = 0 sits on the regime boundary (U = 0) and degenerates to M = w0, A = 0
    if cfg.p <= 0.5 or utility(cfg.F, cfg.p) < 0.0:
        raise DomainError(
            "decomposition is scoped to the growth regime (p > 1/2, U(F, p) >= 0)"
        )
    g = conditional_growth_factor(cfg.p, cfg.F)
    cps = np.asarray(batch.checkpoints, dtype=float)
    mart = batch.checkpoint_wealth * g ** (-cps)
    drift = cfg.w0 * g**cps - cfg.w0
    return DoobDecomposition(
        checkpoints=batch.checkpoints,
        martingale_part=mart,
        drift=drift,
        growth_factor=g,
    )
