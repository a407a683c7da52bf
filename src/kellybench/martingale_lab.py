"""Seeded Monte Carlo wealth simulation and martingale-regime checks.

Wealth evolves multiplicatively, W(I) = W(I-1) * (1 + F*Z(I)); the product
form is algebraically identical to the additive random-walk form but avoids
cancellation. Path k's outcomes are exactly
`np.random.default_rng((seed, k)).random(N) < p`, whatever the chunking:
the `stream` module draws them, and this module reads only its (tile,
paths) outcome tables.

Full paths are never kept: a check needs only the win counts over all N
steps and, at each checkpoint I, the win count in steps 1..I, W(I) and
max W(0..I), at the quarters of the horizon unless the caller names other
checkpoints. `simulate` checks the call and cuts the batch into chunks,
and every chunk runs one kernel, `_simulate_chunk`, which writes each
tile's wealth over its spent draws up to the last checkpoint; one walk
over the tile's segments between checkpoints then counts each segment's
wins and maxes its wealth in one reduction over its rows. With no
checkpoints it writes no wealth at all: the win counts are all that the
log drift and the full-stake ruin law depend on. Since the count, the
products and the running max are sequential along a path, a checkpoint's
columns do not depend on N or on the other checkpoints, and the draw never
reads F; so one batch serves every check on a prefix of its horizon, at
every stake.

A chunk of at least `_ROW_LOOP_PATHS` (160) paths runs the recursion one
multiply a row across its paths; a row costs about 0.4 us of call overhead
whatever its width, so a narrower chunk runs `cumprod` down each path of
the same buffer (the two cross between 144 and 160 paths, in BENCH_40.json).
Either way each path takes the same products left to right with one
rounding per step, max does not round and the counts are integers, so the
bytes do not depend on the chunk or tile shape, or on the draw route.

A chunk's working set is fixed in bytes, not in paths: its draws are
overwritten by the step factors, one exact integer multiply-add on their
IEEE-754 bits, and then by the wealth, so a path-step costs 8 B for the
draw and 1 B for its outcome, and a path under 0.5 kB for its seed state.
A tile is the horizon, or as many steps as fit in `_CHUNK_BYTES` for
min(paths, `_TILE_PATHS`) paths, and a chunk holds as many paths of a tile
as fit: horizons up to 1 763 steps are one tile, longer ones run in
256-path chunks of 1 763-step tiles, and a lone path in tiles of about
466 000 steps, so memory does not grow with N. Ruin is a loss at full
stake, read from the win counts, never from a wealth that underflows to 0.

The regime statements are verified at the level where they are literally
true: the drift of log-wealth has the sign of U(F, p). The closed forms of
the law of W(N) that these checks compare against are in `risk_metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli_core import _check_count, _check_game, _check_threshold
from .errors import DomainError, ResourceGuardError
from .risk_metrics import expected_wealth_linear
from .stream import Outcomes
from .utility_kelly import utility

# hard ceiling on paths * N
MAX_TOTAL_STEPS = 10**9

# hard ceiling on a batch's arrays: 8 B of wins and 20 B a checkpoint (W, max W
# and an int32 win count, which holds any count <= MAX_TOTAL_STEPS < 2^31), per path
MAX_BATCH_BYTES = 1 << 30

# working-set budget of one chunk: 8 B of draws and 1 B of outcomes a path-step
_CHUNK_BYTES = 4 << 20

# paths a time tile is sized for: a tile holds the horizon up to 1 763
# steps, and 256 paths of 1 763 steps past it
_TILE_PATHS = 256

# fewest paths of a chunk that run the recursion one multiply a row across
# the chunk rather than cumprod down each path (see the module docstring)
_ROW_LOOP_PATHS = 160

# fewest paths whose log drift has a meaningful standard error
_MIN_DRIFT_PATHS = 100


@dataclass(frozen=True)
class SimConfig:
    """A reproducible Monte Carlo run: game, stake, horizon, and seeding."""

    w0: float
    p: float
    F: float
    N: int
    paths: int
    seed: int
    threads: int = 1  # validated but unused: simulate runs in one thread

    def __post_init__(self) -> None:
        _check_game(self.w0, self.p, self.F, self.N)
        _check_count(self.paths, "path count")
        _check_count(self.seed, "seed", least=0)  # as NumPy's SeedSequence requires
        _check_count(self.threads, "thread count")

    @property
    def checkpoints(self) -> tuple[int, ...]:
        """The quarters of the horizon, `simulate`'s default; the last is N."""
        quarters = {max(1, self.N // 4), max(1, self.N // 2), max(1, 3 * self.N // 4), self.N}
        return tuple(sorted(quarters))


@dataclass(frozen=True)
class TrajectoryBatch:
    """Per-path summaries of a simulated batch: all that any check reads."""

    config: SimConfig
    checkpoints: tuple[int, ...]  # increasing, in [1, N]; may be empty
    wins: np.ndarray  # (paths,) win count per path over all N steps
    checkpoint_wins: np.ndarray  # (paths, len(checkpoints)) int32, wins in steps 1..I
    checkpoint_wealth: np.ndarray  # (paths, len(checkpoints)), W(I)
    checkpoint_running_max: np.ndarray  # (paths, len(checkpoints)), max W(0..I)


def _ruined(config: SimConfig, wins: np.ndarray) -> np.ndarray:
    """Per-path flag of a loss at full stake, read from the win counts: a
    wealth that underflows to 0.0 at F < 1 still has a finite log."""
    return (config.F == 1.0) & (wins < config.N)


@dataclass(frozen=True)
class DriftCheck:
    empirical_drift: float
    se: float
    theory: float
    z_score: float
    excluded_ruined: int


@dataclass(frozen=True)
class DoobDecomposition:
    """Martingale part M(I) = W(I) * g^(-I) = W(I) / E[W(I)] * w0 and
    deterministic drift A(I), at the checkpoints of the batch it came from."""

    martingale_part: np.ndarray  # (paths, len(checkpoints))
    drift: np.ndarray  # (len(checkpoints),)


def _write_factors(won: np.ndarray, x: np.ndarray, F: float) -> None:
    """Write the step factor 1 + F Z(I) of each outcome in `won` over the
    spent draws `x` of the same shape.

    The factor is exactly 1.0 + F on a win and 1.0 - F on a loss, written in
    one integer pass on the bits: won * (gain - lose) + lose is lose or gain
    bit for bit (F >= 0, so gain >= lose and nothing wraps), and the map
    rounds nothing. A fill then a masked copyto writes the same floats in
    about 6x the time.
    """
    lose, gain = np.array([1.0 - F, 1.0 + F]).view(np.uint64)
    bits = x.view(np.uint64)
    np.multiply(won, gain - lose, out=bits, dtype=np.uint64)
    np.add(bits, lose, out=bits)


def _simulate_chunk(batch: TrajectoryBatch, start: int, stop: int, tables) -> None:
    """Simulate paths [start, stop) into their rows of the batch from
    `tables`, the stream's outcome table of each time tile in turn and the
    buffer its draws were spent in, which, viewed as (steps, paths), takes
    the step factors and then the wealth, up to the last checkpoint. One
    walk over the tile's segments then writes each checkpoint's columns; the
    win count, W and max W are carried from tile to tile.
    """
    config = batch.config
    cps = batch.checkpoints
    last = cps[-1] if cps else 0
    rows = slice(start, stop)
    paths = stop - start
    wins = batch.wins[rows]
    # W and max W(0..I) where the tile starts: scalars until the first tile's
    # wealth, as an array made before the draw made perfbench's mc_wide about 3% slower
    wealth = top = config.w0
    j = t0 = 0  # the column of the tile's first checkpoint, the step before its first row
    for won, draws in tables:
        width = len(won)
        ends = [c - t0 for c in cps[j:] if c <= t0 + width]  # rows from 1
        steps = min(width, last - t0)  # the rows that take wealth; none past `last`
        if steps > 0:
            x = draws[:steps * paths].reshape(steps, paths)
            _write_factors(won[:steps], x, config.F)
            # W(I) = W(I-1) * (1 + F Z(I)), one rounding per step, from the
            # carried wealth (w0 on the first tile)
            if paths >= _ROW_LOOP_PATHS:
                # iterating the rows costs half of indexing each pair
                prev = wealth
                for step in x:
                    np.multiply(prev, step, out=step)
                    prev = step
            else:
                x[0] *= wealth
                np.cumprod(x, axis=0, out=x)
            wealth = x[-1].copy()
        # each segment (previous checkpoint, checkpoint] of the tile, and its
        # tail, is summed into int32 onto the carried count, and its wealth
        # rows maxed onto the carried max (max does not round): both are then
        # the checkpoint's
        bounds = [0, *ends, width]
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            wins += np.add.reduce(won[a:b].view(np.uint8), axis=0, dtype=np.int32)
            if a < steps:
                top = np.maximum(np.maximum.reduce(x[a:min(b, steps)], axis=0), top)
            if k < len(ends):
                batch.checkpoint_wins[rows, j + k] = wins
                batch.checkpoint_running_max[rows, j + k] = top
                batch.checkpoint_wealth[rows, j + k] = x[b - 1]
        j += len(ends)
        t0 += width


def simulate(config: SimConfig, checkpoints: tuple[int, ...] | None = None) -> TrajectoryBatch:
    """Run the configured batch of independent trajectories, summarised at
    `checkpoints` (default: `config.checkpoints`, the quarters of the horizon).

    The checkpoints must increase and lie in [1, N]; wealth is computed up
    to the last of them, the win counts always cover all N steps, and
    `checkpoints=()` draws the win counts alone. The column of checkpoint I
    is bit for bit the last column of a run with horizon I.

    Reproducibility contract: identical config (seed included) yields a
    bitwise-identical batch, because path k draws exactly
    `np.random.default_rng((seed, k)).random(N)`.
    """
    if checkpoints is None:
        checkpoints = config.checkpoints
    checkpoints = tuple(checkpoints)
    if any(not 1 <= c <= config.N for c in checkpoints) or any(
            a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise DomainError(
            f"checkpoints {checkpoints!r} must increase within [1, {config.N}]")
    if config.paths * config.N > MAX_TOTAL_STEPS:
        raise ResourceGuardError(
            f"{config.paths} paths x {config.N} steps exceeds {MAX_TOTAL_STEPS}")
    if config.paths * (8 + 20 * len(checkpoints)) > MAX_BATCH_BYTES:
        raise ResourceGuardError(
            f"{config.paths} paths x {len(checkpoints)} checkpoints exceed "
            f"{MAX_BATCH_BYTES} B of batch arrays")
    # a path's tile of draws and outcomes, plus under 0.5 kB for its seed state
    # (its build peaks at about 160 B whatever the seed's size; the draw holds 32 B)
    tile = max(1, min(config.N, (_CHUNK_BYTES // min(config.paths, _TILE_PATHS) - 512) // 9))
    chunk = max(1, _CHUNK_BYTES // (9 * tile + 512))
    shape = (config.paths, len(checkpoints))
    batch = TrajectoryBatch(
        config=config,
        checkpoints=checkpoints,
        wins=np.zeros(config.paths, dtype=np.int64),
        checkpoint_wins=np.empty(shape, dtype=np.int32),
        checkpoint_wealth=np.empty(shape),
        checkpoint_running_max=np.empty(shape),
    )
    outcomes = Outcomes(config.seed, config.p, config.N)
    for start in range(0, config.paths, chunk):
        stop = min(start + chunk, config.paths)
        _simulate_chunk(batch, start, stop, outcomes.tables(start, stop, tile))
    return batch


def log_drift_check(config: SimConfig, wins: np.ndarray) -> DriftCheck:
    """Empirical per-trial log drift of a batch's win counts against the
    closed-form U(F, p).

    Ruined full-stake paths have no finite log and are excluded with a
    count; requires at least 100 surviving paths for a meaningful SE. When
    every survivor has the same win count (p is 0 or 1, or full stake), the
    rates are one number: empirical_drift is that rate, se is 0 and z_score
    is nan. At full stake with p < 1, U(1, p) is -inf and states nothing
    about the survivors, so theory is nan too.
    """
    ruined = _ruined(config, wins)
    excluded = int(np.count_nonzero(ruined))
    # the survivors' win counts, not copied where none is ruined (every F < 1):
    # a copy would outlive the rates' temporaries and raise the peak by 8 B a path
    alive = wins[~ruined] if excluded else wins
    if alive.size < _MIN_DRIFT_PATHS:
        raise DomainError(
            f"drift check needs >= {_MIN_DRIFT_PATHS} surviving paths, got {alive.size}"
        )
    # each survivor's mean log increment, from its win count
    if config.F == 1.0:
        rates = alive * math.log(2.0) / config.N
    else:
        rates = (alive * math.log1p(config.F)
                 + (config.N - alive) * math.log1p(-config.F)) / config.N
    theory = utility(config.F, config.p)
    if np.ptp(alive) == 0:
        # one win count: np.mean and np.std of its rate would only add rounding
        empirical, se, z = float(rates[0]), 0.0, math.nan
    else:
        empirical = float(np.mean(rates))
        se = float(np.std(rates, ddof=1) / math.sqrt(rates.size))
        if se == 0.0:
            z = 0.0 if empirical == theory else math.inf
        else:
            z = (empirical - theory) / se
    if theory == -math.inf:
        theory = z = math.nan
    return DriftCheck(
        empirical_drift=empirical, se=se, theory=theory, z_score=z, excluded_ruined=excluded
    )


def empirical_sup_prob(batch: TrajectoryBatch, lam: float, column: int = -1) -> float:
    """Fraction of paths whose running maximum up to the batch's checkpoint
    in `column` (default: the last) reaches lambda."""
    _check_threshold(lam)
    if not batch.checkpoints:
        raise DomainError("a batch without checkpoints has no running maximum")
    return float(np.mean(batch.checkpoint_running_max[:, column] >= lam))


def doob_decompose(batch: TrajectoryBatch) -> DoobDecomposition:
    """Split the growth-regime process into martingale part and drift.

    M(I) = W(I) * g^(-I) and A(I) = E[W(I)] - w0 = w0 * g^I - w0, with
    g = 1 + F(2p-1). M(I) is computed as W(I) / E[W(I)] * w0 from the
    closed form that A(I) reads, so g^I is taken in one place. The identity
    is verified at the expectation level: mean M(I) stays flat at w0.
    """
    cfg = batch.config
    # F = 0 sits on the regime boundary (U = 0) and degenerates to M = w0, A = 0
    if cfg.p <= 0.5 or utility(cfg.F, cfg.p) < 0.0:
        raise DomainError(
            "decomposition is scoped to the growth regime (p > 1/2, U(F, p) >= 0)")
    # E[W(I)] >= w0 > 0; divide first, as w0 / E[W(I)] can be subnormal
    mean = np.array([expected_wealth_linear(cfg.w0, cfg.p, cfg.F, I) for I in batch.checkpoints])
    mart = batch.checkpoint_wealth / mean
    mart *= cfg.w0
    return DoobDecomposition(martingale_part=mart, drift=mean - cfg.w0)
