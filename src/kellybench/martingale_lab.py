"""Seeded Monte Carlo wealth simulation and martingale-regime checks.

Wealth evolves multiplicatively, W(I) = W(I-1) * (1 + F*Z(I)); the product
form is algebraically identical to the additive random-walk form but avoids
cancellation. Path k's uniforms are exactly
`np.random.default_rng((seed, k)).random(N)`, so results are bitwise
reproducible regardless of chunking. Building one `default_rng` per path
spends most of its time in NumPy's SeedSequence hash, so `_pcg64_states`
computes the PCG64 starting states of a whole chunk of paths at once, in
uint64 arrays. A chunk then draws by one of two routes:

- In uint64 lanes (`_draw_lanes`), every path a step at a time: the
  128-bit LCG step and the XSL-RR output (O'Neill 2014) run as about 32
  array operations across the chunk's paths, and a step's outcomes are
  (out >> 11) < ceil(p * 2^53), which is exactly NumPy's random() < p.
- One path at a time, from one native generator a `simulate` call, moved
  to each path's substream by writing the four uint64 words of its (state,
  inc) straight into the generator's memory. Where those words sit is
  NumPy's private layout, so a probe writes a known (state, inc) and reads
  it back through the generator's `state` property when the first such
  chunk is drawn; a layout it does not know raises KellyBenchError, and
  nothing is drawn.

Both stay because each wins where the other loses. A lane step costs about
0.4 us of call overhead an operation whatever the width, and more a
path-step than NumPy's own draw; a path at a time costs about 0.9 us a
path whatever the horizon. So lanes win on short horizons over many paths:
a chunk is drawn in lanes when the horizon is at most `_LANE_MAX_STEPS`
(64) steps and the chunk holds at least `_LANE_PATHS_PER_STEP` (30) paths
a step of it. At mc_wide's 50 steps and 4 359-path chunks the lanes take
0.64 of the per-path route's simulate time; at 100 steps they never win
(the crossover table is in BENCH_40.json). The tests check the states, the
words as `state` reads them and the lanes' outcomes against NumPy's own.

Full paths are never kept: a check needs only the win counts over all N
steps and, at each checkpoint I, the win count in steps 1..I, W(I) and
max W(0..I). The checkpoints are the quarters of the horizon unless the
caller names others.

`simulate` checks the call and cuts the batch into chunks;
`_simulate_chunk` seeds and draws a chunk's paths tile by tile,
writes each tile's wealth over its draws up to the last checkpoint, and
counts their wins from checkpoint to checkpoint; past the last checkpoint
it only counts wins. With no checkpoints it draws no wealth at all: the win
counts are all that the log drift and the full-stake ruin law depend on.
Since the count, the products and the running max are sequential along a
path, the win count, W(I) and max W(0..I) at a checkpoint do not depend on
N or on the other checkpoints, and the draw never reads F; so one batch
serves every check on a prefix of its horizon, at every stake.

Every chunk runs one kernel. Its paths are drawn a time tile at a time,
by either route, and their outcomes are written to a (tile, paths) byte
table; the tile's wealth is then written, and one walk over its segments
between checkpoints counts each segment's wins and maxes its wealth in one
reduction over its rows. The win count, W and max W are carried from
tile to tile. A chunk of at least `_ROW_LOOP_PATHS` (160) paths runs the
recursion one multiply a row across its paths. A row costs about 0.4 us of
call overhead whatever its width, so a narrower chunk runs `cumprod` down
each path of the same buffer instead (the two cross between 144 and 160
paths, in BENCH_40.json). Either way each path takes the same
products left to right with one rounding per step, max does not round and
the counts are integers, so the bytes do not depend on the chunk or tile
shape, or on the draw route.

A chunk's working set is fixed in bytes, not in paths: its draws are
overwritten by the step factors, one exact integer multiply-add on their
IEEE-754 bits, and then by the wealth, so a path-step costs 8 B for the
draw and 1 B for its outcome, and a path under 0.5 kB for its seed state.
A tile is the horizon, or as many steps as fit in `_CHUNK_BYTES` for
min(paths, `_TILE_PATHS`) paths, and a chunk holds as many paths of a tile
as fit: horizons up to 1 763 steps are one tile, longer ones run in
256-path chunks of 1 763-step tiles, and a lone path in tiles of about
466 000 steps. A path's stream goes on in its next tile from the state
words its last draw left, so memory does not grow with N. Ruin is a
loss at full stake, read from the win counts, never from a wealth that
underflows to 0.0.

The regime statements are verified at the level where they are literally
true: the drift of log-wealth has the sign of U(F, p). The closed forms of
the law of W(N) that these checks compare against are in `risk_metrics`.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bernoulli_core import _check_count, _check_game, _check_threshold
from .errors import DomainError, KellyBenchError, ResourceGuardError
from .risk_metrics import expected_wealth_linear
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

# the chunks drawn in uint64 lanes, every path a step at a time: horizons of
# at most _LANE_MAX_STEPS, in chunks of at least _LANE_PATHS_PER_STEP paths a
# step of the horizon (crossovers measured in BENCH_40.json); every other
# chunk draws one path at a time
_LANE_MAX_STEPS = 64
_LANE_PATHS_PER_STEP = 30

# fewest paths whose log drift has a meaningful standard error
_MIN_DRIFT_PATHS = 100

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32 words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier (O'Neill 2014), as uint64 limbs, and the
# low limb's uint32 halves
_PCG64_MULT_HI, _PCG64_MULT_LO = 2549297995355413924, 4865540595714422341
_MULT_LO1, _MULT_LO0 = _PCG64_MULT_LO >> 32, _PCG64_MULT_LO & _MASK32
# the same as 0-d uint64 arrays for the lanes, so that every operand is a
# uint64 under NEP 50 and under value-based casting alike (a numpy scalar
# operand costs about 0.2 us more a call)
_U_MASK32, _U32, _U_ROT, _U_DOUBLE, _U_ONE, _U_63 = (
    np.array(v, dtype=np.uint64) for v in (_MASK32, 32, 58, 11, 1, 63))
_U_MULT_HI, _U_MULT_LO, _U_MULT_LO1, _U_MULT_LO0 = (
    np.array(v, dtype=np.uint64) for v in (_PCG64_MULT_HI, _PCG64_MULT_LO, _MULT_LO1, _MULT_LO0))

# where NumPy's pcg64_random_t keeps the words (state_lo, state_hi, inc_lo,
# inc_hi): memory word j is word layout[j]. A __uint128_t, little-endian as
# GCC and Clang build it, or a {high, low} struct where there is none
_PCG64_LAYOUTS = {"uint128": (0, 1, 2, 3), "high-low": (1, 0, 3, 2)}
# four distinct words, so that one layout at most reads them back
_PROBE_WORDS = (1, 2, 3, 4)


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


def _pcg64_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The words (state_lo, state_hi, inc_lo, inc_hi) of the (state, inc)
    that `np.random.default_rng((seed, k)).bit_generator` starts from, one
    row for every k in [start, stop).

    SeedSequence hashes the entropy words (the seed's little-endian uint32
    words, then k) into a 4-word pool and reads 8 words out of it; the hash
    constants do not depend on the data, so each step runs once over all k.
    Every value is a uint32 held in a uint64 array, masked after each
    product, so nothing overflows on a numpy scalar. The seed's words are
    the same for every k, so each is one element that broadcasts, and the
    pool grows to one word a path only where k mixes in. PCG64's seeding then
    runs on (hi, lo) uint64 limbs, whose array arithmetic wraps mod 2^64.
    """
    assert 0 <= start <= stop <= 2**32  # k is one entropy word
    n = stop - start
    words = []
    seed = int(seed)
    while True:
        words.append(np.array([seed & _MASK32], dtype=np.uint64))
        seed >>= 32
        if not seed:
            break
    entropy = [*words, np.arange(start, stop, dtype=np.uint64)]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # uint64 arrays wrap on the subtraction; the mask keeps it mod 2^32
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(1, dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

    hash_const = _INIT_B
    state = []
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    # uint32 pairs read little-endian as the uint64 words s_hi, s_lo, i_hi, i_lo
    s_hi, s_lo, i_hi, i_lo = (state[2 * j] | (state[2 * j + 1] << 32) for j in range(4))
    del pool, state  # freed before the limb arithmetic, which needs as many arrays

    # PCG64 srandom: inc = (initseq << 1) | 1, step from 0 (to inc), add
    # initstate, step; a comparison after a wrapping add is its carry
    inc_hi = (i_hi << 1) | (i_lo >> 63)
    inc_lo = (i_lo << 1) | 1
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo)
    # state * MULT mod 2^128: the high limb of lo * MULT_LO from 32-bit
    # partial products, then the cross terms, whose high halves fall away
    a1, a0 = lo >> 32, lo & _MASK32
    p00, p01, p10 = a0 * _MULT_LO0, a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = (a1 * _MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + hi * _PCG64_MULT_LO + lo * _PCG64_MULT_HI)
    lo = lo * _PCG64_MULT_LO + inc_lo
    hi += inc_hi + (lo < inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _pcg64_words(bit_gen: np.random.PCG64) -> tuple[np.ndarray, tuple[int, ...]]:
    """A writable view of the four uint64 words of `bit_gen`'s (state,
    inc), and their layout: memory word j holds word layout[j] of
    (state_lo, state_hi, inc_lo, inc_hi).

    The view is the generator's own memory, so it must not outlive
    `bit_gen`. NumPy's `state` property is the authority on the layout: a
    known (state, inc) is written and read back through it, and a build
    whose layout is none of `_PCG64_LAYOUTS` raises KellyBenchError rather
    than drawing other streams.
    """
    # state_address points to NumPy's pcg64_state, whose first field
    # points to the pcg64_random_t that holds (state, inc)
    address = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)
    words[:] = _PROBE_WORDS
    read = bit_gen.state["state"]
    for layout in _PCG64_LAYOUTS.values():
        lo_hi = [_PROBE_WORDS[layout.index(j)] for j in range(4)]
        if (read["state"], read["inc"]) == (lo_hi[0] | lo_hi[1] << 64, lo_hi[2] | lo_hi[3] << 64):
            return words, layout
    raise KellyBenchError(
        f"PCG64's state words are in none of the known layouts {sorted(_PCG64_LAYOUTS)}"
    )


def _native_stream() -> tuple[np.random.Generator, np.ndarray, tuple[int, ...]]:
    """One native PCG64 generator, the writable view of its state words and
    their layout (see `_pcg64_words`): the view lives as long as the tuple."""
    bit_gen = np.random.PCG64()
    words, layout = _pcg64_words(bit_gen)
    return np.random.Generator(bit_gen), words, layout


def _draw_lanes(lanes: np.ndarray, won: np.ndarray, p: float) -> None:
    """Step every path's PCG64 once a row of `won` and write the row's
    outcomes, random() < p, one uint64 lane a path.

    `lanes` holds the rows (state_lo, state_hi, inc_lo, inc_hi), one column
    a path, and is left at the state of each path's last draw. A step is
    state * MULT + inc mod 2^128: the high limb of lo * MULT_LO + inc_lo is
    summed from 32-bit partial products, so no carry is compared. The draw
    is PCG64's XSL-RR output, and NumPy's random() is (out >> 11) * 2^-53,
    so random() < p is exactly (out >> 11) < ceil(p * 2^53). Every operand
    is a uint64 array, and no shift is by 64 or more.
    """
    lo, hi, inc_lo, inc_hi = lanes
    inc0, inc1 = inc_lo & _U_MASK32, inc_lo >> _U32
    below = np.array(math.ceil(math.ldexp(p, 53)), dtype=np.uint64)
    a0, a1, t, w, x = (np.empty_like(lo) for _ in range(5))
    for row in won:
        # with lo = a1:a0 and MULT_LO = m1:m0 in 32-bit halves, each partial
        # sum below stays under 2^64; a1 ends as the high limb
        np.bitwise_and(lo, _U_MASK32, out=a0)
        np.right_shift(lo, _U32, out=a1)
        np.multiply(a0, _U_MULT_LO0, out=t)
        np.add(t, inc0, out=t)
        np.right_shift(t, _U32, out=t)
        np.multiply(a1, _U_MULT_LO0, out=w)
        np.add(t, w, out=t)
        np.add(t, inc1, out=t)
        np.multiply(a0, _U_MULT_LO1, out=w)
        np.bitwise_and(t, _U_MASK32, out=a0)
        np.add(w, a0, out=w)
        np.right_shift(t, _U32, out=t)
        np.multiply(a1, _U_MULT_LO1, out=a1)
        np.add(a1, t, out=a1)
        np.right_shift(w, _U32, out=w)
        np.add(a1, w, out=a1)
        # hi = hi * MULT_LO + lo * MULT_HI + inc_hi + that high limb, mod 2^64
        np.multiply(hi, _U_MULT_LO, out=hi)
        np.add(hi, a1, out=hi)
        np.multiply(lo, _U_MULT_HI, out=a1)
        np.add(hi, a1, out=hi)
        np.add(hi, inc_hi, out=hi)
        np.multiply(lo, _U_MULT_LO, out=lo)
        np.add(lo, inc_lo, out=lo)
        # XSL-RR: hi ^ lo rotated right by r = hi >> 58; the left part is
        # shifted by 63 - r and then by 1, which makes it 0 where r is 0
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U_ROT, out=a0)
        np.right_shift(x, a0, out=t)
        np.bitwise_xor(a0, _U_63, out=a0)
        np.left_shift(x, a0, out=x)
        np.left_shift(x, _U_ONE, out=x)
        np.bitwise_or(x, t, out=x)
        np.right_shift(x, _U_DOUBLE, out=x)
        np.less(x, below, out=row)


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


def _simulate_chunk(batch: TrajectoryBatch, start: int, stop: int, tile: int,
                    stream) -> None:
    """Simulate paths [start, stop) into their rows of the batch, `tile`
    steps at a time, by the one kernel of the module docstring.

    A tile's outcomes are drawn in uint64 lanes or one path at a time, by
    the chunk's shape; a path at a time draws from `stream()`'s generator.
    Once a tile's outcomes are written its draws are spent, and their
    buffer, viewed as (steps, paths), takes the step factors and then the
    wealth, up to the last checkpoint. One walk over the tile's segments
    then counts and maxes them and writes each checkpoint's three columns.
    """
    config = batch.config
    cps = batch.checkpoints
    last = cps[-1] if cps else 0
    rows = slice(start, stop)
    paths = stop - start
    wins = batch.wins[rows]
    lanes = config.N <= _LANE_MAX_STEPS and paths >= _LANE_PATHS_PER_STEP * config.N
    if lanes:
        # the rows (state_lo, state_hi, inc_lo, inc_hi), one column a path
        states = _pcg64_states(config.seed, start, stop).T.copy()
    else:
        # one native generator, moved to each path's substream by writing
        # its state words
        gen, words, layout = stream()
        states = _pcg64_states(config.seed, start, stop)[:, layout]
    # the working set, both buffers made before the draw; a shorter last tile
    # uses the front of each buffer
    draws = np.empty(paths * tile)
    outcomes = np.empty(paths * tile, dtype=bool)
    # carried from tile to tile: W and max W(0..I) where the tile starts,
    # scalars until the first tile's wealth: an array made before the draw
    # made perfbench's mc_wide about 3% slower
    wealth = top = config.w0
    j = 0  # the column of the tile's first checkpoint
    for t0 in range(0, config.N, tile):
        width = min(tile, config.N - t0)
        won = outcomes[:width * paths].reshape(width, paths)
        if lanes:
            _draw_lanes(states, won, config.p)
        else:
            u = draws[:paths * width].reshape(paths, width)
            carry = t0 + width < config.N  # the next tile draws on from these words
            for state, path in zip(states, u):
                words[...] = state
                gen.random(out=path)
                if carry:
                    state[...] = words
            np.less(u.T, config.p, out=won)
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
            f"{config.paths} paths x {config.N} steps exceeds {MAX_TOTAL_STEPS}"
        )
    if config.paths * (8 + 20 * len(checkpoints)) > MAX_BATCH_BYTES:
        raise ResourceGuardError(
            f"{config.paths} paths x {len(checkpoints)} checkpoints exceed "
            f"{MAX_BATCH_BYTES} B of batch arrays")
    # a path's tile of draws and outcomes, plus under 0.5 kB for its seed
    # state: the build peaks at about 160 B whatever the seed's size, and the
    # draw holds 32 B. A tile is the horizon, or as many steps as fit in the
    # budget for _TILE_PATHS paths (or all of them, if fewer)
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
    # one generator for the chunks that draw a path at a time, built on first use
    stream = functools.cache(_native_stream)
    for start in range(0, config.paths, chunk):
        _simulate_chunk(batch, start, min(start + chunk, config.paths), tile, stream)
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
