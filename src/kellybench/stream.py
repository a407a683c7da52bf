"""The outcome stream of a seeded batch: path k's outcomes are exactly
`np.random.default_rng((seed, k)).random(N) < p`, however the batch is cut.

One `default_rng` a path would spend most of its time in NumPy's
SeedSequence hash, so `_pcg64_states` computes the PCG64 starting states of
a chunk of paths at once, in uint64 arrays. A chunk then draws by one of
two routes:

- In uint64 lanes (`_draw_lanes`), every path a step at a time: the
  128-bit LCG step and the XSL-RR output (O'Neill 2014) take about 32
  array operations across the chunk's paths.
- One path at a time, from one native generator a batch, moved to each
  path's substream by writing the four uint64 words of its (state, inc)
  into the generator's memory, in the layout that `_pcg64_words` probes
  before the first such chunk draws; where it finds none, nothing is drawn.

A lane operation costs about 0.4 us of call overhead whatever the width,
and a path at a time about 0.9 us a path whatever the horizon, so a chunk
is drawn in lanes when its horizon is at most `_LANE_MAX_STEPS` (64) steps
and it holds at least `_LANE_PATHS_PER_STEP` (30) paths a step (at
mc_wide's 50 steps, in 0.64 of the per-path time; at 100, lanes never win:
BENCH_40.json).

The seeding and the lanes take the step state * MULT + inc mod 2^128 from
one in-place function, `_step`. `Outcomes.tables` is the one entry point:
it yields a chunk's (tile, paths) outcome tables and carries each path's
state words from tile to tile. The tests check the step against Python
integers and the rest against NumPy's own states and draws.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Iterator

import numpy as np

from .errors import KellyBenchError

# the chunks drawn in uint64 lanes (see the module docstring)
_LANE_MAX_STEPS = 64
_LANE_PATHS_PER_STEP = 30

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32 words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier (O'Neill 2014) as uint64 limbs, then as
# 0-d uint64 arrays with the low limb's uint32 halves and the shifts, so that
# every operand is a uint64 under NEP 50 and under value-based casting alike
# (a numpy scalar operand costs about 0.2 us more a call)
_MULT_HI, _MULT_LO = 2549297995355413924, 4865540595714422341
(_U_MULT_HI, _U_MULT_LO, _U_MULT_LO1, _U_MULT_LO0, _U_MASK32, _U32, _U_ROT, _U_DOUBLE, _U_ONE,
 _U_63) = (np.array(v, dtype=np.uint64) for v in (
    _MULT_HI, _MULT_LO, _MULT_LO >> 32, _MULT_LO & _MASK32, _MASK32, 32, 58, 11, 1, 63))

# where NumPy's pcg64_random_t keeps the words (state_lo, state_hi, inc_lo,
# inc_hi): memory word j is word layout[j]. A __uint128_t, little-endian as
# GCC and Clang build it, or a {high, low} struct where there is none
_PCG64_LAYOUTS = {"uint128": (0, 1, 2, 3), "high-low": (1, 0, 3, 2)}
_PROBE_WORDS = (1, 2, 3, 4)  # distinct, so that one layout at most reads them back


def _step(words: tuple, inc_halves: tuple, scratch: tuple) -> None:
    """Step each lane's PCG64 once, in place: state = state * MULT + inc
    mod 2^128, on `words`, the uint64 arrays (state_lo, state_hi, inc_lo, inc_hi).

    `inc_halves` is (inc_lo & (2^32 - 1), inc_lo >> 32) and `scratch` four
    uint64 arrays of the same shape. The high limb of lo * MULT_LO + inc_lo
    is summed from 32-bit partial products, so no carry is compared.
    """
    (lo, hi, inc_lo, inc_hi), (inc0, inc1), (a0, a1, t, w) = words, inc_halves, scratch
    # with lo = a1:a0 and MULT_LO = m1:m0 in 32-bit halves, each partial sum
    # below stays under 2^64; a1 ends as the high limb
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


def _pcg64_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The words (state_lo, state_hi, inc_lo, inc_hi) of the (state, inc)
    that `np.random.default_rng((seed, k)).bit_generator` starts from, one
    row for every k in [start, stop), as the transpose of one row a word.

    SeedSequence hashes the entropy words (the seed's little-endian uint32
    words, then k) into a 4-word pool and reads 8 words out of it; the hash
    constants do not depend on the data, so each step runs once over all k,
    on uint32 values held in uint64 arrays and masked after each product.
    Each seed word is one element that broadcasts, so the pool grows to one
    word a path only where k mixes in. PCG64's seeding then runs on uint64
    limbs, whose array arithmetic wraps mod 2^64.
    """
    assert 0 <= start <= stop <= 2**32  # k is one entropy word
    n = stop - start
    seed = int(seed)
    words = [np.array([seed >> s & _MASK32], dtype=np.uint64)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [*words, np.arange(start, stop, dtype=np.uint64)]

    def hasher(hash_const: int, mult: int):
        # one hash word after another, each with the next hash constant
        def hash_word(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = (hash_const * mult) & _MASK32
            value = (value * hash_const) & _MASK32
            return value ^ (value >> _XSHIFT)
        return hash_word

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # uint64 arrays wrap on the subtraction; the mask keeps it mod 2^32
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

    state = [*map(hasher(_INIT_B, _MULT_B), pool * 2)]  # 8 words, the pool's twice
    # uint32 pairs read little-endian as the uint64 words s_hi, s_lo, i_hi, i_lo
    s_hi, s_lo, i_hi, i_lo = (state[2 * j] | (state[2 * j + 1] << 32) for j in range(4))
    del pool, state  # freed before the limb arithmetic, which needs as many arrays

    # PCG64 srandom: inc = (initseq << 1) | 1, step from 0 (to inc), add
    # initstate, step; a comparison after a wrapping add is its carry. The
    # seed words are spent after the add, and are the step's scratch
    lanes = np.empty((4, n), dtype=np.uint64)
    lo, hi, inc_lo, inc_hi = lanes
    inc_hi[...] = (i_hi << 1) | (i_lo >> 63)
    inc_lo[...] = (i_lo << 1) | 1
    np.add(inc_lo, s_lo, out=lo)
    np.add(inc_hi + s_hi, lo < inc_lo, out=hi)
    _step((lo, hi, inc_lo, inc_hi), (inc_lo & _U_MASK32, inc_lo >> _U32), (s_hi, s_lo, i_hi, i_lo))
    return lanes.T


def _pcg64_words(bit_gen: np.random.PCG64) -> tuple[np.ndarray, tuple[int, ...]]:
    """A writable view of the four uint64 words of `bit_gen`'s (state,
    inc), which must not outlive `bit_gen`, and their layout: memory word j
    holds word layout[j] of (state_lo, state_hi, inc_lo, inc_hi).

    The layout is NumPy's private one, and its `state` property is the
    authority on it: a known (state, inc) is written and read back through
    it, and a build whose layout is none of `_PCG64_LAYOUTS` raises
    KellyBenchError rather than drawing other streams.
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


def _draw_lanes(lanes: np.ndarray, won: np.ndarray, p: float) -> None:
    """Step every path's PCG64 once a row of `won` and write the row's
    outcomes, random() < p, one uint64 lane a path.

    `lanes` holds the rows (state_lo, state_hi, inc_lo, inc_hi), one column
    a path, and is left at the state of each path's last draw. The draw is
    PCG64's XSL-RR output, and NumPy's random() is (out >> 11) * 2^-53, so
    random() < p is exactly (out >> 11) < ceil(p * 2^53). Every operand is
    a uint64 array, and no shift is by 64 or more.
    """
    words = lo, hi, inc_lo, _ = tuple(lanes)  # the row views, made once and not a step
    inc_halves = (inc_lo & _U_MASK32, inc_lo >> _U32)
    below = np.array(math.ceil(math.ldexp(p, 53)), dtype=np.uint64)
    scratch = r, _, t, x = [np.empty_like(lo) for _ in range(4)]
    for row in won:
        _step(words, inc_halves, scratch)
        # XSL-RR: hi ^ lo rotated right by r = hi >> 58; the left part is
        # shifted by 63 - r and then by 1, which makes it 0 where r is 0
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U_ROT, out=r)
        np.right_shift(x, r, out=t)
        np.bitwise_xor(r, _U_63, out=r)
        np.left_shift(x, r, out=x)
        np.left_shift(x, _U_ONE, out=x)
        np.bitwise_or(x, t, out=x)
        np.right_shift(x, _U_DOUBLE, out=x)
        np.less(x, below, out=row)


class Outcomes:
    """Path k's outcomes `np.random.default_rng((seed, k)).random(N) < p`
    for the paths of one batch. The chunks drawn one path at a time share one
    native generator, built and probed on the first such chunk's first tile."""

    def __init__(self, seed: int, p: float, N: int) -> None:
        self.seed, self.p, self.N = seed, p, N
        self._native = None  # a generator, the view of its state words, their layout

    def tables(self, start: int, stop: int, tile: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the (steps, paths) outcome table of paths [start, stop) for
        each tile of `tile` steps in turn (the last may be shorter), with the
        float64 buffer of paths * tile its draws were spent in, which the
        caller may overwrite. The states are computed before both buffers
        are made, and both before the first draw: that order keeps peak RSS
        down.
        """
        paths = stop - start
        lanes = self.N <= _LANE_MAX_STEPS and paths >= _LANE_PATHS_PER_STEP * self.N
        if lanes:
            states = _pcg64_states(self.seed, start, stop).T  # one column a path
        else:
            if self._native is None:
                bit_gen = np.random.PCG64()
                self._native = np.random.Generator(bit_gen), *_pcg64_words(bit_gen)
            gen, words, layout = self._native
            states = _pcg64_states(self.seed, start, stop)[:, layout]
        draws = np.empty(paths * tile)
        outcomes = np.empty(paths * tile, dtype=bool)
        for t0 in range(0, self.N, tile):
            width = min(tile, self.N - t0)
            won = outcomes[:width * paths].reshape(width, paths)
            if lanes:
                _draw_lanes(states, won, self.p)
            else:
                u = draws[:paths * width].reshape(paths, width)
                carry = t0 + width < self.N  # the next tile draws on from these words
                for state, path in zip(states, u):
                    words[...] = state
                    gen.random(out=path)
                    if carry:
                        state[...] = words
                np.less(u.T, self.p, out=won)
            yield won, draws
