"""Seeded wealth simulation, expectation oracles, and martingale checks."""

import math
import threading
import tracemalloc
from dataclasses import replace
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybench import (
    ApproximationDomainError,
    DomainError,
    KellyBenchError,
    ResourceGuardError,
    SimConfig,
    conditional_growth_factor,
    doob_bound,
    doob_decompose,
    empirical_sup_prob,
    expected_wealth_enumeration,
    expected_wealth_exponential,
    expected_wealth_linear,
    expected_wealth_product,
    f_star,
    kelly_fraction,
    log_drift_check,
    ruin_probability_full_stake,
    simulate,
)
from kellybench import martingale_lab, stream
from kellybench.cli import main
from kellybench.stream import _pcg64_states


def small_config(**overrides) -> SimConfig:
    base = dict(w0=1000.0, p=0.52, F=0.04, N=64, paths=500, seed=11)
    base.update(overrides)
    return SimConfig(**base)


# -------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(w0=0.0)
    with pytest.raises(DomainError):
        small_config(p=1.5)
    with pytest.raises(DomainError):
        small_config(F=-0.1)
    with pytest.raises(DomainError):
        small_config(paths=0)
    for counts in (dict(N=2.5), dict(paths=150.5)):  # counts are integers
        with pytest.raises(DomainError, match="must be an integer"):
            small_config(**counts)
    with pytest.raises(DomainError):
        small_config(threads=0)
    for seed in (-1, 1.5, "7", True):
        with pytest.raises(DomainError):
            small_config(seed=seed)


def test_default_checkpoints_are_quartiles():
    assert small_config(N=100).checkpoints == (25, 50, 75, 100)
    assert small_config(N=1).checkpoints == (1,)


def test_resource_guard_on_total_steps():
    for checkpoints in (None, ()):
        with pytest.raises(ResourceGuardError):
            simulate(small_config(N=100_000, paths=100_000), checkpoints=checkpoints)


def refused_peak(cfg: SimConfig) -> int:
    """The traced peak of a simulate call that the batch-byte guard refuses."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="batch arrays"):
            simulate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resource_guard_on_batch_bytes(monkeypatch):
    # 10^9 paths of one step pass MAX_TOTAL_STEPS, but their wins and one
    # checkpoint's three columns would take 28 GB: refused before any array
    # is made, and no chunk is ever drawn
    monkeypatch.setattr(martingale_lab, "_simulate_chunk", None)
    assert refused_peak(small_config(N=1, paths=10**9)) < 10**6


def test_resource_guard_counts_the_checkpoint_wins(monkeypatch):
    # 10^6 paths at one checkpoint: 24 MB of wealth columns and wins, and
    # 28 MB with the int32 win counts, so a 26 MB ceiling refuses the batch
    monkeypatch.setattr(martingale_lab, "_simulate_chunk", None)
    monkeypatch.setattr(martingale_lab, "MAX_BATCH_BYTES", 26 * 10**6)
    cfg = small_config(N=1, paths=10**6)
    assert cfg.paths * (8 + 16 * len(cfg.checkpoints)) <= martingale_lab.MAX_BATCH_BYTES
    assert refused_peak(cfg) < 10**6


def record_cumprod(monkeypatch, tile_paths=None) -> list:
    """Record the (steps, paths) of each tile whose wealth `cumprod` takes
    down its paths, with `_TILE_PATHS` and `_ROW_LOOP_PATHS` set to
    `tile_paths` if one is given; every other tile that writes wealth runs
    the row loop."""
    calls = []
    cumprod = np.cumprod

    def recording_cumprod(x, *args, **kwargs):
        calls.append(x.shape)
        return cumprod(x, *args, **kwargs)

    if tile_paths is not None:
        monkeypatch.setattr(martingale_lab, "_TILE_PATHS", tile_paths)
        monkeypatch.setattr(martingale_lab, "_ROW_LOOP_PATHS", tile_paths)
    monkeypatch.setattr(martingale_lab.np, "cumprod", recording_cumprod)
    return calls


def record_chunks(monkeypatch) -> list:
    """Record the (paths, tile) of each chunk that `simulate` runs, as it
    asks the stream for the chunk's outcome tables (`_simulate_chunk` sees
    only the tables)."""
    calls = []
    tables = stream.Outcomes.tables

    def recording_tables(self, start, stop, tile):
        calls.append((stop - start, tile))
        return tables(self, start, stop, tile)

    monkeypatch.setattr(stream.Outcomes, "tables", recording_tables)
    return calls


# _TILE_PATHS and _ROW_LOOP_PATHS that force each recursion on every chunk:
# the row loop ("step-major") or cumprod down each path ("along-path")
PASSES = {"step-major": 1, "along-path": 10**9}


def traced_peak(cfg: SimConfig, checkpoints=None) -> int:
    tracemalloc.start()
    try:
        simulate(cfg, checkpoints=checkpoints)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_memory_is_bounded_per_path_step():
    # a chunk holds its draws, overwritten by the factors and then the
    # wealth, and their outcomes; nothing more of the horizon, so the traced
    # peak stays below 1.5 float64 per path-step
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=500, paths=2000, seed=1)
    assert traced_peak(cfg) <= 1.5 * 8 * cfg.paths * cfg.N


@pytest.mark.parametrize("cfg, cumprods", [
    # 836-path chunks, each in one tile: the row loop
    (SimConfig(w0=1.0, p=0.52, F=0.04, N=500, paths=2000, seed=1), []),
    # one 128-path chunk in 3 584-step tiles: cumprod
    (SimConfig(w0=1.0, p=0.52, F=0.04, N=5000, paths=128, seed=1),
     [(3584, 128), (1416, 128)]),
], ids=["step-major", "along-path"])
def test_each_pass_peak_memory_is_bounded_per_path_step(monkeypatch, cfg, cumprods):
    # either recursion keeps 9 B a path-step: the (tile, paths) outcome
    # table, and the draws that the factors and then the wealth overwrite
    calls = record_cumprod(monkeypatch)
    assert traced_peak(cfg) <= 1.5 * 8 * cfg.paths * cfg.N
    assert calls == cumprods


def test_simulate_peak_memory_does_not_grow_with_horizon():
    # past a tile's steps the horizon is cut into time tiles: the traced
    # peak, less the batch's own arrays, is the budget's whatever N is, for
    # one path (466 000-step tiles) and for 300 (256 x 1 763-step tiles).
    # The first call in a process pays one-time allocations, so an untraced
    # call comes first.
    simulate(SimConfig(w0=1.0, p=0.5, F=0.01, N=1000, paths=1, seed=1))
    for paths, horizons in ((1, (1_000_000, 2_000_000)), (300, (4000, 8000))):
        peaks = []
        for N in horizons:
            cfg = SimConfig(w0=1.0, p=0.5, F=0.01, N=N, paths=paths, seed=1)
            peaks.append(traced_peak(cfg) - paths * (8 + 20 * len(cfg.checkpoints)))
        assert peaks[1] <= 1.01 * peaks[0]
        assert max(peaks) <= 1.25 * martingale_lab._CHUNK_BYTES


@pytest.mark.parametrize("cfg", [
    SimConfig(w0=1.0, p=0.52, F=0.04, N=500, paths=2000, seed=1),  # many chunks
    SimConfig(w0=1.0, p=0.5, F=0.01, N=1_000_000, paths=1, seed=1),  # time tiles
], ids=["chunks", "tiles"])
def test_win_counts_peak_memory_is_no_higher_than_simulate(cfg):
    # the count-only draw: the same draw buffers, and none of the wealth
    # summary's arrays. The first call in a process pays one-time
    # allocations, so an untraced call comes first.
    simulate(cfg, checkpoints=())
    assert traced_peak(cfg, checkpoints=()) <= traced_peak(cfg)


# ------------------------------------------------------ reproducibility


def test_simulation_is_bitwise_reproducible():
    a = simulate(small_config())
    b = simulate(small_config())
    assert np.array_equal(a.wins, b.wins)
    assert np.array_equal(a.checkpoint_wealth, b.checkpoint_wealth)
    assert np.array_equal(a.checkpoint_running_max, b.checkpoint_running_max)


def test_thread_count_does_not_change_results(monkeypatch):
    # every chunk runs in the calling thread, whatever the thread count
    chunk_threads = []
    simulate_chunk = martingale_lab._simulate_chunk

    def recording_chunk(*args):
        chunk_threads.append(threading.get_ident())
        return simulate_chunk(*args)

    monkeypatch.setattr(martingale_lab, "_simulate_chunk", recording_chunk)
    serial = simulate(small_config(paths=9000))
    for threads in (2, 4):
        parallel = simulate(small_config(paths=9000, threads=threads))
        assert np.array_equal(serial.wins, parallel.wins)
        assert np.array_equal(serial.checkpoint_wealth, parallel.checkpoint_wealth)
        assert np.array_equal(serial.checkpoint_running_max, parallel.checkpoint_running_max)
    assert chunk_threads == [threading.get_ident()] * 9  # 3 runs x 3 chunks


def test_seed_changes_results():
    a = simulate(small_config())
    b = simulate(small_config(seed=12))
    assert not np.array_equal(a.checkpoint_wealth[:, -1], b.checkpoint_wealth[:, -1])


# seed words: one (up to the 32-bit edge), two, three, four (with k, five
# entropy words: the hash's "remaining entropy" loop) and eight
ORACLE_SEEDS = {"0": 0, "1": 1, "2^32-1": 2**32 - 1, "2^32": 2**32, "2^64+5": 2**64 + 5,
                "2^127+3": 2**127 + 3, "2^224+12345": 2**224 + 12345}


ORACLE_KS = (0, 1, 4095, 4096, 2**31, 2**32 - 1)


def state_inc(words: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) from rows of the words (state_lo, state_hi, inc_lo, inc_hi)."""
    return [(int(s_lo) | int(s_hi) << 64, int(i_lo) | int(i_hi) << 64)
            for s_lo, s_hi, i_lo, i_hi in words]


@pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS.keys())
def test_pcg64_states_match_numpy(seed):
    for k in ORACLE_KS:
        ref = np.random.default_rng((seed, k)).bit_generator.state["state"]
        assert state_inc(_pcg64_states(seed, k, k + 1)) == [(ref["state"], ref["inc"])]
    refs = [np.random.default_rng((seed, k)).bit_generator.state["state"]
            for k in range(4090, 4100)]
    assert state_inc(_pcg64_states(seed, 4090, 4100)) == [(r["state"], r["inc"]) for r in refs]


def test_pcg64_states_peak_does_not_grow_with_the_seed():
    # the seed's words are the same for every k and are held once, so a
    # 4 000-bit seed (126 words) takes no more bytes a path than a one-word seed
    def build_peak(seed: int) -> int:
        tracemalloc.start()
        try:
            _pcg64_states(seed, 0, 8050)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    big = 2**4000 - 1
    assert build_peak(big) <= 1.1 * build_peak(7)
    refs = [np.random.default_rng((big, k)).bit_generator.state["state"] for k in (0, 8049)]
    assert state_inc(_pcg64_states(big, 0, 8050)[[0, -1]]) == [
        (r["state"], r["inc"]) for r in refs]


@pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS.keys())
def test_written_words_are_numpys_state(seed):
    # the words that Outcomes.tables writes read back, through NumPy's own state
    # property, as the state of path k's default_rng
    bit_gen = np.random.PCG64()
    words, layout = stream._pcg64_words(bit_gen)
    for k in ORACLE_KS:
        words[:] = _pcg64_states(seed, k, k + 1)[0, layout]
        assert bit_gen.state == np.random.default_rng((seed, k)).bit_generator.state


def test_unknown_state_layout_raises(monkeypatch, tmp_path, capsys):
    # with the real layout taken out, the probe finds none and nothing draws
    real = stream._pcg64_words(np.random.PCG64())[1]
    others = {name: layout for name, layout in stream._PCG64_LAYOUTS.items()
              if layout != real}
    assert len(others) == len(stream._PCG64_LAYOUTS) - 1
    monkeypatch.setattr(stream, "_PCG64_LAYOUTS", others)
    for checkpoints in (None, ()):
        with pytest.raises(KellyBenchError, match="none of the known layouts"):
            simulate(small_config(), checkpoints=checkpoints)
    # the CLI exits 2 with one error line and writes no CSV
    assert main(["simulate", "--p", "0.52", "--kelly", "--n", "10", "--paths", "200",
                 "--out", str(tmp_path)]) == 2
    assert "none of the known layouts" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", [1, 2])
def test_path_k_draws_numpy_substream_seed_k(threads):
    # 4100 paths of 500 steps span five chunks; the seed takes two entropy words
    seed, N, p = 2**32 + 17, 500, 0.52
    batch = simulate(SimConfig(w0=1.0, p=p, F=0.04, N=N, paths=4100, seed=seed,
                               threads=threads))
    oracle = [int((np.random.default_rng((seed, k)).random(N) < p).sum())
              for k in range(4100)]
    assert batch.wins.tolist() == oracle


# seeds of one, two and three 32-bit words
LANE_SEEDS = {"one-word": 7, "two-words": 2**32 + 5, "three-words": 2**70}

# p where p * 2^53 is 0, below 1, an integer (1/2, 0.52, 3/4) and 2^53 - 1 or 2^53
LANE_PS = {"zero": 0.0, "subnormal": 5e-324, "half": 0.5, "0.52": 0.52, "three-quarters": 0.75,
           "below-one": 1 - 2**-53, "one": 1.0}


def lane_ps(seed: int, N: int) -> list[float]:
    """LANE_PS, and two p that only the exact threshold reads right: a draw
    of path 0 below 1/2, m * 2^-53, which `random() < p` rejects and `<=`
    would take, and (m + 1/2) * 2^-53, whose ceil(p * 2^53) is m + 1 where
    a floor would reject the draw."""
    u = min(np.random.default_rng((seed, 0)).random(N))
    assert u < 0.5
    return [*LANE_PS.values(), u, u + 2**-54]


def numpy_outcomes(seed: int, paths: int, N: int, p: float) -> np.ndarray:
    """(paths, N) table of path k's `default_rng((seed, k)).random(N) < p`."""
    return np.array([np.random.default_rng((seed, k)).random(N) < p for k in range(paths)])


def outcome_table(batch) -> np.ndarray:
    """Per-step outcomes of a batch summarised at every step."""
    return np.diff(batch.checkpoint_wins, axis=1, prepend=0) == 1


def record_lanes(monkeypatch) -> list:
    """Record the (steps, paths) of each tile drawn in uint64 lanes."""
    calls = []
    draw_lanes = stream._draw_lanes

    def recording_lanes(lanes, won, p):
        calls.append(won.shape)
        return draw_lanes(lanes, won, p)

    monkeypatch.setattr(stream, "_draw_lanes", recording_lanes)
    return calls


@pytest.mark.parametrize("seed", LANE_SEEDS.values(), ids=LANE_SEEDS.keys())
def test_lanes_draw_numpys_outcomes(seed):
    # the lanes step each path's PCG64 themselves: their outcome table is
    # NumPy's random() < p, bit for bit, and they end on the state that
    # path's generator reaches after its N draws
    paths, N = 300, 12
    for p in lane_ps(seed, N):
        lanes = _pcg64_states(seed, 0, paths).T.copy()
        won = np.empty((N, paths), dtype=bool)
        stream._draw_lanes(lanes, won, p)
        assert np.array_equal(won.T, numpy_outcomes(seed, paths, N, p)), p
    gens = [np.random.default_rng((seed, k)) for k in range(paths)]
    for gen in gens:
        gen.random(N)
    assert state_inc(lanes.T) == [(g.bit_generator.state["state"]["state"],
                                   g.bit_generator.state["state"]["inc"]) for g in gens]


@pytest.mark.parametrize("seed", LANE_SEEDS.values(), ids=LANE_SEEDS.keys())
def test_lane_route_keeps_the_bytes(monkeypatch, seed):
    # 32-path chunks in 7-step tiles, drawn one path at a time and then
    # forced into lanes, which carry each path's state from tile to tile:
    # the outcome table is NumPy's and every batch array is the same, at
    # each p of lane_ps
    paths, N = 64, 20
    cps = tuple(range(1, N + 1))
    monkeypatch.setattr(martingale_lab, "_TILE_PATHS", 32)
    monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", tile_budget(32, 7))
    chunks = record_chunks(monkeypatch)
    tiles = record_lanes(monkeypatch)
    for p in lane_ps(seed, N):
        cfg = SimConfig(w0=1.0, p=p, F=0.25, N=N, paths=paths, seed=seed)
        batches = []
        for max_steps, paths_per_step in ((0, 0), (N, 0)):
            monkeypatch.setattr(stream, "_LANE_MAX_STEPS", max_steps)
            monkeypatch.setattr(stream, "_LANE_PATHS_PER_STEP", paths_per_step)
            chunks.clear()
            tiles.clear()
            batches.append(simulate(cfg, checkpoints=cps))
            assert chunks == [(32, 7)] * 2
        assert tiles == [(7, 32), (7, 32), (6, 32)] * 2
        loop, lanes = batches
        assert np.array_equal(outcome_table(lanes), numpy_outcomes(seed, paths, N, p)), p
        for field in ("wins", "checkpoint_wins", "checkpoint_wealth", "checkpoint_running_max"):
            assert np.array_equal(getattr(lanes, field), getattr(loop, field)), (p, field)


def test_one_batch_takes_both_routes(monkeypatch):
    # 400-path chunks at N = 10 are drawn in lanes and the last 100 paths,
    # under 30 a step, one at a time; the batch reads as the per-path route
    seed, paths, N = 2**32 + 5, 900, 10
    monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", 400 * (9 * N + 512))
    chunks = record_chunks(monkeypatch)
    tiles = record_lanes(monkeypatch)
    for p in lane_ps(seed, N):
        chunks.clear()
        tiles.clear()
        batch = simulate(SimConfig(w0=1.0, p=p, F=0.5, N=N, paths=paths, seed=seed),
                         checkpoints=tuple(range(1, N + 1)))
        assert chunks == [(400, N), (400, N), (100, N)]
        assert tiles == [(N, 400), (N, 400)]
        assert np.array_equal(outcome_table(batch), numpy_outcomes(seed, paths, N, p)), p
    # and its wealth is the per-path route's
    monkeypatch.setattr(stream, "_LANE_MAX_STEPS", 0)
    loop = simulate(batch.config, checkpoints=batch.checkpoints)
    for field in ("wins", "checkpoint_wins", "checkpoint_wealth", "checkpoint_running_max"):
        assert np.array_equal(getattr(batch, field), getattr(loop, field)), field


# (N, paths, checkpoints, lanes): a chunk of at least 30 paths a step of a
# horizon of at most 64 steps is drawn in lanes, here at both sides of each
# cut. mc_wide's chunks are lanes; mc_long, verify --quick's shared batch
# and the 200-path batch of its Doob row, and the shapes of
# test_unknown_state_layout_raises draw one path at a time
ROUTE_SHAPES = {
    "mc_wide": (50, 100_000, (), True),
    "at-both-cuts": (64, 1920, None, True),
    "past-the-horizon-cut": (65, 100_000, (), False),
    "under-the-width-cut": (64, 1919, None, False),
    "one-step": (1, 30, None, True),
    "one-step-narrow": (1, 29, None, False),
    "mc_long": (5000, 2000, (), False),
    "verify-quick-shared": (300, 20_000, (), False),
    "verify-doob": (20, 200, None, False),
    "layout-test": (64, 500, None, False),
    "layout-test-cli": (10, 200, None, False),
}


@pytest.mark.parametrize("N, paths, checkpoints, lanes", ROUTE_SHAPES.values(),
                         ids=ROUTE_SHAPES.keys())
def test_route_follows_the_measured_crossover(monkeypatch, N, paths, checkpoints, lanes):
    chunks = record_chunks(monkeypatch)
    tiles = record_lanes(monkeypatch)
    simulate(SimConfig(w0=1.0, p=0.52, F=0.04, N=N, paths=paths, seed=1), checkpoints)
    assert tiles == ([(tile, width) for width, tile in chunks] if lanes else [])


def test_one_generator_a_simulate_call(monkeypatch):
    # five chunks of one path at a time build and probe one generator
    # between them; a call whose chunks are all lanes builds none
    probes = []
    pcg64_words = stream._pcg64_words

    def counting_words(bit_gen):
        probes.append(bit_gen)
        return pcg64_words(bit_gen)

    monkeypatch.setattr(stream, "_pcg64_words", counting_words)
    chunks = record_chunks(monkeypatch)
    simulate(SimConfig(w0=1.0, p=0.52, F=0.04, N=500, paths=4100, seed=3))
    assert len(chunks) == 5
    assert len(probes) == 1
    probes.clear()
    simulate(SimConfig(w0=1.0, p=0.52, F=0.04, N=40, paths=4100, seed=3))
    assert probes == []


# PCG64's 128-bit multiplier as O'Neill's reference code states it
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
LIMB = 2**64 - 1


def shared_step(pairs: list[tuple[int, int]]) -> list[int]:
    """Each (state, inc) stepped once by the seeding's and the lanes' one
    step, one column a pair; the inc words must come back unchanged."""
    words = [[s & LIMB, s >> 64, i & LIMB, i >> 64] for s, i in pairs]
    lanes = np.array(words, dtype=np.uint64).T.copy()
    inc_lo = lanes[2].copy()
    scratch = [np.empty_like(inc_lo) for _ in range(4)]
    stream._step(tuple(lanes), (inc_lo & 0xFFFFFFFF, inc_lo >> 32), scratch)
    assert lanes[2:].T.tolist() == [w[2:] for w in words]
    return [int(lo) | int(hi) << 64 for lo, hi in zip(lanes[0], lanes[1])]


# (state, inc) where a partial sum or a limb carries: an all-ones low limb,
# inc_lo all ones, inc = 1, all-ones words, the 32-bit halves at their top,
# and state * MULT = 2^128 - 1, where only inc's lowest bit carries into the
# high limb
STEP_EDGES = {
    "wraps-to-zero": (-pow(PCG64_MULT, -1, 2**128) % 2**128, 1),
    "state-lo-all-ones": (2**64 - 1, 2 * 12345 + 1),
    "inc-lo-all-ones": (2**100 + 7, 2**64 - 1),
    "both-lo-all-ones": (2**64 - 1, 2**64 - 1),
    "inc-one": (2**128 - 2**64 + 5, 1),
    "all-ones": (2**128 - 1, 2**128 - 1),
    "zero-state": (0, 2**128 - 1),
    "lo-halves-top": (2**128 - 2**32, 2**64 - 2**32 + 1),
    "state-is-mult": (PCG64_MULT, PCG64_MULT),
}


@pytest.mark.parametrize("state, inc", STEP_EDGES.values(), ids=STEP_EDGES.keys())
def test_step_is_the_lcg_step_at_carry_edges(state, inc):
    want = (state * PCG64_MULT + inc) % 2**128
    assert shared_step([(state, inc)]) == [want]
    # and in a column among others, which share nothing with it
    pairs = [*STEP_EDGES.values()]
    assert shared_step(pairs) == [(s * PCG64_MULT + i) % 2**128 for s, i in pairs]


@given(pairs=st.lists(st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1)),
                      min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_step_matches_python_integers(pairs):
    assert shared_step(pairs) == [(s * PCG64_MULT + i) % 2**128 for s, i in pairs]


KERNEL_CONFIGS = {
    "growth": small_config(N=100, paths=30),
    "decay": small_config(N=100, paths=30, p=0.45, F=0.5),
    "full-stake": small_config(N=100, paths=30, F=1.0),
}


def tile_budget(paths: int, tile: int) -> int:
    """The `_CHUNK_BYTES` for which `simulate` cuts the batch into `tile`-step
    tiles, `paths` paths a chunk, when `_TILE_PATHS` is `paths`: 9 B a
    path-step and 512 B a path."""
    return paths * (9 * tile + 512)


# the chunk shapes of the 30-path, 100-step KERNEL_CONFIGS: _TILE_PATHS is
# set to the chunk width, and _CHUNK_BYTES to the budget of its tile. The
# ids are kept from an earlier shape rule, whose budgets they name; the
# tile and chunk they name are these
CHUNK_SHAPES = [
    # 2-path chunks, the horizon in one tile
    pytest.param(2, 100, id="4000-100-2"),
    # 37-step tiles: checkpoints inside tiles, a short last tile
    pytest.param(1, 37, id="296-37-1"),
    # 25-step tiles: every checkpoint on a tile edge
    pytest.param(1, 25, id="200-25-1"),
    # a tile per step
    pytest.param(1, 1, id="8-1-1"),
]


@pytest.mark.parametrize("chunk, tile", CHUNK_SHAPES)
@pytest.mark.parametrize("name", KERNEL_CONFIGS)
def test_chunks_and_time_tiles_keep_the_bytes(monkeypatch, name, chunk, tile):
    # the default is one 30-path chunk in one tile, whose wealth cumprod
    # takes; these chunks are at least _TILE_PATHS wide and take the row loop
    cfg = KERNEL_CONFIGS[name]
    default = simulate(cfg)
    calls = record_chunks(monkeypatch)
    cumprods = record_cumprod(monkeypatch, chunk)
    monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", tile_budget(chunk, tile))
    small = simulate(cfg)
    assert calls == [(chunk, tile)] * (cfg.paths // chunk)
    assert cumprods == []
    assert np.array_equal(small.wins, default.wins)
    assert np.array_equal(small.checkpoint_wealth, default.checkpoint_wealth)
    assert np.array_equal(small.checkpoint_running_max, default.checkpoint_running_max)


@pytest.mark.parametrize("chunk, tile", [
    # the default budget: the batch in one chunk
    pytest.param(30, 100, id="None-100-30"),
    *CHUNK_SHAPES,
])
@pytest.mark.parametrize("name", KERNEL_CONFIGS)
def test_win_counts_equal_simulate_wins(monkeypatch, name, chunk, tile):
    cfg = KERNEL_CONFIGS[name]
    wins = simulate(cfg).wins
    calls = record_chunks(monkeypatch)
    if chunk < cfg.paths:
        monkeypatch.setattr(martingale_lab, "_TILE_PATHS", chunk)
        monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", tile_budget(chunk, tile))
    counts = simulate(cfg, checkpoints=()).wins
    assert calls == [(chunk, tile)] * (cfg.paths // chunk)
    assert counts.dtype == wins.dtype
    assert np.array_equal(counts, wins)


# 10 paths: 7-path chunks of one step, one chunk in 37-, 25- and 1-step tiles
@pytest.mark.parametrize("budget", [None, 4000, tile_budget(10, 37), tile_budget(10, 25),
                                    tile_budget(10, 1)],
                         ids=["default", "chunks", "tiles-37", "tiles-25", "tile-per-step"])
@pytest.mark.parametrize("name", KERNEL_CONFIGS)
def test_checkpoint_columns_are_the_runs_of_their_horizons(monkeypatch, name, budget):
    # the column at checkpoint I is the last column of a run of horizon I:
    # a batch at N = 100 serves checks at 25, 60 and 99 with their own bytes,
    # its win count at I is the count-only draw of horizon I, and its win
    # counts still cover all 100 steps. The tiles put checkpoints inside a
    # tile, on its edge and in a short last tile, where the count is carried
    cfg = replace(KERNEL_CONFIGS[name], paths=10)
    cps = (25, 60, 99)
    if budget is not None:
        monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", budget)
    batch = simulate(cfg, checkpoints=cps)
    assert batch.checkpoints == cps
    assert batch.checkpoint_wins.dtype == np.int32
    assert np.array_equal(batch.wins, simulate(cfg, checkpoints=()).wins)
    for j, c in enumerate(cps):
        own = simulate(replace(cfg, N=c))
        assert np.array_equal(batch.checkpoint_wealth[:, j], own.checkpoint_wealth[:, -1])
        assert np.array_equal(batch.checkpoint_running_max[:, j],
                              own.checkpoint_running_max[:, -1])
        assert np.array_equal(batch.checkpoint_wins[:, j],
                              simulate(replace(cfg, N=c), checkpoints=()).wins)


@pytest.mark.parametrize("name", KERNEL_CONFIGS)
def test_both_passes_keep_the_kernel_bytes(monkeypatch, name):
    # every batch array, the checkpoint win counts included, is the same
    # from either recursion, at the default checkpoints, one inside the
    # horizon and the first and last steps. A chunk of exactly _ROW_LOOP_PATHS
    # paths runs the row loop and one a path narrower runs cumprod, on the
    # same one-tile chunk; a count-only draw runs neither
    cfg = KERNEL_CONFIGS[name]
    default = simulate(cfg)
    calls = record_cumprod(monkeypatch)
    fields = ("wins", "checkpoint_wins", "checkpoint_wealth", "checkpoint_running_max")
    for checkpoints in (None, (25, 60, 99), (1,), (1, 100), ()):
        batches = []
        for tile_paths in (cfg.paths, cfg.paths + 1):
            monkeypatch.setattr(martingale_lab, "_ROW_LOOP_PATHS", tile_paths)
            calls.clear()
            batches.append(simulate(cfg, checkpoints=checkpoints))
            last = batches[-1].checkpoints[-1] if checkpoints != () else 0
            assert calls == ([(last, cfg.paths)] if tile_paths > cfg.paths and last else [])
        for field in fields:
            assert np.array_equal(getattr(batches[0], field), getattr(batches[1], field))
    # the row loop on 2-path chunks and on one-path 37-step tiles
    chunks = record_chunks(monkeypatch)
    for chunk, tile in ((2, cfg.N), (1, 37)):
        monkeypatch.setattr(martingale_lab, "_TILE_PATHS", chunk)
        monkeypatch.setattr(martingale_lab, "_ROW_LOOP_PATHS", chunk)
        monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", tile_budget(chunk, tile))
        chunks.clear()
        calls.clear()
        small = simulate(cfg)
        assert chunks == [(chunk, tile)] * (cfg.paths // chunk)
        assert calls == []
        for field in fields:
            assert np.array_equal(getattr(small, field), getattr(default, field))


def test_prefix_contract_holds_across_passes(monkeypatch):
    # the horizon-2000 batch runs in two 1 763-step tiles, a 256-path chunk
    # and a 244-path one, both on the row loop, while its own run of horizon
    # 50 is one chunk and that of horizon 1000 holds its horizon in one tile
    # (a 440-path chunk on the row loop, a 60-path one on cumprod); the
    # column at I is still bit for bit the run of horizon I
    chunks = record_chunks(monkeypatch)
    calls = record_cumprod(monkeypatch)
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=2000, paths=500, seed=3)
    cps = (50, 1000, 1900)
    batch = simulate(cfg, checkpoints=cps)
    assert chunks == [(256, 1763), (244, 1763)]
    assert calls == []
    own_chunks = {50: [(500, 50)], 1000: [(440, 1000), (60, 1000)],
                  1900: [(256, 1763), (244, 1763)]}
    own_cumprods = {50: [], 1000: [(1000, 60)], 1900: []}
    for j, c in enumerate(cps):
        chunks.clear()
        calls.clear()
        own = simulate(replace(cfg, N=c))
        assert chunks == own_chunks[c]
        assert calls == own_cumprods[c]
        assert np.array_equal(batch.checkpoint_wealth[:, j], own.checkpoint_wealth[:, -1])
        assert np.array_equal(batch.checkpoint_running_max[:, j], own.checkpoint_running_max[:, -1])
        assert np.array_equal(batch.checkpoint_wins[:, j], own.checkpoint_wins[:, -1])
        assert np.array_equal(batch.checkpoint_wins[:, j],
                              simulate(replace(cfg, N=c), checkpoints=()).wins)


def test_checkpoints_must_increase_within_the_horizon():
    cfg = small_config(N=100)
    assert simulate(cfg).checkpoints == cfg.checkpoints
    for cps in ((0, 50), (50, 101), (50, 50), (60, 50)):
        with pytest.raises(DomainError, match="must increase within"):
            simulate(cfg, checkpoints=cps)
    count_only = simulate(cfg, checkpoints=())
    assert count_only.checkpoint_wealth.shape == (cfg.paths, 0)
    with pytest.raises(DomainError):
        empirical_sup_prob(count_only, 1.5 * cfg.w0)


def test_sup_prob_rejects_a_threshold_that_is_not_positive():
    # by the same rule as the bound it is compared with
    cfg = small_config(N=20)
    batch = simulate(cfg)
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="must be positive"):
            empirical_sup_prob(batch, lam)
        with pytest.raises(DomainError, match="must be positive"):
            doob_bound(cfg.w0, cfg.p, cfg.F, cfg.N, lam)


def test_sup_prob_reads_the_checkpoint_of_its_column():
    batch = simulate(small_config(N=100))
    lam = 1.02 * batch.config.w0
    shares = [empirical_sup_prob(batch, lam, j) for j in range(len(batch.checkpoints))]
    assert shares == [float(np.mean(col >= lam)) for col in batch.checkpoint_running_max.T]
    assert empirical_sup_prob(batch, lam) == shares[-1]
    assert shares == sorted(shares) and shares[0] < shares[-1]


def test_win_counts_do_not_read_the_stake():
    # so the drift row's three stakes can share one draw
    cfg = small_config(N=100, paths=300)
    wins = simulate(cfg, checkpoints=()).wins
    for F in (0.0, f_star(cfg.p), 0.5, 1.0):
        assert np.array_equal(simulate(replace(cfg, F=F)).wins, wins)


# ------------------------------------------------------ exact recursion


def assert_follows_literal_recursion(batch):
    # replay path k's substream through the literal float recursion, one
    # product per step, and keep its running maximum from w0
    cfg = batch.config
    for k in range(cfg.paths):
        w = top = cfg.w0
        walk = []
        for u in np.random.default_rng((cfg.seed, k)).random(cfg.N).tolist():
            w = w * (1.0 + cfg.F) if u < cfg.p else w * (1.0 - cfg.F)
            top = max(top, w)
            walk.append((w, top))
        for j, cp in enumerate(batch.checkpoints):
            assert batch.checkpoint_wealth[k, j] == walk[cp - 1][0]
            assert batch.checkpoint_running_max[k, j] == walk[cp - 1][1]


def test_wealth_follows_exact_multiplicative_recursion():
    for cfg in (small_config(N=63), small_config(N=63, p=0.45, F=0.1), small_config(N=3)):
        assert_follows_literal_recursion(simulate(cfg))


# the stakes at which the factor map is checked bit for bit
EDGE_STAKES = {"zero": 0.0, "subnormal": 5e-324, "third": 1 / 3, "three-quarters": 0.75,
               "below-one": math.nextafter(1.0, 0.0), "one": 1.0}


@pytest.mark.parametrize("budget", [None, tile_budget(20, 37)], ids=["default", "tiles-37"])
@pytest.mark.parametrize("F", EDGE_STAKES.values(), ids=EDGE_STAKES.keys())
def test_factor_map_is_exact_at_edge_stakes(monkeypatch, F, budget):
    # the step factors are written as integers on their bits: a win is 1.0 + F
    # and a loss 1.0 - F exactly, at F = 0, at a stake that rounds both to
    # 1.0, past 1/3, and where 1.0 - F is 2^-53 or +0.0
    if budget is not None:
        monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", budget)
    assert_follows_literal_recursion(simulate(small_config(N=100, paths=20, F=F)))


@pytest.mark.parametrize("F", EDGE_STAKES.values(), ids=EDGE_STAKES.keys())
@pytest.mark.parametrize("pass_name", PASSES)
def test_each_pass_follows_the_literal_recursion(monkeypatch, pass_name, F):
    calls = record_cumprod(monkeypatch, PASSES[pass_name])
    assert_follows_literal_recursion(simulate(small_config(N=100, paths=20, F=F)))
    assert calls == ([] if pass_name == "step-major" else [(100, 20)])


@pytest.mark.parametrize("paths, N, checkpoints, tile_paths, budget, chunks, cumprods", [
    # one 30-path chunk in 37-step tiles: cumprod
    (30, 100, (20, 50, 74, 90), None, tile_budget(30, 37), [(30, 37)],
     [(37, 30), (37, 30), (16, 30)]),
    # three 10-path chunks in 37-step tiles: the row loop
    (30, 100, (20, 50, 74, 90), 10, tile_budget(10, 37), [(10, 37)] * 3, []),
    # the default budget: a 256-path chunk on the row loop and a 4-path one
    # on cumprod, in 1 763-step tiles
    (260, 2000, (1000, 1763, 1900), None, None, [(256, 1763), (4, 1763)],
     [(1763, 4), (137, 4)]),
], ids=["cumprod", "row-loop", "default-budget"])
def test_each_stream_continues_across_tiles(monkeypatch, paths, N, checkpoints, tile_paths,
                                            budget, chunks, cumprods):
    # every path of a chunk is drawn tile by tile, and its stream goes on
    # where the last tile left it: at a checkpoint inside a tile, on a tile
    # edge and in the short last tile, the win counts and the wealth are
    # those of path k's own default_rng((seed, k))
    cfg = SimConfig(w0=1.0, p=0.52, F=0.04, N=N, paths=paths, seed=13)
    if tile_paths is not None:
        monkeypatch.setattr(martingale_lab, "_TILE_PATHS", tile_paths)
        monkeypatch.setattr(martingale_lab, "_ROW_LOOP_PATHS", tile_paths)
    if budget is not None:
        monkeypatch.setattr(martingale_lab, "_CHUNK_BYTES", budget)
    calls = record_chunks(monkeypatch)
    recursions = record_cumprod(monkeypatch)
    batch = simulate(cfg, checkpoints=checkpoints)
    assert calls == chunks
    assert recursions == cumprods
    won = np.array([np.random.default_rng((cfg.seed, k)).random(N) < cfg.p
                    for k in range(paths)])
    assert batch.wins.tolist() == won.sum(axis=1).tolist()
    assert batch.checkpoint_wins.tolist() == (
        won.cumsum(axis=1)[:, np.array(checkpoints) - 1].tolist())
    assert_follows_literal_recursion(batch)


def test_win_counts_consistent_with_final_wealth():
    batch = simulate(small_config())
    cfg = batch.config
    rebuilt = cfg.w0 * (1.0 + cfg.F) ** batch.wins * (1.0 - cfg.F) ** (cfg.N - batch.wins)
    assert np.allclose(rebuilt, batch.checkpoint_wealth[:, -1], rtol=1e-12)


def test_running_max_dominates_checkpoints():
    batch = simulate(small_config())
    assert np.all(batch.checkpoint_running_max[:, -1] >= batch.checkpoint_wealth.max(axis=1))
    assert np.all(batch.checkpoint_running_max >= batch.config.w0)


# -------------------------------------------------- expectation oracles


@pytest.mark.parametrize("p", [0.51, 0.52, 0.6])
@pytest.mark.parametrize("F", [0.02, 0.04, 0.2])
@pytest.mark.parametrize("N", [1, 5, 10, 20])
def test_linear_expectation_matches_enumeration(p, F, N):
    oracle = expected_wealth_enumeration(1000.0, p, F, N)
    assert expected_wealth_linear(1000.0, p, F, N) == pytest.approx(oracle, rel=1e-10)


def test_product_expectation_deviates_from_oracle():
    value = expected_wealth_product(1000.0, 0.52, 0.2, 20)
    oracle = expected_wealth_enumeration(1000.0, 0.52, 0.2, 20)
    assert value != pytest.approx(oracle, rel=1e-10)
    assert value < oracle  # the factorized form undershoots for F > 0


def test_exponential_estimate_tracks_linear_form_for_small_stakes():
    assert expected_wealth_exponential(1000.0, 0.52, 0.01, 50) == pytest.approx(
        expected_wealth_linear(1000.0, 0.52, 0.01, 50), rel=1e-3
    )
    with pytest.raises(ApproximationDomainError):
        expected_wealth_exponential(1.0, 0.52, 0.2, 10)


def test_linear_expectation_is_guarded_in_log_space():
    # g^N alone leaves float64 here, but w0 g^N ~ 1e122 does not
    g = 1.0 + 0.8 * (2 * 0.9 - 1.0)
    exact = float(Fraction(1e-200) * Fraction(g) ** 1500)
    assert expected_wealth_linear(1e-200, 0.9, 0.8, 1500) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ResourceGuardError):  # g^N itself beyond float64
        expected_wealth_linear(1.0, 0.9, 0.8, 1500)
    with pytest.raises(ResourceGuardError):  # g^N fits, w0 g^N does not
        expected_wealth_linear(1e300, 0.9, 0.8, 40)
    assert expected_wealth_linear(1.0, 0.0, 1.0, 5) == 0.0


def test_decomposition_where_g_power_leaves_float64():
    # g^1500 ~ e^742: M(I) against the exact W(I) g^(-I), with g the library's
    # float, to 1e-14 relative and no absolute slack, though M(I) is near 1e-200
    cfg = SimConfig(w0=1e-200, p=0.9, F=0.8, N=1500, paths=200, seed=1)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    g = Fraction(conditional_growth_factor(cfg.p, cfg.F))
    for j, cp in enumerate(batch.checkpoints):
        expected = expected_wealth_linear(cfg.w0, cfg.p, cfg.F, cp)
        assert dec.drift[j] + cfg.w0 == pytest.approx(expected, rel=1e-12)
        wealth, mart = batch.checkpoint_wealth[:, j].tolist(), dec.martingale_part[:, j].tolist()
        for w, m in zip(wealth, mart):
            exact = Fraction(w) / g**cp  # W(I) > 0: no path underflows here
            rel = float(abs(Fraction(m) - exact) / exact)
            assert rel <= 1e-14


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        expected_wealth_enumeration(1.0, 0.52, 0.04, 2_000_000)


@pytest.mark.parametrize("closed_form", [
    expected_wealth_linear,
    expected_wealth_product,
    expected_wealth_exponential,
    expected_wealth_enumeration,
])
def test_closed_forms_validate_the_game(closed_form):
    for w0, p, F, N in ((0.0, 0.52, 0.04, 10), (math.inf, 0.52, 0.04, 10), (1.0, 1.5, 0.04, 10),
                        (1.0, 0.52, -0.1, 10), (1.0, 0.52, 0.04, 0), (1.0, 0.52, 0.04, 2.5)):
        with pytest.raises(DomainError):
            closed_form(w0, p, F, N)


@pytest.mark.parametrize("closed_form, game, log_growth", [
    (expected_wealth_linear, (1.0, 1.0, 1.0, 1500), 1500 * math.log(2.0)),  # g = 2
    (expected_wealth_product, (1.0, 1.0, 1.0, 1500), 1500 * math.log(2.0)),  # (1 + F) (1 - 0)
    (expected_wealth_exponential, (1.0, 1.0, 0.1, 10000), 1000.0),  # N F (2p - 1)
    (expected_wealth_enumeration, (1.0, 0.52, 1.0, 2000), None),  # W(N) = 2^2000
], ids=["linear", "product", "exponential", "enumeration"])
def test_closed_forms_guard_float64(closed_form, game, log_growth):
    # E[W(N)] beyond float64 is a ResourceGuardError, never an OverflowError;
    # in the closed forms a small w0 brings a growth beyond float64 back into range
    with pytest.raises(ResourceGuardError):
        closed_form(*game)
    if log_growth is not None:
        value = closed_form(1e-300, *game[1:])
        assert value == pytest.approx(math.exp(math.log(1e-300) + log_growth), rel=1e-12)


@pytest.mark.parametrize("closed_form, game, exact", [
    (expected_wealth_linear, (1e300, 0.0, 0.5, 2000), Fraction(1e300) / 2**2000),  # g = 1/2
    (expected_wealth_product, (1e300, 0.0, 0.5, 2000), Fraction(1e300) / 2**2000),
    (expected_wealth_exponential, (1e300, 0.0, 0.1, 7500),  # N F (2p - 1) = -750
     Decimal(1e300) * Decimal(-750).exp(Context(prec=40))),
], ids=["linear", "product", "exponential"])
def test_closed_forms_keep_a_normal_value_whose_power_underflows(closed_form, game, exact):
    # g^N or exp(N F (2p - 1)) alone is below float64's normal range, where
    # w0 times it is not: the value is read from its log, not rounded to 0
    assert math.isclose(closed_form(*game), float(exact), rel_tol=1e-12)  # no absolute slack


# ------------------------------------------------------ drift and ruin


def test_one_step_growth_factor_and_martingale_ratio():
    g = conditional_growth_factor(0.52, 0.04)
    assert g == pytest.approx(1.0 + 0.04 * (2 * 0.52 - 1.0), abs=1e-15)
    assert g > 1.0  # raw wealth drifts up whenever the edge is positive


def test_drift_sign_matches_utility_in_each_regime():
    p = 0.52
    for F, sign in ((kelly_fraction(p), 1), (f_star(p), 0), (0.2, -1)):
        batch = simulate(
            SimConfig(w0=1000.0, p=p, F=F, N=400, paths=20_000, seed=5)
        )
        chk = log_drift_check(batch.config, batch.wins)
        assert abs(chk.z_score) <= 3.0
        if sign > 0:
            assert chk.empirical_drift - 3.0 * chk.se > 0.0
        elif sign < 0:
            assert chk.empirical_drift + 3.0 * chk.se < 0.0


def test_drift_check_needs_surviving_paths():
    batch = simulate(SimConfig(w0=1.0, p=0.52, F=0.04, N=10, paths=50, seed=1))
    with pytest.raises(DomainError):
        log_drift_check(batch.config, batch.wins)


def test_full_stake_ruin_is_absorbed_at_zero():
    N = 20
    batch = simulate(
        SimConfig(w0=1000.0, p=0.52, F=1.0, N=N, paths=20_000, seed=9)
    )
    # every ruined path is absorbed at exactly zero, survivors double each win
    final = batch.checkpoint_wealth[:, -1]
    ruined = martingale_lab._ruined(batch.config, batch.wins)
    assert np.all(final[ruined] == 0.0)
    assert np.all(final[~ruined] == 1000.0 * 2.0**N)


def test_certain_win_full_stake_doubles_every_trial():
    for N, paths in ((30, 10), (50, 100)):
        batch = simulate(SimConfig(w0=1000.0, p=1.0, F=1.0, N=N, paths=paths, seed=0))
        assert np.all(batch.checkpoint_wealth[:, -1] == 1000.0 * 2.0**N)


def test_ruin_is_read_from_win_counts():
    # at p = 0.3 and F = 1/2 every path's wealth underflows to 0.0 by N = 3000,
    # yet none lost at full stake: each keeps a finite log growth
    batch = simulate(SimConfig(w0=1.0, p=0.3, F=0.5, N=3000, paths=300, seed=1))
    assert np.all(batch.checkpoint_wealth[:, -1] == 0.0)
    assert not martingale_lab._ruined(batch.config, batch.wins).any()
    chk = log_drift_check(batch.config, batch.wins)
    assert math.isfinite(chk.empirical_drift)
    assert chk.excluded_ruined == 0
    assert abs(chk.z_score) <= 3.0


def test_full_stake_drift_has_no_finite_theory():
    # U(1, p) = -inf for p < 1, so the survivors' drift has nothing to match;
    # at p = 1 no path is ruined and U(1, 1) = log 2 is the drift, with no
    # spread to state a z-score against
    cfg = SimConfig(w0=1.0, p=0.99, F=1.0, N=5, paths=1000, seed=1)
    chk = log_drift_check(cfg, simulate(cfg, checkpoints=()).wins)
    assert math.isnan(chk.theory) and math.isnan(chk.z_score)
    assert chk.empirical_drift == math.log(2.0) and chk.se == 0.0
    assert chk.excluded_ruined > 0
    sure = SimConfig(w0=1.0, p=1.0, F=1.0, N=5, paths=100, seed=1)
    chk = log_drift_check(sure, simulate(sure, checkpoints=()).wins)
    assert chk.theory == chk.empirical_drift == math.log(2.0)
    assert chk.se == 0.0 and math.isnan(chk.z_score) and chk.excluded_ruined == 0


def test_ruin_probability_closed_form():
    assert ruin_probability_full_stake(1.0, 50) == 0.0
    assert ruin_probability_full_stake(0.0, 1) == 1.0
    assert ruin_probability_full_stake(0.52, 2) == pytest.approx(1 - 0.52**2, abs=1e-15)
    for p in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match=r"probability .* outside \[0, 1\]"):
            ruin_probability_full_stake(p, 2)
    with pytest.raises(DomainError, match="trial count 0 must be at least 1"):
        ruin_probability_full_stake(0.5, 0)


# ---------------------------------------------------------- doob checks


def test_maximal_inequality_holds_on_lambda_grid():
    cfg = SimConfig(w0=1000.0, p=0.52, F=0.04, N=100, paths=20_000, seed=3)
    batch = simulate(cfg)
    for lam in np.linspace(1.01, 2.0, 20) * cfg.w0:
        bound = doob_bound(cfg.w0, cfg.p, cfg.F, cfg.N, float(lam))
        assert empirical_sup_prob(batch, float(lam)) <= bound


@pytest.mark.parametrize("p", [0.3, 0.45, 0.5, 0.55, 0.7])
def test_maximal_inequality_holds_in_both_regimes(p):
    # sub- and supermartingale alike: P(sup W >= lam) <= max(w0, E[W(N)]) / lam
    cfg = SimConfig(w0=1000.0, p=p, F=0.1, N=200, paths=2000, seed=13)
    batch = simulate(cfg)
    for lam in np.linspace(1.01, 2.0, 20) * cfg.w0:
        bound = doob_bound(cfg.w0, p, cfg.F, cfg.N, float(lam))
        assert bound >= min(1.0, cfg.w0 / lam)
        assert empirical_sup_prob(batch, float(lam)) <= bound


def test_doob_bound_caps_at_one():
    assert doob_bound(1000.0, 0.52, 0.04, 64, 1e-9) == 1.0
    with pytest.raises(DomainError):
        doob_bound(1000.0, 0.52, 0.04, 64, 0.0)


def test_martingale_part_mean_stays_flat():
    cfg = SimConfig(w0=1000.0, p=0.52, F=0.04, N=100, paths=20_000, seed=4)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    for j in range(len(batch.checkpoints)):
        m = dec.martingale_part[:, j]
        se = float(np.std(m, ddof=1) / math.sqrt(m.size))
        assert abs(float(np.mean(m)) - cfg.w0) < 3.0 * se


def test_decomposition_recovers_expectation_split():
    cfg = small_config(paths=2000)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    # E[W(I)] = E[M(I)] * g^I = w0 g^I = A(I) + w0: the expectation-level split
    for j, cp in enumerate(batch.checkpoints):
        expected = cfg.w0 * conditional_growth_factor(cfg.p, cfg.F)**cp
        assert dec.drift[j] + cfg.w0 == pytest.approx(expected, rel=1e-12)


def test_decomposition_drift_is_expected_wealth_less_w0():
    # one g for the drift and for E[W(I)]: at two-thirds Kelly the two ways
    # of writing g, p(1+F) + q(1-F) and 1 + F(2p-1), differ in the last bit
    p = 0.52
    F = 0.6666666666666666 * kelly_fraction(p)
    assert conditional_growth_factor(p, F) == expected_wealth_linear(1.0, p, F, 1)
    cfg = SimConfig(w0=1000.0, p=p, F=F, N=40, paths=200, seed=1)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    for j, cp in enumerate(batch.checkpoints):
        assert dec.drift[j] == expected_wealth_linear(cfg.w0, p, F, cp) - cfg.w0


def test_zero_stake_decomposition_is_trivial():
    batch = simulate(small_config(F=0.0, p=0.52))
    dec = doob_decompose(batch)
    assert np.all(batch.checkpoint_wealth[:, -1] == 1000.0)
    assert np.all(dec.martingale_part == 1000.0)
    assert np.all(dec.drift == 0.0)


def test_decomposition_rejects_decay_regime():
    batch = simulate(small_config(F=0.2))
    with pytest.raises(DomainError):
        doob_decompose(batch)
