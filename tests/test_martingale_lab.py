"""Seeded wealth simulation, expectation oracles, and martingale checks."""

import math

import numpy as np
import pytest

from kellybench import (
    ApproximationDomainError,
    DomainError,
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
    with pytest.raises(DomainError):
        small_config(checkpoints=(0,))
    with pytest.raises(DomainError):
        small_config(checkpoints=(65,))


def test_default_checkpoints_are_quartiles():
    assert small_config(N=100).resolved_checkpoints() == (25, 50, 75, 100)
    assert small_config(N=1).resolved_checkpoints() == (1,)
    assert small_config(checkpoints=(5, 3, 5)).resolved_checkpoints() == (3, 5)


def test_resource_guard_on_total_steps():
    with pytest.raises(ResourceGuardError):
        simulate(small_config(N=100_000, paths=100_000))


# ------------------------------------------------------ reproducibility


def test_simulation_is_bitwise_reproducible():
    a = simulate(small_config())
    b = simulate(small_config())
    assert np.array_equal(a.final_wealth, b.final_wealth)
    assert np.array_equal(a.wins, b.wins)
    assert np.array_equal(a.running_max, b.running_max)
    assert np.array_equal(a.checkpoint_wealth, b.checkpoint_wealth)


def test_thread_count_does_not_change_results():
    serial = simulate(small_config(paths=9000))
    for threads in (2, 4):
        parallel = simulate(small_config(paths=9000, threads=threads))
        assert np.array_equal(serial.final_wealth, parallel.final_wealth)
        assert np.array_equal(serial.running_max, parallel.running_max)
        assert np.array_equal(serial.checkpoint_wealth, parallel.checkpoint_wealth)


def test_seed_changes_results():
    a = simulate(small_config())
    b = simulate(small_config(seed=12))
    assert not np.array_equal(a.final_wealth, b.final_wealth)


# ------------------------------------------------------ exact recursion


def test_wealth_follows_exact_multiplicative_recursion():
    # a checkpoint at every step exposes the whole path W(0..N)
    batch = simulate(small_config(checkpoints=tuple(range(1, 65))))
    w = np.hstack([np.full((500, 1), 1000.0), batch.checkpoint_wealth])
    assert w.shape == (500, 65)
    ratio_up = w[:, :-1] * (1.0 + 0.04)
    ratio_dn = w[:, :-1] * (1.0 - 0.04)
    step_matches = (w[:, 1:] == ratio_up) | (w[:, 1:] == ratio_dn)
    assert np.all(step_matches)


def test_win_counts_consistent_with_final_wealth():
    batch = simulate(small_config())
    cfg = batch.config
    rebuilt = cfg.w0 * (1.0 + cfg.F) ** batch.wins * (1.0 - cfg.F) ** (cfg.N - batch.wins)
    assert np.allclose(rebuilt, batch.final_wealth, rtol=1e-12)


def test_running_max_dominates_checkpoints():
    batch = simulate(small_config())
    assert np.all(batch.running_max >= batch.checkpoint_wealth.max(axis=1))
    assert np.all(batch.running_max >= batch.config.w0)


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
    for w0, p, F, N in ((0.0, 0.52, 0.04, 10), (1.0, 1.5, 0.04, 10),
                        (1.0, 0.52, -0.1, 10), (1.0, 0.52, 0.04, 0)):
        with pytest.raises(DomainError):
            closed_form(w0, p, F, N)


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
        chk = log_drift_check(batch)
        assert abs(chk.z_score) <= 3.0
        if sign > 0:
            assert chk.empirical_drift - 3.0 * chk.se > 0.0
        elif sign < 0:
            assert chk.empirical_drift + 3.0 * chk.se < 0.0


def test_drift_check_needs_surviving_paths():
    batch = simulate(SimConfig(w0=1.0, p=0.52, F=0.04, N=10, paths=50, seed=1))
    with pytest.raises(DomainError):
        log_drift_check(batch)


def test_full_stake_ruin_is_absorbed_at_zero():
    N = 20
    batch = simulate(
        SimConfig(w0=1000.0, p=0.52, F=1.0, N=N, paths=20_000, seed=9)
    )
    # every ruined path is absorbed at exactly zero, survivors double each win
    assert np.all(batch.final_wealth[batch.ruined] == 0.0)
    assert np.all(batch.final_wealth[~batch.ruined] == 1000.0 * 2.0**N)


def test_certain_win_full_stake_doubles_every_trial():
    for N, paths in ((30, 10), (50, 100)):
        batch = simulate(SimConfig(w0=1000.0, p=1.0, F=1.0, N=N, paths=paths, seed=0))
        assert np.all(batch.final_wealth == 1000.0 * 2.0**N)


def test_ruin_probability_closed_form():
    assert ruin_probability_full_stake(1.0, 50) == 0.0
    assert ruin_probability_full_stake(0.0, 1) == 1.0
    assert ruin_probability_full_stake(0.52, 2) == pytest.approx(1 - 0.52**2, abs=1e-15)


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
    assert dec.growth_factor == conditional_growth_factor(0.52, 0.04)
    for j in range(len(dec.checkpoints)):
        m = dec.martingale_part[:, j]
        se = float(np.std(m, ddof=1) / math.sqrt(m.size))
        assert abs(float(np.mean(m)) - cfg.w0) < 3.0 * se


def test_decomposition_recovers_expectation_split():
    cfg = small_config(paths=2000)
    batch = simulate(cfg)
    dec = doob_decompose(batch)
    # E[W(I)] = E[M(I)] * g^I = w0 g^I = A(I) + w0: the expectation-level split
    for j, cp in enumerate(dec.checkpoints):
        expected = cfg.w0 * dec.growth_factor**cp
        assert dec.drift[j] + cfg.w0 == pytest.approx(expected, rel=1e-12)


def test_zero_stake_decomposition_is_trivial():
    batch = simulate(small_config(F=0.0, p=0.52))
    dec = doob_decompose(batch)
    assert np.all(batch.final_wealth == 1000.0)
    assert np.all(dec.martingale_part == 1000.0)
    assert np.all(dec.drift == 0.0)


def test_decomposition_rejects_decay_regime():
    batch = simulate(small_config(F=0.2))
    with pytest.raises(DomainError):
        doob_decompose(batch)
