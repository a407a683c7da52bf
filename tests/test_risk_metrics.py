"""Wealth expansions, variance reports, and fractional staking trade-offs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kellybench import (
    ApproximationDomainError,
    DomainError,
    NoEdgeError,
    ResourceGuardError,
    SimConfig,
    TrialCounts,
    doob_bound,
    expected_wealth_enumeration,
    expected_wealth_linear,
    kelly_fraction,
    ruin_probability_full_stake,
    simulate,
    tradeoff_table,
    utility,
    variance_report,
    wealth_approx,
)
from kellybench.bernoulli_core import ENUMERATION_GUARD
from kellybench.risk_metrics import _check_variance_fits, _paper_variance, log_variance


def exact_product(w0: float, F: float, counts: TrialCounts) -> float:
    return w0 * (1.0 + F) ** counts.U * (1.0 - F) ** counts.V


# ----------------------------------------------------- wealth expansion


def test_order_one_expansion():
    counts = TrialCounts(U=12, V=8, N=20)
    assert wealth_approx(1000.0, 0.05, counts, order=1) == 1000.0 * (1.0 + 0.05 * 4)
    balanced = TrialCounts(U=10, V=10, N=20)
    assert wealth_approx(1000.0, 0.05, balanced, order=1) == 1000.0


def test_order_two_expansion_formula():
    counts = TrialCounts(U=12, V=8, N=20)
    F = 0.05
    expected = 1000.0 * (1.0 + F * 4 + F * F * (12 * 11 / 2 - 8 * 7 / 2))
    assert wealth_approx(1000.0, F, counts, order=2) == pytest.approx(expected, abs=1e-12)


def test_expansion_input_guards():
    counts = TrialCounts(U=3, V=2, N=5)
    with pytest.raises(DomainError):
        wealth_approx(0.0, 0.05, counts)
    with pytest.raises(ApproximationDomainError):
        wealth_approx(1.0, 0.5, counts)
    with pytest.raises(DomainError):
        wealth_approx(1.0, 0.05, counts, order=3)


@pytest.mark.xfail(
    strict=True,
    reason="the published order-2 form drops the F^2 U V cross term, leaving an "
    "O(F^2) defect, so halving F cuts the error ~4x rather than the ~8x a "
    "cubic remainder would give",
)
def test_order_two_error_decays_cubically():
    counts = TrialCounts(U=12, V=8, N=20)
    errs = [
        abs(wealth_approx(1000.0, F, counts, order=2) - exact_product(1000.0, F, counts))
        for F in (0.04, 0.02)
    ]
    assert errs[0] / errs[1] >= 8.0


def test_order_two_error_actually_decays_quadratically():
    counts = TrialCounts(U=12, V=8, N=20)
    errs = [
        abs(wealth_approx(1000.0, F, counts, order=2) - exact_product(1000.0, F, counts))
        for F in (0.04, 0.02)
    ]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    # restoring the dropped cross term recovers the cubic-order remainder
    full_errs = []
    for F in (0.04, 0.02):
        U, V = counts.U, counts.V
        full = 1000.0 * (
            1.0 + F * (U - V) + F * F * (U * (U - 1) / 2 + V * (V - 1) / 2 - U * V)
        )
        full_errs.append(abs(full - exact_product(1000.0, F, counts)))
    assert full_errs[0] / full_errs[1] >= 8.0


# ------------------------------------------------------ variance report


def test_variance_report_fields():
    rep = variance_report(1000.0, 0.52, 0.04, 100)
    pq = 0.52 * 0.48
    assert rep.paper_estimate == pytest.approx(2.0 * 1000.0**2 * 100 * pq * 0.04**2, rel=1e-15)
    assert rep.oracle_exact > 0.0


@pytest.mark.parametrize("p, F", [(0.3, 0.2), (0.52, 0.04), (0.6, 0.5), (0.9, 0.02), (0.52, 1.0),
                                  (0.52, 1e-4)])
@pytest.mark.parametrize("N", [1, 5, 12])
def test_wealth_moments_match_exact_rational_enumeration(p, F, N):
    # E[W(N)] and Var[W(N)] summed exactly over the win count, in rationals
    # built from the very float inputs the closed forms receive
    w0, pr, fr = Fraction(1000.0), Fraction(p), Fraction(F)
    terms = [
        (math.comb(N, a) * pr**a * (1 - pr) ** (N - a), w0 * (1 + fr) ** a * (1 - fr) ** (N - a))
        for a in range(N + 1)
    ]
    mean = sum(prob * w for prob, w in terms)
    var = sum(prob * w * w for prob, w in terms) - mean * mean
    assert expected_wealth_linear(1000.0, p, F, N) == pytest.approx(float(mean), rel=1e-14)
    # the oracle sums squared deviations from the mean, so a small stake, whose
    # variance is ~4pqF^2 N of E[W]^2, costs no more than ~1e-12 relative
    rep = variance_report(1000.0, p, F, N)
    assert rep.oracle_exact == pytest.approx(float(var), rel=1e-10)
    assert log_variance(1000.0, p, F, N) == pytest.approx(math.log(var), rel=1e-13)


def test_log_variance_edges():
    assert log_variance(1000.0, 0.52, 0.0, 50) == -math.inf
    assert log_variance(1000.0, 1.0, 0.3, 50) == -math.inf
    assert log_variance(1000.0, 0.0, 0.3, 50) == -math.inf
    # a small stake keeps full precision: Var[W(1)] = w0^2 4pqF^2 exactly, and
    # m^N - g^(2N) is never formed as a difference
    assert log_variance(1.0, 0.52, 1e-4, 1) == pytest.approx(
        math.log(4.0 * 0.52 * 0.48 * 1e-4 * 1e-4), rel=1e-14)
    # for a stake whose 4pqF^2 is below float range, Var[W(N)] ~ w0^2 N 4pqF^2
    w0, p, F, N = 1e300, 0.52, 1e-160, 1000
    approx = 2.0 * math.log(w0) + math.log(N * 4.0 * p * (1.0 - p)) + 2.0 * math.log(F)
    assert log_variance(w0, p, F, N) == pytest.approx(approx, rel=1e-12)
    with pytest.raises(DomainError):
        log_variance(0.0, 0.52, 0.04, 10)


def test_variance_guard_at_the_float_limit():
    # log Var[W(N)] at p = 0.9, F = 0.8 is 699.6 at N = 640 and 721.1 at N = 660
    _check_variance_fits(1000.0, 0.9, 0.8, 640)
    with pytest.raises(ResourceGuardError):
        _check_variance_fits(1000.0, 0.9, 0.8, 660)
    # a stake too small for 4pqF^2 to be a normal float: 651.6 fits, 734.5 does not
    _check_variance_fits(1e300, 0.52, 1e-160, 1000)
    with pytest.raises(ResourceGuardError):
        _check_variance_fits(1e308, 0.52, 1e-150, 1000)


def test_variance_vanishes_without_randomness_or_stake():
    assert variance_report(1000.0, 0.52, 0.0, 50).oracle_exact == 0.0
    assert variance_report(1000.0, 1.0, 0.3, 50).oracle_exact == 0.0


@pytest.mark.parametrize("oracle, game", [
    (variance_report, (1000.0, 0.52, 1.0, 1000)),  # Var[W(N)] ~ e^746
    (variance_report, (1000.0, 0.52, 1.0, 5000)),  # W(N) = w0 2^5000
    (variance_report, (1000.0, 0.9, 0.8, 5000)),
    (variance_report, (1e300, 0.52, 0.5, 10)),  # w0^2 alone leaves float64
    (expected_wealth_enumeration, (1.0, 0.52, 1.0, 2000)),  # W(N) = 2^2000
])
def test_enumeration_oracles_raise_where_float64_is_left(oracle, game):
    with pytest.raises(ResourceGuardError):
        oracle(*game)


@pytest.mark.parametrize("law", [
    lambda N: log_variance(1.0, 0.52, 0.04, N),
    lambda N: variance_report(1.0, 0.52, 0.04, N),
    lambda N: doob_bound(1.0, 0.52, 0.04, N, 2.0),
    lambda N: ruin_probability_full_stake(0.52, N),
    lambda N: tradeoff_table(0.52, [0.5], N, 1.0),
], ids=["log_variance", "variance_report", "doob_bound", "ruin", "tradeoff_table"])
def test_trial_count_is_an_integer(law):
    law(np.int64(10))  # a NumPy integer is a count; a fraction or a bool is not
    for N in (2.5, True):
        with pytest.raises(DomainError, match="trial count"):
            law(N)


def test_variance_oracle_returns_up_to_the_float_limit():
    # log Var[W(N)] at p = 0.52, F = 1 is 673 at N = 900: the largest W(N)
    # squared leaves float64, the scaled two-pass sum does not
    rep = variance_report(1000.0, 0.52, 1.0, 900)
    assert rep.oracle_exact == pytest.approx(math.exp(log_variance(1000.0, 0.52, 1.0, 900)),
                                             rel=1e-12)


def test_variance_oracle_suppressed_beyond_guard():
    # the oracle has no size limit of its own: float64 and the core's
    # ENUMERATION_GUARD are its only limits, and below them it always returns
    with pytest.raises(ResourceGuardError):
        variance_report(1000.0, 0.52, 0.04, 50_000)  # 1.04^50000 leaves float64
    with pytest.raises(ResourceGuardError, match="enumeration"):
        variance_report(1000.0, 0.52, 1e-4, ENUMERATION_GUARD)  # N + 1 terms
    rep = variance_report(1000.0, 0.52, 1e-3, 20_000)
    assert rep.oracle_exact == pytest.approx(math.exp(log_variance(1000.0, 0.52, 1e-3, 20_000)),
                                             rel=1e-10)


def test_variance_homogeneity_in_initial_wealth():
    a = variance_report(1.0, 0.52, 0.04, 100)
    b = variance_report(7.0, 0.52, 0.04, 100)
    assert b.paper_estimate == 49.0 * a.paper_estimate
    assert b.oracle_exact == pytest.approx(49.0 * a.oracle_exact, rel=1e-12)


def test_volatility_is_square_root_of_variance():
    row = tradeoff_table(0.52, [0.5], 100, 1000.0)[0]
    assert row.volatility == math.sqrt(variance_report(1000.0, 0.52, row.F, 100).paper_estimate)
    frac = tradeoff_table(0.52, [2.0 / 3.0], 1000, 1000.0)[0]
    rep = variance_report(1000.0, 0.52, frac.F, 1000)
    assert frac.volatility == math.sqrt(rep.paper_estimate)


def test_volatility_scales_exactly_where_w0_squared_leaves_float64():
    # w0^2 = 2^(+-1200) is beyond float64 both ways; sigma = w0 sqrt(2 N p q) F is not
    f_grid = [0.5, 2.0 / 3.0, 1.0]
    unit = tradeoff_table(0.52, f_grid, 1000, 1.0)
    for e in (600, -600):
        rows = tradeoff_table(0.52, f_grid, 1000, math.ldexp(1.0, e))
        assert [r.volatility for r in rows] == [math.ldexp(r.volatility, e) for r in unit]
    assert _paper_variance(math.ldexp(1.0, 600), 0.52, unit[0].F, 1000) == math.inf


def test_variance_oracle_matches_monte_carlo():
    N, p, F, paths = 50, 0.52, 0.04, 40_000
    rep = variance_report(1000.0, p, F, N)
    batch = simulate(SimConfig(w0=1000.0, p=p, F=F, N=N, paths=paths, seed=21))
    w = batch.checkpoint_wealth[:, -1]
    sample_var = float(np.var(w, ddof=1))
    # standard error of the sample variance from the fourth central moment
    m4 = float(np.mean((w - np.mean(w)) ** 4))
    se = math.sqrt((m4 - sample_var**2) / paths)
    assert abs(sample_var - rep.oracle_exact) < 5.0 * se


# ----------------------------------------------------- fractional Kelly


def test_fractional_plan_two_thirds_kelly():
    frac, full = tradeoff_table(0.52, [2.0 / 3.0, 1.0], 1000, 1000.0)
    assert full.F == kelly_fraction(0.52)
    assert frac.F == pytest.approx(2.0 / 75.0, abs=1e-15)
    assert frac.utility < full.utility
    assert frac.volatility < full.volatility


def test_fractional_dominance_over_grid():
    for p in np.linspace(0.505, 0.6, 20):
        for f in np.linspace(0.5, 0.99, 15):
            frac, full = tradeoff_table(float(p), [float(f), 1.0], 1000, 1000.0)
            assert frac.utility < full.utility
            assert frac.volatility < full.volatility


def test_fractional_plan_rejects_out_of_range_multipliers():
    for f in (0.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            tradeoff_table(0.52, [f], 1000, 1000.0)
    with pytest.raises(NoEdgeError):
        tradeoff_table(0.4, [0.5], 1000, 1000.0)


# -------------------------------------------------------- tradeoff table


def test_tradeoff_table_rows():
    rows = tradeoff_table(0.52, [0.5, 2.0 / 3.0, 0.75, 1.0], 1000, 1000.0)
    assert [r.f for r in rows] == [0.5, 2.0 / 3.0, 0.75, 1.0]
    fk = kelly_fraction(0.52)
    full = rows[-1]
    assert full.F == fk
    assert full.utility == utility(fk, 0.52)
    # expected wealth is monotone increasing in the multiplier below full Kelly
    wealth = [r.expected_wealth for r in rows]
    assert all(a < b for a, b in zip(wealth, wealth[1:]))
    assert rows[1].F == pytest.approx(2.0 / 75.0, abs=1e-15)


def test_tradeoff_table_rejects_bad_grids():
    with pytest.raises(DomainError):
        tradeoff_table(0.52, [], 100, 1000.0)
    with pytest.raises(DomainError):
        tradeoff_table(0.52, [1.5], 100, 1000.0)
