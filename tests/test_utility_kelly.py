"""Log-growth utility, critical points, and the stake-regime partition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybench import (
    DegenerateGameError,
    DomainError,
    NoEdgeError,
    SeriesInvalidError,
    f_star,
    f_star_approx,
    kelly_fraction,
    regime_partition,
    utility,
    utility_curve,
    utility_derivatives,
    utility_dominance,
)

P_GRID = np.linspace(0.501, 0.999, 80)


# -------------------------------------------------------------- utility


def test_utility_against_direct_formula():
    for F in (0.0, 0.04, 0.5, 0.99):
        for p in (0.0, 0.3, 0.52, 1.0):
            expected = 0.0
            if p > 0.0:
                expected += p * math.log(1.0 + F)
            if p < 1.0:
                expected += (1.0 - p) * math.log(1.0 - F)
            assert utility(F, p) == pytest.approx(expected, abs=1e-15)


def test_utility_full_stake_sentinel():
    assert utility(1.0, 0.52) == float("-inf")
    assert utility(1.0, 1.0) == math.log(2.0)


def test_utility_rejects_out_of_range_inputs():
    with pytest.raises(DomainError):
        utility(-0.1, 0.5)
    with pytest.raises(DomainError):
        utility(0.5, 1.5)


def test_first_derivative_matches_finite_differences():
    h = 1e-6
    for F in (0.01, 0.1, 0.5, 0.9):
        for p in (0.3, 0.52, 0.8):
            d = utility_derivatives(F, p)
            numeric = (utility(F + h, p) - utility(F - h, p)) / (2.0 * h)
            assert d.first == pytest.approx(numeric, abs=1e-8)


def test_second_derivative_strictly_negative():
    for F in np.linspace(0.0, 0.999, 200):
        assert utility_derivatives(float(F), 0.52).second < 0.0


def test_derivatives_undefined_at_full_stake():
    with pytest.raises(DomainError):
        utility_derivatives(1.0, 0.52)


@given(
    # |dU/dF| ~ 1/(1-F); staying below 0.999 keeps the one-ulp rounding of
    # the mixture point well inside the 1e-12 concavity slack
    f1=st.floats(min_value=0.0, max_value=0.999),
    f2=st.floats(min_value=0.0, max_value=0.999),
    lam=st.floats(min_value=0.0, max_value=1.0),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_utility_is_concave_in_the_stake(f1, f2, lam, p):
    mix = lam * f1 + (1.0 - lam) * f2
    lhs = utility(min(mix, 0.999), p)
    rhs = lam * utility(f1, p) + (1.0 - lam) * utility(f2, p)
    assert lhs >= rhs - 1e-12


# -------------------------------------------------------- critical point


def test_kelly_fraction_is_twice_the_edge():
    for p in P_GRID:
        fk = kelly_fraction(float(p))
        assert fk == pytest.approx(2.0 * p - 1.0, abs=1e-15)
        assert utility_derivatives(fk, float(p)).first == pytest.approx(0.0, abs=1e-12)
    # the worked example, exact up to the one ulp between 0.52 - 0.48 and 0.04
    assert abs(kelly_fraction(0.52) - 0.04) < 1e-15


def test_kelly_fraction_refuses_losing_games():
    with pytest.raises(NoEdgeError):
        kelly_fraction(0.49)
    with pytest.raises(DomainError):
        kelly_fraction(1.0001)


def test_fair_game_has_zero_kelly_stake():
    assert kelly_fraction(0.5) == 0.0


# ------------------------------------------------------ break-even root


def test_f_star_is_a_root_between_kelly_and_one():
    for p in np.linspace(0.505, 0.75, 50):
        root = f_star(float(p))
        assert kelly_fraction(float(p)) < root < 1.0
        assert abs(utility(root, float(p))) < 1e-12


def test_root_sandwich_against_series_bound():
    for p in np.linspace(0.505, 0.745, 49):
        fk = kelly_fraction(float(p))
        series = f_star_approx(float(p))
        root = f_star(float(p))
        assert fk < root < min(2.0 * fk + 2.0 * series.epsilon, 1.0)


def test_f_star_error_cases():
    with pytest.raises(NoEdgeError):
        f_star(0.5)
    with pytest.raises(DegenerateGameError):
        f_star(1.0)
    # root closer to 1 than the bracket guard can resolve
    with pytest.raises(DegenerateGameError):
        f_star(0.999)


def test_series_approximation_small_edge():
    series = f_star_approx(0.52)
    fk = kelly_fraction(0.52)
    # published worked value for the correction term at this edge
    assert series.epsilon == pytest.approx(0.0001714, rel=0.10)
    assert series.approx == pytest.approx(2.0 * fk + series.epsilon, abs=1e-15)
    # the truncation drops a term of the same cubic order it keeps, so the
    # series lands within a few F_K^3 of the true root, not within epsilon
    assert abs(series.approx - f_star(0.52)) < 5.0 * fk**3


def test_series_zero_edge_collapses_to_zero():
    series = f_star_approx(0.5)
    assert series.approx == 0.0
    assert series.epsilon == 0.0


def test_series_validity_region():
    with pytest.raises(SeriesInvalidError):
        f_star_approx(0.81)  # F_K^2 = 0.3844 >= 3/8
    with pytest.raises(NoEdgeError):
        f_star_approx(0.4)


# -------------------------------------------------------- sign structure


def test_sign_structure_partitions_unit_interval():
    p = 0.52
    root = f_star(p)
    grid = np.linspace(0.0, 1.0 - 1e-12, 10_000)
    h = grid[1] - grid[0]
    for F in grid:
        u = utility(float(F), p)
        if 0.0 < F < root - h:
            assert u > 0.0
        elif F > root + h:
            assert u < 0.0


def test_regime_partition_bundles_all_critical_stakes():
    part = regime_partition(0.52)
    assert part.f_kelly == kelly_fraction(0.52)
    assert part.f_star == f_star(0.52)
    assert part.f_star_approx == f_star_approx(0.52).approx
    assert part.p == 0.52


# ------------------------------------------------------------ dominance


def test_dominance_equals_direct_subtraction():
    gap = utility_dominance(0.5, 0.6, 0.55)
    assert gap == pytest.approx(utility(0.5, 0.6) - utility(0.5, 0.55), abs=1e-14)


def test_dominance_requires_ordered_probabilities():
    with pytest.raises(DomainError):
        utility_dominance(0.1, 0.55, 0.6)
    with pytest.raises(DomainError):
        utility_dominance(0.0, 0.6, 0.55)


@given(
    F=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    p=st.floats(min_value=0.5 + 1e-9, max_value=1.0),
    gap=st.floats(min_value=1e-12, max_value=0.5),
)
@settings(max_examples=300, deadline=None)
def test_higher_win_probability_always_dominates(F, p, gap):
    p_hat = p - gap
    if p_hat <= 0.5:
        return
    assert utility_dominance(F, p, p_hat) > 0.0


# ---------------------------------------------------------------- curve


def test_utility_curve_shape():
    fs, us = utility_curve(0.6, 1001)
    assert fs[0] == 0.0 and fs[-1] == 1.0
    assert us[0] == 0.0 and us[-1] == float("-inf")
    peak = fs[np.argmax(us)]
    assert abs(peak - kelly_fraction(0.6)) <= fs[1] - fs[0]
    # single interior maximum: increasing before the peak, decreasing after
    k = int(np.argmax(us))
    assert np.all(np.diff(us[: k + 1]) > 0.0)
    assert np.all(np.diff(us[k:]) < 0.0)


def test_utility_curve_fair_game_maximum_at_zero():
    _, us = utility_curve(0.5, 101)
    assert us.max() == 0.0
    assert np.argmax(us) == 0


def test_utility_curve_needs_two_points():
    with pytest.raises(DomainError):
        utility_curve(0.6, 1)
