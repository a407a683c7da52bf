"""Entropy forms and the growth/entropy identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellybench import BinomialSpec, DomainError, shannon
from kellybench.entropy import binomial_entropy_forms, utility_entropy_identity


def test_shannon_symmetry_is_exact():
    # dyadic grid: p and 1-p are both exactly representable, so the two
    # calls sum the same pair of terms and must agree bit for bit
    for k in range(1025):
        p = k / 1024.0
        assert shannon(p) == shannon(1.0 - p)


def test_shannon_symmetry_on_decimal_grid():
    # non-dyadic complements round, so agreement is to the last ulp only
    for p in np.arange(0.0, 1.0001, 0.001):
        assert shannon(float(p)) == pytest.approx(shannon(float(1.0 - p)), abs=1e-14)


def test_shannon_bounds_and_unique_maximum():
    grid = np.arange(0.0, 1.0001, 0.001)
    values = np.array([shannon(float(p)) for p in grid])
    assert np.all(values >= 0.0)
    assert np.all(values <= math.log(2.0) + 1e-15)
    peak = grid[np.argmax(values)]
    assert peak == pytest.approx(0.5, abs=1e-12)
    # the maximum is attained only at 1/2 on this grid
    assert np.count_nonzero(values == values.max()) == 1


def test_shannon_derivative_vanishes_at_argmax():
    # centered finite difference as an independent check on the peak location
    h = 1e-6
    star = 0.5
    slope = (shannon(star + h) - shannon(star - h)) / (2.0 * h)
    assert abs(slope) < 1e-8


def test_shannon_endpoints_carry_zero_entropy():
    # -0.0 == 0.0, so the sign is read too: a -0.0 is written as "-0" in a CSV
    for p in (0.0, 1.0):
        assert shannon(p) == 0.0 and math.copysign(1.0, shannon(p)) == 1.0


def test_shannon_rejects_bad_probability():
    with pytest.raises(DomainError):
        shannon(1.2)
    with pytest.raises(DomainError):
        shannon(float("nan"))


@pytest.mark.parametrize("N", [1, 2, 5, 10, 20])
def test_binomial_entropy_dual_forms_agree(N):
    for p in np.arange(0.05, 1.0, 0.05):
        direct, expanded = binomial_entropy_forms(BinomialSpec(N=N, p=float(p)))
        assert abs(direct - expanded) < 1e-10


def test_binomial_entropy_loss_count_mirrors_win_count():
    # the loss count of Binomial(N, p) is Binomial(N, 1 - p)
    wins, _ = binomial_entropy_forms(BinomialSpec(N=15, p=0.3))
    losses, _ = binomial_entropy_forms(BinomialSpec(N=15, p=0.7))
    # V = N - U is a bijection of the support, so the entropies coincide
    assert wins == pytest.approx(losses, abs=1e-12)


def test_binomial_entropy_of_deterministic_game_is_zero():
    for p in (0.0, 1.0):
        forms = binomial_entropy_forms(BinomialSpec(N=10, p=p))
        assert forms == (0.0, 0.0) and all(math.copysign(1.0, h) == 1.0 for h in forms)


def test_growth_entropy_identity_across_grid():
    for p in np.linspace(0.5, 1.0 - 1e-9, 1000):
        chk = utility_entropy_identity(float(p))
        assert abs(chk.lhs - chk.rhs) < 1e-12


def test_growth_entropy_identity_rejects_losing_games():
    with pytest.raises(DomainError):
        utility_entropy_identity(0.4)


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_shannon_never_exceeds_one_bit(p):
    assert 0.0 <= shannon(p) / math.log(2.0) <= 1.0 + 1e-15
