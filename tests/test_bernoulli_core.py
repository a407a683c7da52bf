"""Binomial primitives against exact rational and brute-force oracles."""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from kellybench import (
    BinomialSpec,
    DomainError,
    ResourceGuardError,
    TrialCounts,
    covariance_uv,
    log_mgf,
    mgf,
    mgf_bruteforce,
    moments,
    expected_wealth_enumeration,
    net_wins_variance,
    pmf_array,
    variance_report,
)
from kellybench.bernoulli_core import _enumerated_count_moments, log_pmf_array


def exact_pmf(N: int, p: Fraction, alpha: int) -> Fraction:
    """Rational-arithmetic binomial PMF; the ground truth for small N."""
    return math.comb(N, alpha) * p**alpha * (1 - p) ** (N - alpha)


# ---------------------------------------------------------------- params


def test_trial_counts_must_sum():
    with pytest.raises(DomainError):
        TrialCounts(U=3, V=3, N=7)
    with pytest.raises(DomainError):
        TrialCounts(U=-1, V=8, N=7)


def test_binomial_spec_rejects_bad_inputs():
    with pytest.raises(DomainError):
        BinomialSpec(N=0, p=0.5)
    with pytest.raises(DomainError):
        BinomialSpec(N=10, p=1.5)


# ------------------------------------------------------------------- pmf


@pytest.mark.parametrize("p_rat", [Fraction(13, 25), Fraction(1, 2), Fraction(3, 5)])
def test_pmf_matches_exact_rational_oracle(p_rat):
    N = 20
    probs = pmf_array(BinomialSpec(N=N, p=float(p_rat)))
    assert probs.shape == (N + 1,)
    for alpha in range(N + 1):
        truth = float(exact_pmf(N, p_rat, alpha))
        assert probs[alpha] == pytest.approx(truth, rel=1e-13)


@pytest.mark.parametrize("N", [1, 20, 100])
def test_pmf_is_the_rounded_exact_rational(N):
    # each term is the float64 of its exact rational, subnormal tails included
    subnormal = 0
    for p in (1e-4, 0.01, 0.3, 0.5, 0.52, 0.6, 0.99, 0.9999):
        truth = [float(exact_pmf(N, Fraction(p), alpha)) for alpha in range(N + 1)]
        assert pmf_array(BinomialSpec(N=N, p=p)).tolist() == truth
        # numpy scalars, which BinomialSpec accepts, give the same terms
        assert pmf_array(BinomialSpec(N=np.int64(N), p=np.float64(p))).tolist() == truth
        subnormal += sum(0.0 < t < sys.float_info.min for t in truth)
    if N == 100:  # p = 1e-4 and 0.9999 reach below the normal range
        assert subnormal > 0


def test_log_pmf_stays_finite_where_the_pmf_underflows():
    spec = BinomialSpec(N=2000, p=0.5)
    assert pmf_array(spec)[0] == 0.0
    logs = log_pmf_array(spec)
    assert logs[0] == pytest.approx(-2000 * math.log(2.0), rel=1e-15)
    for alpha in (1, 700, 1000):
        exact = math.log(math.comb(2000, alpha)) - 2000 * math.log(2.0)
        assert logs[alpha] == pytest.approx(exact, rel=1e-14)


def test_pmf_single_trial_is_exact():
    probs = pmf_array(BinomialSpec(N=1, p=0.52))
    assert probs[1] == 0.52
    assert probs[0] == 1.0 - 0.52


def test_pmf_degenerate_endpoints():
    assert list(pmf_array(BinomialSpec(N=8, p=0.0))) == [1.0] + [0.0] * 8
    assert list(pmf_array(BinomialSpec(N=8, p=1.0))) == [0.0] * 8 + [1.0]


@pytest.mark.parametrize("N", [1, 10, 100, 1000, 10_000])
def test_pmf_normalizes_across_probability_grid(N):
    for p in np.arange(0.01, 1.0, 0.07):
        assert abs(float(pmf_array(BinomialSpec(N=N, p=float(p))).sum()) - 1.0) < 1e-12


def ulps(x: float, exact: Fraction) -> Fraction:
    """|x - exact| in units of the last place of exact's float."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("N", range(1, 13))
def test_law_matches_exact_rationals(N):
    # each oracle is the law's expect over the rounded terms of one integer
    # core. With the library's floats 1 + F and 1 - F as W(N)'s bases:
    # E[U], Var[U], COV and E[W(N)] are within 2 ulps of their exact
    # rationals. Var[W(N)] is within 64: it subtracts the mean from terms
    # near it, which costs about 1/F ulps at F = 0.04. The brute-force MGF is
    # within 64 of a 60-digit sum: it is exp of a log-sum of up to |log P|.
    for p in (0.0, 0.1, 0.5, 0.52, 0.9, 1.0):
        probs = [exact_pmf(N, Fraction(p), k) for k in range(N + 1)]
        eu = sum(P * k for k, P in enumerate(probs))
        var = sum(P * (k - eu) ** 2 for k, P in enumerate(probs))
        for value, exact in zip(_enumerated_count_moments(N, p), (eu, var, -var)):
            assert ulps(value, exact) <= 2, (p, exact)
        assert ulps(net_wins_variance(N, p), 4 * var) <= 2
        for F in (0.04, 0.5):
            w = [1000 * Fraction(1.0 + F) ** k * Fraction(1.0 - F) ** (N - k) for k in range(N + 1)]
            ew = sum(P * x for P, x in zip(probs, w))
            assert ulps(expected_wealth_enumeration(1000.0, p, F, N), ew) <= 2
            vw = sum(P * (x - ew) ** 2 for P, x in zip(probs, w))
            assert ulps(variance_report(1000.0, p, F, N).oracle_exact, vw) <= 64
            for xi in (math.log1p(F), math.log1p(-F)):
                with localcontext() as ctx:
                    ctx.prec = 60
                    m = sum(Decimal(P.numerator) / P.denominator * (Decimal(xi) * k).exp()
                            for k, P in enumerate(probs))
                assert ulps(mgf_bruteforce(BinomialSpec(N=N, p=p), xi), Fraction(m)) <= 64


def test_expect_takes_one_value_per_win_count():
    law = BinomialSpec(N=3, p=0.5)
    assert law.expect([8.0, 0.0, 0.0, 8.0]) == 2.0
    for values in ([1.0] * 3, [1.0] * 5):
        with pytest.raises(ValueError):
            law.expect(values)


# --------------------------------------------------------------- moments


@pytest.mark.parametrize("N", [1, 5, 20])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.52, 0.9])
def test_moments_match_enumeration(N, p):
    spec = BinomialSpec(N=N, p=p)
    probs = pmf_array(spec)
    alpha = np.arange(N + 1, dtype=float)
    mean = float(np.dot(alpha, probs))
    var = float(np.dot(alpha**2, probs)) - mean**2
    m = moments(spec)
    assert abs(m.mean - mean) < 1e-12
    assert abs(m.variance - var) < 1e-12
    assert math.sqrt(m.variance) == pytest.approx(math.sqrt(var), rel=1e-10)


def test_covariance_models_disagree_by_design():
    N, p = 30, 0.52
    # the published value is 0; V = N - U makes the counts perfectly
    # anti-correlated: COV = -Np(1-p)
    comp = covariance_uv(N, p)
    assert comp == pytest.approx(-N * p * (1 - p), rel=1e-10)
    assert comp != 0.0


def test_net_wins_variance_under_both_models():
    N, p = 30, 0.52
    paper = 2.0 * N * p * (1 - p)
    comp = net_wins_variance(N, p)
    # U - V = 2U - N has variance 4 Np(1-p), twice the zero-covariance value
    assert comp == pytest.approx(4.0 * N * p * (1 - p), rel=1e-10)
    assert comp == pytest.approx(2.0 * paper, rel=1e-10)


# ------------------------------------------------------------------ mgf


@pytest.mark.parametrize("N", [1, 8, 64])
@pytest.mark.parametrize("p", [0.2, 0.52, 0.8])
def test_mgf_matches_bruteforce_sum(N, p):
    spec = BinomialSpec(N=N, p=p)
    for xi in np.linspace(-2.0, 2.0, 17):
        closed = mgf(spec, float(xi))
        brute = mgf_bruteforce(spec, float(xi))
        assert closed == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("F", [0.0, 0.04, 0.5, 0.9])
def test_mgf_wealth_factor_identities(F):
    """mgf at log(1+F) collapses to (1+pF)^N; the loss side mirrors it."""
    N, p = 40, 0.52
    q = 1.0 - p
    win = mgf(BinomialSpec(N=N, p=p), math.log1p(F))
    assert win == pytest.approx((1.0 + p * F) ** N, rel=1e-12)
    if F < 1.0:
        loss = mgf(BinomialSpec(N=N, p=q), math.log1p(-F))
        assert loss == pytest.approx((1.0 - q * F) ** N, rel=1e-12)


def test_log_mgf_survives_where_mgf_overflows():
    spec = BinomialSpec(N=10**6, p=0.52)
    assert math.isfinite(log_mgf(spec, 2.0))
    with pytest.raises(ResourceGuardError):
        mgf(spec, 2.0)


def test_mgf_returns_values_up_to_the_float_limit():
    # e^709.5 = 1.35e308 fits in a float64; e^710 does not
    spec = BinomialSpec(N=1, p=1.0)
    assert mgf(spec, 709.5) == 1.3549863193146328e+308
    with pytest.raises(ResourceGuardError):
        mgf(spec, 710.0)


def test_mgf_rejects_nonfinite_argument():
    with pytest.raises(DomainError):
        log_mgf(BinomialSpec(N=4, p=0.5), float("inf"))


def test_bruteforce_mgf_guards_its_argument_and_its_range():
    for xi in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            mgf_bruteforce(BinomialSpec(N=4, p=0.5), xi)
    # E[exp(2U)] at N = 1000 is about e^1464, past the float64 range
    with pytest.raises(ResourceGuardError):
        mgf_bruteforce(BinomialSpec(N=1000, p=0.52), 2.0)


def test_log_mgf_of_a_game_never_won_is_zero():
    # at p = 0 the count U is 0 surely, so E[exp(xi U)] = 1 at every xi
    for xi in (-3.0, 0.5, 800.0):
        assert log_mgf(BinomialSpec(N=7, p=0.0), xi) == 0.0

