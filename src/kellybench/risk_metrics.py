"""The law of W(N) in closed form, with its oracles: g = 1 + F(2p-1), E[W(N)],
the ruin law, the Doob bound, the wealth series, the variance of wealth and
the fractional-Kelly trade-off.

The published variance estimate inherits the independent-counts assumption
(net-win variance 2Np(1-p)); the exact variance makes no such assumption.
`log_variance` is its closed form. The enumeration oracles of E[W(N)] and
Var[W(N)] are `BinomialSpec.expect` over the integer core's terms of
W_k = w0 (1+F)^k (1-F)^(N-k), with scalar libm powers and no NumPy. The
estimate and the oracle are always reported side by side instead of
arbitrating between them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .bernoulli_core import _LOG_FLOAT_MAX, _LOG_FLOAT_TINY, BinomialSpec, TrialCounts, _check_count
from .bernoulli_core import _check_enumerable, _check_fp, _check_game, _check_p, _check_threshold
from .errors import ApproximationDomainError, DomainError, ResourceGuardError
from .utility_kelly import kelly_fraction, utility

# guard on the stake for the binomial-series wealth expansion
WEALTH_APPROX_MAX_F = 0.2


@dataclass(frozen=True)
class VarianceReport:
    """The published estimate next to the exact enumeration value."""

    paper_estimate: float  # 2 w0^2 N p(1-p) F^2
    oracle_exact: float  # exact Var[W(N)]


@dataclass(frozen=True)
class TradeoffRow:
    f: float
    F: float
    expected_wealth: float
    volatility: float
    utility: float


def conditional_growth_factor(p: float, F: float) -> float:
    """Exact one-step ratio g = E[W(I+1) | W(I)] / W(I) = 1 + F(2p - 1)."""
    _check_fp(F, p)
    return 1.0 + F * (2.0 * p - 1.0)


def _scaled(w0: float, power: Callable[[], float], log_mean: float, N: int, F: float) -> float:
    """w0 * power(), a closed form's E[W(N)], whose log is log_mean.

    A value beyond float64 range is a ResourceGuardError, not an
    OverflowError escaping to the caller. The test is on log_mean, since a
    small w0 brings some powers beyond float64 back into range, and a large
    w0 some below it: where power() alone overflows, or underflows though
    the product is a normal float, the value is exp(log_mean).
    """
    if log_mean > _LOG_FLOAT_MAX:
        raise ResourceGuardError(f"expected wealth overflows float64 at N={N}, F={F!r}")
    try:
        value = w0 * power()
    except OverflowError:
        return math.exp(log_mean)
    if value < sys.float_info.min and log_mean >= _LOG_FLOAT_TINY:  # power() underflowed
        return math.exp(log_mean)
    return value


def _scaled_power(w0: float, base: float, N: int, F: float) -> float:
    """w0 * base^N for base >= 0, guarded as in `_scaled`."""
    log_mean = math.log(w0) + N * math.log(base) if base > 0.0 else -math.inf
    return _scaled(w0, lambda: base**N, log_mean, N, F)


def expected_wealth_linear(w0: float, p: float, F: float, N: int) -> float:
    """Closed form w0 * g^N for E[W(N)]; ResourceGuardError beyond float64."""
    _check_game(w0, p, F, N)
    return _scaled_power(w0, conditional_growth_factor(p, F), N, F)


def expected_wealth_product(w0: float, p: float, F: float, N: int) -> float:
    """Factorized form w0 * (1+pF)^N (1-qF)^N of E[W(N)].

    It treats the win and loss counts as independent; under the
    complementary model it deviates from the exact expectation, and the
    gap is a reported erratum. ResourceGuardError beyond float64.
    """
    _check_game(w0, p, F, N)
    q = 1.0 - p
    return _scaled_power(w0, (1.0 + p * F) * (1.0 - q * F), N, F)


def expected_wealth_exponential(w0: float, p: float, F: float, N: int) -> float:
    """Small-stake exponential estimate w0 * exp(N F (p - q)); guarded as in
    `_scaled`, on log w0 + N F (p - q)."""
    _check_game(w0, p, F, N)
    if F > 0.1:
        raise ApproximationDomainError(f"exponential estimate requires F <= 0.1, got {F!r}")
    exponent = N * F * (2.0 * p - 1.0)
    return _scaled(w0, lambda: math.exp(exponent), math.log(w0) + exponent, N, F)


def _wealth_terms(w0: float, F: float, N: int) -> list[float]:
    """W(N) = w0 (1+F)^k (1-F)^(N-k) for k = 0..N; ResourceGuardError where one
    leaves float64, or where N + 1 terms exceed the core's ENUMERATION_GUARD."""
    _check_enumerable(N)
    try:
        w = [w0 * (1.0 + F) ** k * (1.0 - F) ** (N - k) for k in range(N + 1)]
        if all(map(math.isfinite, w)):
            return w
    except OverflowError:  # a power alone is beyond float64
        pass
    raise ResourceGuardError(f"enumerated wealth overflows float64 at N={N}, F={F!r}")


def expected_wealth_enumeration(w0: float, p: float, F: float, N: int) -> float:
    """Exact E[W(N)] by summation over the binomial win count; the oracle."""
    _check_game(w0, p, F, N)
    return BinomialSpec(N=N, p=p).expect(_wealth_terms(w0, F, N))


def ruin_probability_full_stake(p: float, N: int) -> float:
    """Probability 1 - p^N that an all-in strategy hits zero within N bets."""
    _check_p(p)
    _check_count(N, "trial count")
    return 1.0 - p**N


def doob_bound(w0: float, p: float, F: float, N: int, lam: float) -> float:
    """Maximal-inequality ceiling min(1, max(w0, E[W(N)]) / lambda) on
    P(max_{I<=N} W(I) >= lambda).

    Doob's E[W(N)] / lambda for the submartingale (p >= 1/2, where
    E[W(N)] >= w0) and Ville's w0 / lambda for the supermartingale
    (p < 1/2), so the one expression holds in every regime.
    """
    _check_threshold(lam)
    ceiling = max(w0, expected_wealth_linear(w0, p, F, N))
    # compared before the division, which can overflow for a tiny lambda
    return 1.0 if ceiling >= lam else ceiling / lam


def wealth_approx(w0: float, F: float, counts: TrialCounts, order: int = 2) -> float:
    """Series expansion of w0 (1+F)^U (1-F)^V in powers of the stake.

    Order 1: w0 (1 + F(U-V)). Order 2 adds F^2 (U(U-1)/2 - V(V-1)/2).
    The published order-2 form omits the -F^2 U V cross term of the full
    product expansion, so its remainder is O(F^2), not O(F^3); halving F
    cuts the error roughly 4x. See the `wealth-series` verification claim.
    """
    if not (0.0 < w0 < math.inf):
        raise DomainError(f"initial wealth {w0!r} must be positive and finite")
    if not (0.0 <= F <= WEALTH_APPROX_MAX_F):
        raise ApproximationDomainError(
            f"wealth expansion requires 0 <= F <= {WEALTH_APPROX_MAX_F}, got {F!r}"
        )
    if order not in (1, 2):
        raise DomainError(f"expansion order must be 1 or 2, got {order!r}")
    U, V = counts.U, counts.V
    value = 1.0 + F * (U - V)
    if order == 2:
        value += F * F * (U * (U - 1) / 2.0 - V * (V - 1) / 2.0)
    return w0 * value


def log_variance(w0: float, p: float, F: float, N: int) -> float:
    """log Var[W(N)] = log(w0^2 (m^N - g^(2N))) in closed form; -inf where
    Var[W(N)] = 0, i.e. F = 0 or p is 0 or 1.

    m = E[(1 + F Z)^2] = p(1+F)^2 + q(1-F)^2 and g = E[1 + F Z] = 1 + F(2p-1).
    Since m - g^2 = 4pqF^2 exactly, m^N - g^(2N) = m^N (1 - (1 - r)^N) with
    r = 4pqF^2 / m, and 1 - (1 - r)^N is taken by expm1/log1p, so no two
    nearly equal numbers are subtracted.
    """
    _check_game(w0, p, F, N)
    if F == 0.0 or p in (0.0, 1.0):
        return -math.inf
    log_m = math.log(p * (1.0 + F) ** 2 + (1.0 - p) * (1.0 - F) ** 2)
    log_r = math.log(4.0 * p * (1.0 - p)) + 2.0 * math.log(F) - log_m
    if log_r < _LOG_FLOAT_TINY:  # r is subnormal: 1 - (1 - r)^N = N r to within N r
        log_gap = math.log(N) + log_r
    else:
        log_gap = math.log(-math.expm1(N * math.log1p(-math.exp(log_r))))
    return 2.0 * math.log(w0) + N * log_m + log_gap


def _check_variance_fits(w0: float, p: float, F: float, N: int) -> None:
    """Raise ResourceGuardError where Var[W(N)] exceeds float64."""
    if log_variance(w0, p, F, N) > _LOG_FLOAT_MAX:
        raise ResourceGuardError(f"variance of wealth overflows float64 at N={N}, F={F!r}")


def _paper_variance(w0: float, p: float, F: float, N: int) -> float:
    """The published first-order estimate 2 w0^2 N p(1-p) F^2 of Var[W(N)]."""
    # w0^2 multiplies last so the estimate scales exactly with initial wealth
    return 2.0 * N * p * (1.0 - p) * F * F * (w0 * w0)


def variance_report(w0: float, p: float, F: float, N: int) -> VarianceReport:
    """Published variance estimate next to the two-pass enumeration of
    P(U = k) (W_k - E[W])^2, over wealth scaled by a power of two so that no
    square overflows; ResourceGuardError where Var or a W_k leaves float64,
    or where N + 1 terms exceed the core's ENUMERATION_GUARD."""
    _check_game(w0, p, F, N)
    if F == 0.0 or p in (0.0, 1.0):
        oracle = 0.0
    else:
        law, w = BinomialSpec(N=N, p=p), _wealth_terms(w0, F, N)
        scale = math.frexp(max(w))[1]
        x = [math.ldexp(v, -scale) for v in w]
        mean = law.expect(x)
        try:
            oracle = math.ldexp(law.expect([(v - mean) * (v - mean) for v in x]), 2 * scale)
        except OverflowError:
            raise ResourceGuardError(f"variance overflows float64 at N={N}, F={F!r}") from None
    return VarianceReport(paper_estimate=_paper_variance(w0, p, F, N), oracle_exact=oracle)


def tradeoff_table(
    p: float, f_grid: list[float], N: int, w0: float
) -> list[TradeoffRow]:
    """One row per multiplier f: stake, expected wealth, volatility, growth.

    The volatility is sqrt(2 w0^2 N p q F^2), the published estimate that the
    `variance-estimate` claim marks a mismatch; at p = 0.52 and N = 1000 it is
    447, 596, 670, 894 where the exact sigma is 1 557, 2 948, 3 995, 9 780."""
    if not f_grid:
        raise DomainError("multiplier grid must be non-empty")
    fk = kelly_fraction(p)
    # the estimate is taken at the mantissa of w0 = m 2^e and its root scaled
    # by 2^e, exactly: w0^2 leaves float64 where the volatility need not
    m, e = math.frexp(w0)
    rows = []
    for f in f_grid:
        if not (0.0 < f <= 1.0):
            raise DomainError(f"multiplier {f!r} outside (0, 1]")
        F = f * fk
        rows.append(TradeoffRow(
            f=f,
            F=F,
            expected_wealth=expected_wealth_linear(w0, p, F, N),
            volatility=math.ldexp(math.sqrt(_paper_variance(m, p, F, N)), e),
            utility=utility(F, p),
        ))
    return rows
