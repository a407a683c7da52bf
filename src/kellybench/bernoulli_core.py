"""Binomial game primitives.

The binomial PMF of the win count and its moments, the exact covariance of
the win and loss counts, and moment-generating functions with brute-force
oracles.

The losses are complementary, V = N - U, so COV(U, V) = -Np(1-p) and the
net win count U - V = 2U - N has variance 4Np(1-p). The published
zero-covariance values (COV = 0, net-win variance 2Np(1-p)) are constants
that the claim registry writes next to these exact values, so the
discrepancy is measured instead of silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceGuardError

# Max number of terms any direct-summation oracle is allowed to touch.
ENUMERATION_GUARD = 10**6

# log of the largest and of the smallest normal float64; exp overflows
# past the first and is subnormal below the second
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_LOG_FLOAT_TINY = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class BinomialSpec:
    """N independent trials with per-trial success probability p."""

    N: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise DomainError(f"trial count {self.N!r} must be a positive integer")
        if not (0.0 <= self.p <= 1.0) or math.isnan(self.p):
            raise DomainError(f"success probability {self.p!r} outside [0, 1]")


@dataclass(frozen=True)
class TrialCounts:
    """Win/loss tally for one realized game; losses are complementary."""

    U: int
    V: int
    N: int

    def __post_init__(self) -> None:
        if self.U < 0 or self.V < 0:
            raise DomainError("win and loss counts must be nonnegative")
        if self.U + self.V != self.N:
            raise DomainError(f"counts U={self.U}, V={self.V} do not sum to N={self.N}")


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


def log_pmf_array(spec: BinomialSpec) -> np.ndarray:
    """log P(U = alpha) for alpha = 0..N, evaluated in log-space.

    Stays finite for N up to the guard; endpoints p = 0 and p = 1 carry
    exact degenerate mass. Delegates to the saddle-point evaluation of the
    binomial log-PMF, which keeps every term at ~1e-15 relative accuracy
    (a hand-rolled log-gamma sum loses ~100x that).
    """
    N, p = spec.N, spec.p
    if p == 0.0 or p == 1.0:
        out = np.full(N + 1, -np.inf)
        out[N if p == 1.0 else 0] = 0.0
        return out
    from scipy.stats import binom  # local: scipy (~0.8 s) loads only for the oracles

    return binom.logpmf(np.arange(N + 1), N, p)


def pmf_array(spec: BinomialSpec) -> np.ndarray:
    """P(U = alpha) for alpha = 0..N as probabilities (not logs)."""
    N, p = spec.N, spec.p
    if p == 0.0 or p == 1.0:
        out = np.zeros(N + 1)
        out[N if p == 1.0 else 0] = 1.0
        return out
    from scipy.stats import binom  # local: scipy (~0.8 s) loads only for the oracles

    return binom.pmf(np.arange(N + 1), N, p)


def moments(spec: BinomialSpec) -> Moments:
    """Mean Np and variance Np(1-p) of the win count."""
    return Moments(mean=spec.N * spec.p, variance=spec.N * spec.p * (1.0 - spec.p))


def _enumerated_count_moments(N: int, p: float) -> tuple[float, float, float]:
    """(E[U], E[U^2], E[U(N-U)]) by direct summation over the support."""
    if N + 1 > ENUMERATION_GUARD:
        raise ResourceGuardError(f"enumeration over {N + 1} terms exceeds guard")
    probs = pmf_array(BinomialSpec(N=N, p=p))
    alpha = np.arange(N + 1, dtype=float)
    eu = float(np.dot(alpha, probs))
    eu2 = float(np.dot(alpha * alpha, probs))
    euv = float(np.dot(alpha * (N - alpha), probs))
    return eu, eu2, euv


def covariance_uv(N: int, p: float) -> float:
    """COV(U, N-U) of the win and loss counts, by exact enumeration."""
    BinomialSpec(N=N, p=p)  # validate
    eu, _, euv = _enumerated_count_moments(N, p)
    ev = N - eu
    return euv - eu * ev


def net_wins_variance(N: int, p: float) -> float:
    """Variance of the net win count U - V, by exact enumeration."""
    BinomialSpec(N=N, p=p)  # validate
    eu, eu2, _ = _enumerated_count_moments(N, p)
    # U - V = 2U - N, so VAR = 4 VAR(U); kept in enumerated form on purpose
    var_u = eu2 - eu * eu
    return 4.0 * var_u


def log_mgf(spec: BinomialSpec, xi: float) -> float:
    """log E[exp(xi U)] = N log(1 - p + p exp(xi)), safe for large N*xi."""
    if not math.isfinite(xi):
        raise DomainError(f"mgf argument {xi!r} must be finite")
    p = spec.p
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return spec.N * xi
    return spec.N * float(np.logaddexp(math.log1p(-p), math.log(p) + xi))


def mgf(spec: BinomialSpec, xi: float) -> float:
    """E[exp(xi U)] in closed form (1 - p + p exp(xi))^N."""
    lm = log_mgf(spec, xi)
    if lm > _LOG_FLOAT_MAX:
        raise ResourceGuardError(
            f"mgf overflows float64 at N={spec.N}, xi={xi}; use log_mgf"
        )
    return math.exp(lm)


def mgf_bruteforce(spec: BinomialSpec, xi: float) -> float:
    """E[exp(xi U)] by direct summation over the PMF; the oracle for mgf()."""
    if not math.isfinite(xi):
        raise DomainError(f"mgf argument {xi!r} must be finite")
    if spec.N + 1 > ENUMERATION_GUARD:
        raise ResourceGuardError(f"direct sum over {spec.N + 1} terms exceeds guard")
    from scipy.special import logsumexp  # local: scipy (~0.8 s) loads only for the oracles

    alpha = np.arange(spec.N + 1)
    log_terms = xi * alpha + log_pmf_array(spec)
    total = float(logsumexp(log_terms))
    if total > _LOG_FLOAT_MAX:
        raise ResourceGuardError("brute-force mgf overflows float64; use log_mgf")
    return math.exp(total)
