"""Binomial game primitives, and the input rules of every game.

The binomial law of the win count, the exact covariance of the win and loss
counts, and moment-generating functions. Every enumeration oracle is
`BinomialSpec.expect` over the terms of one integer core, in scalar floats
with libm calls and no NumPy, so no oracle's bytes depend on the CPU.

The losses are complementary, V = N - U, so COV(U, V) = -Np(1-p) and the
net win count U - V = 2U - N has variance 4Np(1-p). The published
zero-covariance values (COV = 0, net-win variance 2Np(1-p)) are constants
that the claim registry writes next to these exact values, so the
discrepancy is measured instead of silently resolved.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DomainError, ResourceGuardError

if TYPE_CHECKING:
    import numpy as np

# Max number of terms any direct-summation oracle is allowed to touch.
ENUMERATION_GUARD = 10**6

# log of the largest and of the smallest normal float64; exp overflows
# past the first and is subnormal below the second
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_TINY = math.log(sys.float_info.min)

# significant bits of the integer mantissa each binomial term carries
_BITS = 128
_LN2 = math.log(2.0)


def _check_count(n, what: str, least: int = 1) -> None:
    """A count (trials, paths, a seed) is an int or NumPy integer, never a bool.

    NumPy registers its integers as numbers.Integral, but not np.bool_."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{what} {n!r} must be an integer")
    if n < least:
        raise DomainError(f"{what} {n!r} must be at least {least}")


def _check_p(p: float) -> None:
    """A probability lies in [0, 1]; nan does not."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability {p!r} outside [0, 1]")


def _check_fp(F: float, p: float) -> None:
    if not (0.0 <= F <= 1.0):
        raise DomainError(f"stake fraction {F!r} outside [0, 1]")
    _check_p(p)


def _check_threshold(lam: float) -> None:
    """A threshold on the running maximum of wealth is positive; nan is not."""
    if not (lam > 0.0):
        raise DomainError(f"threshold {lam!r} must be positive")


def _check_game(w0: float, p: float, F: float, N: int) -> None:
    """The game every closed form and every run is defined on."""
    if not (0.0 < w0 < math.inf):
        raise DomainError(f"initial wealth {w0!r} must be positive and finite")
    _check_fp(F, p)
    _check_count(N, "trial count")


@dataclass(frozen=True)
class BinomialSpec:
    """The law of the win count U of N independent trials, each won with probability p."""

    N: int
    p: float

    def __post_init__(self) -> None:
        _check_count(self.N, "trial count")
        _check_p(self.p)

    @cached_property
    def probs(self) -> tuple[float, ...]:
        """P(U = k) for k = 0..N, each core term rounded once (int / int rounds correctly)."""
        return tuple(m / (1 << -e) for m, e in _pmf_terms(self.N, self.p))

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        """log P(U = k) for k = 0..N, finite also where P underflows float64."""
        return tuple(math.log(math.ldexp(m, -_BITS)) + (e + _BITS) * _LN2 if m else -math.inf
                     for m, e in _pmf_terms(self.N, self.p))

    def expect(self, values: Iterable[float]) -> float:
        """E[values[U]]: the fsum of P(U = k) values[k] over k = 0..N."""
        return math.fsum(P * v for P, v in zip(self.probs, values, strict=True))


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


def _check_enumerable(N: int) -> None:
    if N + 1 > ENUMERATION_GUARD:
        raise ResourceGuardError(f"enumeration over {N + 1} terms exceeds guard")


def _normalized(m: int, e: int) -> tuple[int, int]:
    """m 2^e with m cut or widened to _BITS significant bits."""
    s = m.bit_length() - _BITS
    return (m >> s, e + s) if s >= 0 else (m << -s, e + s)


def _pmf_terms(N: int, p: float) -> Iterator[tuple[int, int]]:
    """P(U = k) = m 2^e for k = 0..N, yielded one (m, e) at a time, m of _BITS bits.

    The float p is a/d exactly, with d a power of two; with b = d - a the
    terms are C(N, k) a^k b^(N-k) / d^N. The walk starts at (b/d)^N and
    steps by the ratio (N-k) a / ((k+1) b). Each step cuts m back to _BITS
    bits, so every term is within 2 (N + log2 N + 1) 2^-127 relative of the
    exact rational (about 1e-34 at N = 10^4), and rounds to its float64
    unless the rational lies that close to a rounding boundary.
    """
    _check_enumerable(N)
    N = int(N)  # a numpy integer would overflow in the products below
    a, d = p.as_integer_ratio()
    b, log_d = d - a, d.bit_length() - 1
    if b == 0:  # p = 1: all mass on k = N
        yield from [(0, 0)] * N + [_normalized(1, 0)]
        return
    m, e = 1, 0
    for bit in bin(N)[2:]:  # (b/d)^N by square-and-multiply
        m, e = _normalized(m * m, 2 * e)
        if bit == "1":
            m, e = _normalized(m * b, e - log_d)
    yield m, e
    for k in range(N):
        den = (k + 1) * b
        shift = den.bit_length()  # keeps the quotient at least as wide as m
        m, e = _normalized((m * (N - k) * a << shift) // den, e - shift)
        yield m, e


def log_pmf_array(spec: BinomialSpec) -> np.ndarray:
    """`spec.log_probs` as an array."""
    import numpy as np

    return np.array(spec.log_probs)


def pmf_array(spec: BinomialSpec) -> np.ndarray:
    """`spec.probs` as an array."""
    import numpy as np

    return np.array(spec.probs)


def moments(spec: BinomialSpec) -> Moments:
    """Mean Np and variance Np(1-p) of the win count."""
    return Moments(mean=spec.N * spec.p, variance=spec.N * spec.p * (1.0 - spec.p))


def _enumerated_count_moments(N: int, p: float) -> tuple[float, float, float]:
    """(E[U], Var[U], COV(U, N-U)) by two-pass summation over the support."""
    law = BinomialSpec(N=N, p=p)
    eu, ev = law.expect(range(N + 1)), law.expect(range(N, -1, -1))
    var = law.expect([(k - eu) * (k - eu) for k in range(N + 1)])
    return eu, var, law.expect([(k - eu) * (N - k - ev) for k in range(N + 1)])


def covariance_uv(N: int, p: float) -> float:
    """COV(U, N-U) of the win and loss counts, by exact enumeration."""
    return _enumerated_count_moments(N, p)[2]


def net_wins_variance(N: int, p: float) -> float:
    """Variance of the net win count U - V, by exact enumeration."""
    # U - V = 2U - N, so VAR = 4 VAR(U); kept in enumerated form on purpose
    return 4.0 * _enumerated_count_moments(N, p)[1]


def log_mgf(spec: BinomialSpec, xi: float) -> float:
    """log E[exp(xi U)] = N log(1 - p + p exp(xi)), safe for large N*xi."""
    if not math.isfinite(xi):
        raise DomainError(f"mgf argument {xi!r} must be finite")
    p = spec.p
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return spec.N * xi
    lo, hi = sorted((math.log1p(-p), math.log(p) + xi))
    return spec.N * (hi + math.log1p(math.exp(lo - hi)))


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
    log_terms = [xi * k + lp for k, lp in enumerate(spec.log_probs)]
    top = max(log_terms)  # shifted by the largest term, so no exp overflows
    total = top + math.log(math.fsum(math.exp(t - top) for t in log_terms))
    if total > _LOG_FLOAT_MAX:
        raise ResourceGuardError("brute-force mgf overflows float64; use log_mgf")
    return math.exp(total)
