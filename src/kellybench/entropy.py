"""Shannon entropy of the single-trial and binomial distributions.

Includes the identity linking the optimally-staked growth rate to the
single-trial entropy: growth at the Kelly point equals log(2) - H(p, q).
The 0*log(0) := 0 convention applies throughout, so the deterministic
endpoints p = 0 and p = 1 carry zero entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, KellyBenchError, ResourceGuardError
from .bernoulli_core import ENUMERATION_GUARD, BinomialSpec, log_pmf_array, pmf_array

# agreement required between the direct and expanded binomial-entropy forms
_DUAL_FORM_TOL = 1e-10


class LogBase(Enum):
    NATURAL = "natural"
    BASE2 = "base2"


class EntropySource(Enum):
    SINGLE_TRIAL = "single_trial"
    BINOMIAL_WINS = "binomial_U"
    BINOMIAL_LOSSES = "binomial_V"


@dataclass(frozen=True)
class EntropyReport:
    h: float
    base: LogBase
    source: EntropySource


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the growth/entropy identity plus their absolute gap."""

    lhs: float
    rhs: float
    gap: float


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def _rescale(h_nats: float, base: LogBase) -> float:
    if base is LogBase.BASE2:
        return h_nats / math.log(2.0)
    return h_nats


def shannon(p: float, base: LogBase = LogBase.NATURAL) -> EntropyReport:
    """Single-trial entropy -p log p - (1-p) log(1-p)."""
    if not (0.0 <= p <= 1.0) or math.isnan(p):
        raise DomainError(f"probability {p!r} outside [0, 1]")
    h = -_xlogx(p) - _xlogx(1.0 - p)
    return EntropyReport(h=_rescale(h, base), base=base, source=EntropySource.SINGLE_TRIAL)


def binomial_entropy_forms(spec: BinomialSpec) -> tuple[float, float]:
    """(direct, expanded) entropy of the win count, in nats.

    Direct: -sum P log P over the PMF. Expanded: the three-sum split into
    binomial-coefficient, success, and failure contributions. The two are
    algebraically identical; both are returned so the agreement can be
    asserted externally.
    """
    if spec.N + 1 > ENUMERATION_GUARD:
        raise ResourceGuardError(
            f"entropy enumeration over {spec.N + 1} terms exceeds guard"
        )
    N, s = spec.N, spec.p
    logp = log_pmf_array(spec)
    probs = pmf_array(spec)
    mask = probs > 0.0
    direct = -float(np.dot(probs[mask], logp[mask]))

    alpha = np.arange(N + 1, dtype=float)
    log_comb = gammaln(N + 1) - gammaln(alpha + 1) - gammaln(N - alpha + 1)
    expanded = -float(np.dot(probs, log_comb))
    # skipped terms carry zero mass: 0 * log(0) := 0
    if s > 0.0:
        expanded -= float(np.dot(probs, alpha)) * math.log(s)
    if s < 1.0:
        expanded -= float(np.dot(probs, N - alpha)) * math.log1p(-s)
    return direct, expanded


def binomial_entropy(
    spec: BinomialSpec,
    base: LogBase = LogBase.NATURAL,
    source: EntropySource = EntropySource.BINOMIAL_WINS,
) -> EntropyReport:
    """Entropy of the binomial win (or loss) count.

    Returns the direct -sum P log P value after asserting agreement with
    the expanded three-sum form within 1e-10; disagreement is an internal
    error, never silently returned.
    """
    if source is EntropySource.SINGLE_TRIAL:
        raise DomainError("single-trial entropy comes from shannon(), not a spec")
    # the loss count is Binomial(N, q): swap the success probability
    s = spec.p if source is EntropySource.BINOMIAL_WINS else 1.0 - spec.p
    direct, expanded = binomial_entropy_forms(BinomialSpec(N=spec.N, p=s))
    if abs(direct - expanded) > _DUAL_FORM_TOL:
        raise KellyBenchError(
            f"binomial entropy forms disagree: direct={direct!r}, expanded={expanded!r}"
        )
    return EntropyReport(h=_rescale(direct, base), base=base, source=source)


def utility_entropy_identity(p: float) -> IdentityCheck:
    """Growth at the Kelly stake versus log(2) - H(p); gap reported, not hidden."""
    if not (0.5 <= p <= 1.0):
        raise DomainError(f"identity requires p in [1/2, 1], got {p!r}")
    from .utility_kelly import kelly_fraction, utility

    lhs = utility(kelly_fraction(p), p)
    rhs = math.log(2.0) - shannon(p).h
    return IdentityCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))
