"""Shannon entropy of the single-trial and binomial distributions.

Includes the identity linking the optimally-staked growth rate to the
single-trial entropy: growth at the Kelly point equals log(2) - H(p, q).
The 0*log(0) := 0 convention applies throughout, so the deterministic
endpoints p = 0 and p = 1 carry zero entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bernoulli_core import BinomialSpec, _check_p
from .utility_kelly import kelly_fraction, utility


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the growth/entropy identity."""

    lhs: float
    rhs: float


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def shannon(p: float) -> float:
    """Single-trial entropy -p log p - (1-p) log(1-p), in nats."""
    _check_p(p)
    # from 0.0, so a deterministic game has entropy 0.0, not -0.0
    return 0.0 - _xlogx(p) - _xlogx(1.0 - p)


def binomial_entropy_forms(spec: BinomialSpec) -> tuple[float, float]:
    """(direct, expanded) entropy of the win count, in nats.

    Direct: -sum P log P over the PMF. Expanded: the three-sum split into
    binomial-coefficient, success, and failure contributions. The two are
    algebraically identical; both are returned so the agreement can be
    asserted externally.
    """
    N, s = spec.N, spec.p
    # 0 * log(0) := 0: a -inf log counts as 0, and a sum over zero mass is skipped
    direct = 0.0 - spec.expect([lp if lp > -math.inf else 0.0 for lp in spec.log_probs])
    expanded = 0.0 - spec.expect([math.lgamma(N + 1) - math.lgamma(a + 1) - math.lgamma(N - a + 1)
                                  for a in range(N + 1)])
    if s > 0.0:
        expanded -= spec.expect(range(N + 1)) * math.log(s)
    if s < 1.0:
        expanded -= spec.expect(range(N, -1, -1)) * math.log1p(-s)
    return direct, expanded


def utility_entropy_identity(p: float) -> IdentityCheck:
    """Growth at the Kelly stake versus log(2) - H(p); both sides reported."""
    lhs = utility(kelly_fraction(p), p)
    rhs = math.log(2.0) - shannon(p)
    return IdentityCheck(lhs=lhs, rhs=rhs)
