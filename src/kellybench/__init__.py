"""Kelly-criterion analysis bench for binary Bernoulli games.

Library layout:

- bernoulli_core: binomial PMF, moments, MGFs, exact count covariance, input rules
- entropy: Shannon entropy and the growth/entropy identity
- utility_kelly: log-growth utility, Kelly point, break-even root, regime partition
- risk_metrics: the law of W(N) in closed form (g, E[W(N)], ruin, Doob, variance, trade-off)
- martingale_lab: the seeded sampler of W(N) and the checks that read its batches
- cli: the `kellybench` command (analyze / simulate / tradeoff / verify)
"""

from .bernoulli_core import (
    BinomialSpec,
    TrialCounts,
    covariance_uv,
    log_mgf,
    mgf,
    mgf_bruteforce,
    moments,
    net_wins_variance,
    pmf_array,
)
from .entropy import shannon, utility_entropy_identity
from .errors import (
    ApproximationDomainError,
    DegenerateGameError,
    DomainError,
    KellyBenchError,
    NoEdgeError,
    ResourceGuardError,
    SeriesInvalidError,
)
from .martingale_lab import (
    DoobDecomposition,
    SimConfig,
    TrajectoryBatch,
    doob_decompose,
    empirical_sup_prob,
    log_drift_check,
    simulate,
)
from .risk_metrics import (
    VarianceReport,
    conditional_growth_factor,
    doob_bound,
    expected_wealth_enumeration,
    expected_wealth_exponential,
    expected_wealth_linear,
    expected_wealth_product,
    ruin_probability_full_stake,
    tradeoff_table,
    variance_report,
    wealth_approx,
)
from .utility_kelly import (
    RegimePartition,
    f_star,
    f_star_approx,
    kelly_fraction,
    regime_partition,
    utility,
    utility_curve,
    utility_derivatives,
    utility_dominance,
)

__version__ = "0.1.0"
