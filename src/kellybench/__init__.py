"""Kelly-criterion analysis bench for binary Bernoulli games.

Library layout:

- bernoulli_core: binomial PMF, moments, MGFs, exact count covariance
- entropy: Shannon entropy and the growth/entropy identity
- utility_kelly: log-growth utility, Kelly point, break-even root, regime partition
- martingale_lab: seeded Monte Carlo wealth paths, drift and Doob checks
- risk_metrics: variance/volatility estimates, fractional Kelly trade-off
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
    conditional_growth_factor,
    doob_bound,
    doob_decompose,
    empirical_sup_prob,
    expected_wealth_enumeration,
    expected_wealth_exponential,
    expected_wealth_linear,
    expected_wealth_product,
    log_drift_check,
    ruin_probability_full_stake,
    simulate,
)
from .risk_metrics import (
    VarianceReport,
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
