"""Kelly-criterion analysis bench for binary Bernoulli games.

Library layout:

- bernoulli_core: binomial PMF, moments, MGFs, exact count covariance, input rules
- entropy: Shannon entropy and the growth/entropy identity
- utility_kelly: log-growth utility, Kelly point, break-even root, regime partition
- risk_metrics: the law of W(N) in closed form (g, E[W(N)], ruin, Doob, variance, trade-off)
- martingale_lab: the seeded sampler of W(N) and the checks that read its batches
- cli: the `kellybench` command (analyze / simulate / tradeoff / verify)

Every name below is exported from the package but loaded from its module on
first use (PEP 562), so `import kellybench` imports no submodule. The closed
forms need no NumPy to import; only the sampler, `verify` and the array
oracles load it, the oracles when they are called.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "bernoulli_core": (
        "BinomialSpec", "TrialCounts", "covariance_uv", "log_mgf", "mgf", "mgf_bruteforce",
        "moments", "net_wins_variance", "pmf_array",
    ),
    "entropy": ("shannon", "utility_entropy_identity"),
    "errors": (
        "ApproximationDomainError", "DegenerateGameError", "DomainError", "KellyBenchError",
        "NoEdgeError", "ResourceGuardError", "SeriesInvalidError",
    ),
    "martingale_lab": (
        "DoobDecomposition", "SimConfig", "TrajectoryBatch", "doob_decompose",
        "empirical_sup_prob", "log_drift_check", "simulate",
    ),
    "risk_metrics": (
        "VarianceReport", "conditional_growth_factor", "doob_bound",
        "expected_wealth_enumeration", "expected_wealth_exponential", "expected_wealth_linear",
        "expected_wealth_product", "ruin_probability_full_stake", "tradeoff_table",
        "variance_report", "wealth_approx",
    ),
    "utility_kelly": (
        "RegimePartition", "f_star", "f_star_approx", "kelly_fraction", "regime_partition",
        "utility", "utility_curve", "utility_derivatives", "utility_dominance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # read from the defining module on every access, so a name replaced
    # there is replaced here too
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
