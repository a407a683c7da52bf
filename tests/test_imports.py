"""The package's names load from their modules on first use, and the input
rules that no longer read NumPy give NumPy's values."""

import importlib
import math

import numpy as np
import pytest

import kellybench
from kellybench import DomainError
from kellybench.bernoulli_core import _LOG_FLOAT_MAX, _LOG_FLOAT_TINY, _check_count
from kellybench.cli import _fmt
from kellybench.utility_kelly import _unit_grid

# every name the package exports, by its defining module
EXPORTED = {
    "bernoulli_core": ["BinomialSpec", "TrialCounts", "covariance_uv", "log_mgf", "mgf",
                       "mgf_bruteforce", "moments", "net_wins_variance", "pmf_array"],
    "entropy": ["shannon", "utility_entropy_identity"],
    "errors": ["ApproximationDomainError", "DegenerateGameError", "DomainError",
               "KellyBenchError", "NoEdgeError", "ResourceGuardError", "SeriesInvalidError"],
    "martingale_lab": ["DoobDecomposition", "SimConfig", "TrajectoryBatch", "doob_decompose",
                       "empirical_sup_prob", "log_drift_check", "simulate"],
    "risk_metrics": ["VarianceReport", "conditional_growth_factor", "doob_bound",
                     "expected_wealth_enumeration", "expected_wealth_exponential",
                     "expected_wealth_linear", "expected_wealth_product",
                     "ruin_probability_full_stake", "tradeoff_table", "variance_report",
                     "wealth_approx"],
    "utility_kelly": ["RegimePartition", "f_star", "f_star_approx", "kelly_fraction",
                      "regime_partition", "utility", "utility_curve", "utility_derivatives",
                      "utility_dominance"],
}
NAMES = [name for names in EXPORTED.values() for name in names]


def test_every_exported_name_is_its_modules_object():
    assert len(NAMES) == 45
    assert sorted(kellybench.__all__) == sorted(NAMES)
    listed = dir(kellybench)
    for module, names in EXPORTED.items():
        defining = importlib.import_module(f"kellybench.{module}")
        for name in names:
            assert getattr(kellybench, name) is getattr(defining, name), name
            assert name in listed
    assert kellybench.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kellybench.no_such_name
    assert not hasattr(kellybench, "np")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from kellybench import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(NAMES)


def test_input_rules_give_numpys_values():
    # the curve's grid is np.linspace(0, 1, n) bit for bit
    for n in [*range(2, 3001), 10**5, 10**6]:
        assert np.array(_unit_grid(n)).tobytes() == np.linspace(0.0, 1.0, n).tobytes(), n
    assert _LOG_FLOAT_MAX == math.log(np.finfo(float).max)
    assert _LOG_FLOAT_TINY == math.log(np.finfo(float).tiny)
    # NumPy's integers are counts, its bool is not
    for count in (np.int32(3), np.int64(3), np.uint64(3)):
        _check_count(count, "count")
    for not_a_count in (True, np.bool_(True), 2.0, "3"):
        with pytest.raises(DomainError, match="must be an integer"):
            _check_count(not_a_count, "count")
    assert _fmt(np.int64(5)) == "5"
    assert _fmt(np.bool_(True)) == "1"
