"""Adaptive coin weighing with a spring scale, total weight 2.

n coins hide either one coin of weight 2 or two coins of weight 1; a
weighing reveals the exact total weight of any chosen subset.  The package
implements two adaptive strategies (a joint-halving scheme and plain nested
bisection), their exact expected-cost analysis in rationals, information
lower bounds, and exhaustive verification that predictions match execution
on every configuration.
"""

from .model import (
    CoinWeighError,
    Configuration,
    ENUMERATION_CAP_L,
    InternalContractError,
    InvalidConfigurationError,
    InvalidSizeError,
    InvalidSubsetError,
    Subset,
    TooLargeError,
    config_count,
    enumerate_configs,
    validate_subset,
    weigh,
)
from .strategies import Transcript, check_nested, run_nested, run_proposed
from .analysis import (
    AsymptoticConstants,
    Bounds,
    BranchWeights,
    NestedTables,
    TTable,
    alpha,
    asymptotic_constants,
    branch_weights,
    lower_bounds,
    nested_closed_forms,
    nested_tables,
    t_ave_proposed,
    t_given_delta,
    t_max,
    t_table,
)
from .verify import (
    CrossCheckReport,
    FitResult,
    PerDeltaRow,
    StatsRow,
    cross_check,
    exhaustive_stats,
    fit_loglinear,
)

__version__ = "1.0.0"

__all__ = [
    "CoinWeighError",
    "Configuration",
    "ENUMERATION_CAP_L",
    "InternalContractError",
    "InvalidConfigurationError",
    "InvalidSizeError",
    "InvalidSubsetError",
    "Subset",
    "TooLargeError",
    "config_count",
    "enumerate_configs",
    "validate_subset",
    "weigh",
    "Transcript",
    "check_nested",
    "run_nested",
    "run_proposed",
    "AsymptoticConstants",
    "Bounds",
    "BranchWeights",
    "NestedTables",
    "TTable",
    "alpha",
    "asymptotic_constants",
    "branch_weights",
    "lower_bounds",
    "nested_closed_forms",
    "nested_tables",
    "t_ave_proposed",
    "t_given_delta",
    "t_max",
    "t_table",
    "CrossCheckReport",
    "FitResult",
    "PerDeltaRow",
    "StatsRow",
    "cross_check",
    "exhaustive_stats",
    "fit_loglinear",
    "__version__",
]
