"""CUSUM-based detection of change points in autocovariance structure.

The statistic compares prefix autocovariances against the full sample,
normalized by a model-free estimate of their long-run covariance, and is
calibrated against the supremum of a sum of squared Brownian bridges.
Works for linear and nonlinear weakly dependent series (ARMA, GARCH,
m-dependent products, ...).
"""

from .autocov import TimeSeries, as_timeseries, prefix_autocovs
from .critval import (
    BUILTIN_TABLE,
    DEFAULT_SEED,
    BridgeConfig,
    critical_value,
    simulate_bridge_sup,
    sup_quantile,
)
from .cusum import CusumPath, TestResult, cssm_test, cusum_path, inv_sqrt
from .longrun import (
    CovMatrix,
    bartlett_linear,
    estimate_longrun_cov,
    sigma_bar,
    truncation_lag,
)
from .mc import (
    PowerReport,
    Scenario,
    rep_seed,
    run_scenario,
    run_table,
    table_scenarios,
    write_reports_csv,
)
from .models import ChangeSpec, Family, ModelSpec, simulate, simulate_with_change

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TABLE",
    "BridgeConfig",
    "ChangeSpec",
    "CovMatrix",
    "CusumPath",
    "DEFAULT_SEED",
    "Family",
    "ModelSpec",
    "PowerReport",
    "Scenario",
    "TestResult",
    "TimeSeries",
    "as_timeseries",
    "bartlett_linear",
    "critical_value",
    "cssm_test",
    "cusum_path",
    "estimate_longrun_cov",
    "inv_sqrt",
    "prefix_autocovs",
    "rep_seed",
    "run_scenario",
    "run_table",
    "sigma_bar",
    "simulate",
    "simulate_bridge_sup",
    "simulate_with_change",
    "sup_quantile",
    "table_scenarios",
    "truncation_lag",
    "write_reports_csv",
]
