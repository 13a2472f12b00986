"""Monte Carlo harness: empirical power and size of the change-point test.

Scenarios bundle a (possibly degenerate) parameter change with the test
settings; :func:`run_scenario` replicates it and tallies rejections, and
:func:`run_table` enumerates the four study grids T1, T2a, T2b and T3:

* T1: ARMA(1,1) starting at (theta, phi) = (0.1, 0.2), n = 500, break at
  250, with post-break theta in {0.1, 0.3, 0.5, 0.7} crossed with phi in
  {0.2, 0.4, 0.5, 0.6} (the (0.1, 0.2) cell is the no-change size check).
* T2a: 2-dependent product model, innovation sigma 1 -> {0.8, 0.6, 0.4,
  0.2}, n = 500, break at 250.
* T2b: same model, innovation mean 0 -> {0, 0.5, 1.0, 1.5}.
* T3: GARCH(1,1) starting at (0.5, 0.1, 0.2), post-break triples
  {(0.8,0.1,0.2), (0.8,0.1,0.5), (0.8,0.4,0.2)} plus a no-change row,
  each at n in {500, 800, 1000} with the break at n/2.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import critval as _critval
from .cusum import cssm_test
from .longrun import EstimatorConfig
from .models import ChangeSpec, ModelSpec, simulate_with_change

DEFAULT_SEED = 12345

TABLE_IDS = ("T1", "T2a", "T2b", "T3")

# Scenario base seeds are spaced 2**21 apart so the per-replication
# streams (base XOR r) never collide across scenarios for r < 2**21.
_SEED_STRIDE = 1 << 21


@dataclass(frozen=True)
class Scenario:
    """One replicated experiment: a change spec plus test settings."""

    label: str
    change: ChangeSpec
    n: int
    L: int = 1
    alpha: float = 0.05
    replications: int = 1000
    seed: int = DEFAULT_SEED
    cfg: EstimatorConfig = EstimatorConfig()

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.replications >= _SEED_STRIDE:
            raise ValueError(
                f"replications must be < {_SEED_STRIDE} to keep seed streams disjoint"
            )
        if not self.change.change_index < self.n:
            raise ValueError(
                f"change_index {self.change.change_index} must be < n={self.n}"
            )


@dataclass(frozen=True)
class PowerReport:
    """Tally of one scenario's replications.

    ``power`` is rejections over completed replications; replications that
    failed numerically are excluded and counted in ``failures`` (expected
    to be zero in practice).  ``mean_change_index`` averages the estimated
    change location over rejecting replications only (NaN if none).
    """

    scenario: Scenario
    rejections: int
    replications: int
    failures: int
    power: float
    mean_change_index: float
    wall_time_s: float


def rep_seed(base_seed: int, r: int) -> int:
    """Seed for replication r (1-based): ``base_seed XOR r``."""
    return base_seed ^ r


def run_scenario(scenario: Scenario, workers: int = 1, *,
                 critical_value: float | None = None) -> PowerReport:
    """Replicate a scenario and tally rejections.

    Replications run one after another on the calling thread, each
    simulating with its own derived seed, so the report is a pure function
    of the scenario.  The critical value is resolved once up front from
    the built-in table unless ``critical_value`` is given.

    ``workers`` is deprecated and ignored: a thread pool over the Python
    simulators only made runs slower.  Any value other than 1 raises a
    DeprecationWarning.
    """
    if workers != 1:
        warnings.warn("run_scenario(workers=) is deprecated and ignored; "
                      "replications always run serially",
                      DeprecationWarning, stacklevel=2)
    if critical_value is None:
        critical_value = _critval.critical_value(scenario.L, scenario.alpha)
    start = time.perf_counter()
    failures = 0
    reject_locs = []
    for r in range(1, scenario.replications + 1):
        try:
            series = simulate_with_change(
                scenario.change, scenario.n, rep_seed(scenario.seed, r)
            )
            result = cssm_test(
                series, scenario.L, scenario.cfg, scenario.alpha,
                critical_value=critical_value,
            )
        except (ValueError, FloatingPointError, np.linalg.LinAlgError):
            failures += 1
            continue
        if result.reject:
            reject_locs.append(result.change_index)

    completed = scenario.replications - failures
    rejections = len(reject_locs)
    mean_loc = float(np.mean(reject_locs)) if reject_locs else math.nan
    return PowerReport(
        scenario=scenario,
        rejections=rejections,
        replications=completed,
        failures=failures,
        power=rejections / completed if completed else math.nan,
        mean_change_index=mean_loc,
        wall_time_s=time.perf_counter() - start,
    )


def _no_change(spec: ModelSpec, k_star: int) -> ChangeSpec:
    return ChangeSpec(k_star, spec, spec)


def table_scenarios(table_id: str, replications: int = 1000,
                    seed: int = DEFAULT_SEED,
                    cfg: EstimatorConfig = EstimatorConfig()) -> list[Scenario]:
    """The scenario grid of one study table (see module docstring)."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table {table_id!r}; expected one of {TABLE_IDS}")

    entries: list[tuple[str, ChangeSpec, int]] = []
    if table_id == "T1":
        before = ModelSpec.arma11(phi=0.2, theta=0.1)
        for theta1 in (0.1, 0.3, 0.5, 0.7):
            for phi1 in (0.2, 0.4, 0.5, 0.6):
                after = ModelSpec.arma11(phi=phi1, theta=theta1)
                entries.append(
                    (f"T1 theta1={theta1} phi1={phi1}", ChangeSpec(250, before, after), 500)
                )
    elif table_id == "T2a":
        before = ModelSpec.product2dep(mu_z=0.0, sigma_z=1.0)
        for sigma in (0.8, 0.6, 0.4, 0.2):
            after = ModelSpec.product2dep(mu_z=0.0, sigma_z=sigma)
            entries.append((f"T2a sigma={sigma}", ChangeSpec(250, before, after), 500))
    elif table_id == "T2b":
        before = ModelSpec.product2dep(mu_z=0.0, sigma_z=1.0)
        for mu in (0.0, 0.5, 1.0, 1.5):
            after = ModelSpec.product2dep(mu_z=mu, sigma_z=1.0)
            entries.append((f"T2b mu={mu}", ChangeSpec(250, before, after), 500))
    else:
        before = ModelSpec.garch11(0.5, 0.1, 0.2)
        rows: list[tuple[str, ModelSpec | None]] = [
            ("no change", None),
            ("omega=0.8 alpha=0.1 beta=0.2", ModelSpec.garch11(0.8, 0.1, 0.2)),
            ("omega=0.8 alpha=0.1 beta=0.5", ModelSpec.garch11(0.8, 0.1, 0.5)),
            ("omega=0.8 alpha=0.4 beta=0.2", ModelSpec.garch11(0.8, 0.4, 0.2)),
        ]
        for row_label, after in rows:
            for n in (500, 800, 1000):
                change = _no_change(before, n // 2) if after is None \
                    else ChangeSpec(n // 2, before, after)
                entries.append((f"T3 {row_label} n={n}", change, n))

    return [
        Scenario(
            label=label,
            change=change,
            n=n,
            replications=replications,
            seed=seed + (i + 1) * _SEED_STRIDE,
            cfg=cfg,
        )
        for i, (label, change, n) in enumerate(entries)
    ]


def run_table(table_id: str, replications: int = 1000, seed: int = DEFAULT_SEED,
              cfg: EstimatorConfig = EstimatorConfig()) -> list[PowerReport]:
    """Run every scenario of one table and return the reports in grid order."""
    return [run_scenario(s) for s in table_scenarios(table_id, replications, seed, cfg)]


_CSV_HEADER = (
    "scenario,family,n,k_star,params_before,params_after,L,alpha,"
    "replications,rejections,failures,power,mean_change_index,wall_time_ms"
)


def report_csv_lines(reports: list[PowerReport]) -> list[str]:
    lines = [_CSV_HEADER]
    for rep in reports:
        s = rep.scenario
        before = s.change.spec_before
        after = s.change.spec_after
        lines.append(
            ",".join(
                [
                    f'"{s.label}"',
                    before.family.value,
                    str(s.n),
                    str(s.change.change_index),
                    "/".join(f"{p:g}" for p in before.params),
                    "/".join(f"{p:g}" for p in after.params),
                    str(s.L),
                    f"{s.alpha:g}",
                    str(rep.replications),
                    str(rep.rejections),
                    str(rep.failures),
                    f"{rep.power:.6f}",
                    "" if math.isnan(rep.mean_change_index)
                    else f"{rep.mean_change_index:.2f}",
                    f"{rep.wall_time_s * 1000.0:.1f}",
                ]
            )
        )
    return lines


def write_reports_csv(reports: list[PowerReport], path) -> None:
    """Write one CSV row per scenario report."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(report_csv_lines(reports)) + "\n")
