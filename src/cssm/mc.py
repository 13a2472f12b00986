"""Monte Carlo harness: empirical power and size of the change-point test.

Scenarios bundle a (possibly degenerate) parameter change with the test
settings; :func:`run_scenario` replicates it, in fixed chunks with one seed
per replication, and keeps each one's statistic and change index (a record
that does not depend on the chunk size, and that every tally reads), and
:func:`run_table` runs one of the four study grids at the test's defaults
(L = 1, ``DEFAULT_ALPHA``, ``DEFAULT_BETA``; a study at another beta builds
``Scenario(beta=...)``), with every break after observation n // 2:

* T1: ARMA(1,1) starting at (theta, phi) = (0.1, 0.2), n = 500, with
  post-break theta in {0.1, 0.3, 0.5, 0.7} crossed with phi in
  {0.2, 0.4, 0.5, 0.6} (the (0.1, 0.2) cell is the no-change size check).
* T2a: 2-dependent product model, n = 500, sigma_z 1 -> {0.8, 0.6, 0.4, 0.2}.
* T2b: same model, innovation mean mu_z 0 -> {0, 0.5, 1.0, 1.5}.
* T3: GARCH(1,1) starting at (0.5, 0.1, 0.2), post-break triples
  {(0.8,0.1,0.2), (0.8,0.1,0.5), (0.8,0.4,0.2)} plus a no-change row,
  each at n in {500, 800, 1000}.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import critval as _critval
from .autocov import _check_count, _check_real, _store_counts
from .critval import DEFAULT_ALPHA, DEFAULT_SEED
from .cusum import cssm_test
from .longrun import DEFAULT_BETA, _check_usable_n
from .models import ChangeSpec, ModelSpec, _check_change_index, simulate_with_change

DEFAULT_REPLICATIONS = 1000  # per scenario of the study

# Scenario base seeds are spaced 2**21 apart so the per-replication
# streams (base XOR r) never collide across scenarios for r < 2**21.
_SEED_STRIDE = 1 << 21


@dataclass(frozen=True)
class Scenario:
    """One replicated experiment: a change spec plus test settings.

    The counts, ``alpha`` and ``beta`` (kept as the int or float their check returns)
    and whether ``n`` is long enough for ``L``, ``beta`` and the break are checked
    here, so a bad value fails at construction, not in every replication.
    """

    label: str
    change: ChangeSpec
    n: int
    L: int = 1
    alpha: float = DEFAULT_ALPHA
    replications: int = DEFAULT_REPLICATIONS
    seed: int = DEFAULT_SEED
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha, 0.0, 1.0))
        _store_counts(self, n=0, L=0, seed=0, replications=1)
        object.__setattr__(self, "beta", _check_usable_n(self.n, self.L, self.beta)[2])
        _check_change_index(self.change.change_index, self.n)
        if self.replications >= _SEED_STRIDE:
            raise ValueError(f"replications must be < {_SEED_STRIDE} "
                             "to keep seed streams disjoint")


@dataclass(frozen=True)
class PowerReport:
    """Each completed replication's statistic and change index, and the tallies read from them.

    The arrays are read-only, in replication order, and left out of equality
    and repr; a failed replication has no entry.  A rejection is ``statistic >=
    critical_value``, as in the test, so another threshold needs no second run.
    ``mean_change_index`` averages over rejecting replications (NaN if none).
    """

    scenario: Scenario
    critical_value: float
    statistics: np.ndarray = field(compare=False, repr=False)
    change_indices: np.ndarray = field(compare=False, repr=False)
    wall_time_s: float

    @property
    def replications(self) -> int:
        return self.statistics.size

    @property
    def failures(self) -> int:
        return self.scenario.replications - self.replications

    @property
    def rejections(self) -> int:
        return int(np.count_nonzero(self.statistics >= self.critical_value))

    @property
    def power(self) -> float:
        return self.rejections / self.replications if self.replications else math.nan

    @property
    def mean_change_index(self) -> float:
        locs = self.change_indices[self.statistics >= self.critical_value]
        return float(np.mean(locs)) if locs.size else math.nan


def rep_seed(base_seed: int, r: int) -> int:
    """Seed for replication r (1-based): ``base_seed XOR r``."""
    return _check_count("base_seed", base_seed) ^ _check_count("r", r, 1)


# Replications simulated per simulate_with_change call, and tested per cssm_test
# call.  Rows share each interpreted time step of a simulator: a GARCH replication
# costs about 100 us at 256 rows against 215 us at 64 (ARMA: 64 against 97 us).  A
# tested row adds about (L+3)*n doubles to the CUSUM stage, which gains nothing past 64.
_SIM_CHUNK = 256
_CHUNK = 64

_FAILURES = (ValueError, FloatingPointError, np.linalg.LinAlgError)


def _each_row(call, rows):
    """``call(rows)`` on the whole chunk; if that raises, ``call([row])[0]`` on
    each row alone, keeping the rows that pass, so each failing replication
    counts once."""
    try:
        return call(rows)
    except _FAILURES:
        pass
    kept = []
    for row in rows:
        try:
            kept.append(call([row])[0])
        except _FAILURES:
            pass
    return kept


def run_scenario(scenario: Scenario, workers: int = 1, *,
                 critical_value: float | None = None) -> PowerReport:
    """Replicate a scenario and record each replication's statistic and change index.

    Replications run on the calling thread in chunks of ``_SIM_CHUNK``: one
    :func:`simulate_with_change` call simulates a chunk's paths, each from
    its replication's own seed (:func:`rep_seed`), and one :func:`cssm_test`
    call tests each slice of ``_CHUNK`` of those paths.  If a call fails, its
    chunk's or slice's replications are run one by one, and each that fails
    counts once.  A path and its test do not depend on the chunk or the
    slice, so the report is a pure function of the scenario.  The critical
    value, resolved once up front from the built-in table unless
    ``critical_value`` is given and checked before any replication, is kept.

    ``workers`` is deprecated and ignored: a thread pool over the Python
    simulators only made runs slower.  Any value other than 1 raises a
    DeprecationWarning.
    """
    if workers != 1:
        warnings.warn("run_scenario(workers=) is deprecated and ignored; "
                      "replications always run serially",
                      DeprecationWarning, stacklevel=2)
    critical_value = _critval._check_critical_value(critical_value, scenario.L, scenario.alpha)
    simulate = partial(simulate_with_change, scenario.change, scenario.n)
    test = partial(cssm_test, L=scenario.L, beta=scenario.beta, alpha=scenario.alpha,
                   critical_value=critical_value)
    start = time.perf_counter()
    stats, locs = [], []
    reps = scenario.replications
    for first in range(1, reps + 1, _SIM_CHUNK):
        seeds = [rep_seed(scenario.seed, r)
                 for r in range(first, min(first + _SIM_CHUNK, reps + 1))]
        paths = _each_row(simulate, seeds)
        for row in range(0, len(paths), _CHUNK):
            results = _each_row(test, paths[row:row + _CHUNK])
            stats += [result.statistic for result in results]
            locs += [result.change_index for result in results]
        paths = results = None  # free this chunk's arrays before the next is simulated

    record = np.array(stats, np.float64), np.array(locs, np.int64)
    for arr in record:
        arr.setflags(write=False)
    return PowerReport(scenario, critical_value, *record, time.perf_counter() - start)


_ARMA = ModelSpec.arma11(phi=0.2, theta=0.1)
_PRODUCT = ModelSpec.product2dep(mu_z=0.0, sigma_z=1.0)
_GARCH = ModelSpec.garch11(0.5, 0.1, 0.2)

# (label, before, after, n) for every cell of each table, in grid order.
_CELLS: dict[str, list[tuple[str, ModelSpec, ModelSpec, int]]] = {
    "T1": [(f"T1 theta1={theta1} phi1={phi1}", _ARMA, ModelSpec.arma11(phi1, theta1), 500)
           for theta1 in (0.1, 0.3, 0.5, 0.7) for phi1 in (0.2, 0.4, 0.5, 0.6)],
    "T2a": [(f"T2a sigma={sigma}", _PRODUCT, ModelSpec.product2dep(0.0, sigma), 500)
            for sigma in (0.8, 0.6, 0.4, 0.2)],
    "T2b": [(f"T2b mu={mu}", _PRODUCT, ModelSpec.product2dep(mu, 1.0), 500)
            for mu in (0.0, 0.5, 1.0, 1.5)],
    "T3": [(f"T3 {row} n={n}", _GARCH, after, n) for row, after in (
        ("no change", _GARCH),
        ("omega=0.8 alpha=0.1 beta=0.2", ModelSpec.garch11(0.8, 0.1, 0.2)),
        ("omega=0.8 alpha=0.1 beta=0.5", ModelSpec.garch11(0.8, 0.1, 0.5)),
        ("omega=0.8 alpha=0.4 beta=0.2", ModelSpec.garch11(0.8, 0.4, 0.2)),
    ) for n in (500, 800, 1000)],
}

TABLE_IDS = tuple(_CELLS)


def table_scenarios(table_id: str, replications: int = DEFAULT_REPLICATIONS,
                    seed: int = DEFAULT_SEED) -> list[Scenario]:
    """The scenario grid of one study table (see module docstring)."""
    if table_id not in _CELLS:
        raise ValueError(f"unknown table {table_id!r}; expected one of {TABLE_IDS}")
    seed = _check_count("seed", seed)
    return [
        Scenario(label, ChangeSpec(n // 2, before, after), n,
                 replications=replications, seed=seed + (i + 1) * _SEED_STRIDE)
        for i, (label, before, after, n) in enumerate(_CELLS[table_id])
    ]


def run_table(table_id: str, replications: int = DEFAULT_REPLICATIONS,
              seed: int = DEFAULT_SEED) -> list[PowerReport]:
    """Run every scenario of one table; reports in grid order."""
    return [run_scenario(s) for s in table_scenarios(table_id, replications, seed)]


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
                    '"' + s.label.replace('"', '""') + '"',  # RFC 4180 quoting
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
