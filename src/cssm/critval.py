"""Critical values for the supremum of summed squared Brownian bridges.

The test statistic converges under the null to ``sup_{0<=t<=1}
sum_{j=0..L} B_j(t)^2`` with independent standard Brownian bridges B_j.
This module ships the one tabulated quantile the statistic is normally
compared against, (L=1, alpha=0.05) -> 2.408, and simulates everything
else on demand: bridges are built on a uniform grid from Gaussian random
walks via ``B(t) = W(t) - t W(1)``, and the empirical quantile of the
per-replication suprema is returned.  Replications run in fixed batches
of 512, each from its own spawned stream, on up to two threads by
default (thread t takes batches t, t + threads, ...), each in blocks of
rows that fill the package's 256 KB block; the output depends only on
(L, grid, replications, seed), never on the thread count or block size.

Simulated values can be cached in an append-only text file, one record
per line: ``L alpha grid replications seed c_value``.  Nothing is kept in
memory.  Only this module simulates or touches the cache: a test outside
the table takes ``critical_value=c`` from ``c = critical_value(L, alpha,
BridgeConfig(...), cache_path=...)``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autocov import _block_rows, _check_count, _check_real, _checked_array, _store_counts

# Replications are generated in fixed-size batches, each drawing from its own
# spawned stream, so results depend only on (L, grid, replications, seed) and
# never on scheduling or worker count.
_BATCH_SIZE = 512

# Default thread cap.  The affinity mask that _usable_cpus reads cannot see
# a cgroup CPU quota, so on a container it may count CPUs the process will
# not get; more threads than that only contend.
_DEFAULT_WORKERS = 2

_cache_lock = threading.Lock()

DEFAULT_ALPHA = 0.05  # level of the test
DEFAULT_SEED = 12345  # seed of the bridge simulation and of the Monte Carlo study


@dataclass(frozen=True)
class BridgeConfig:
    """Monte Carlo settings for the bridge-supremum simulation.

    grid_points: number of uniform time points on (0, 1]; at least 100.
    replications: number of independent suprema to draw; at least 1000.
    seed: positive 64-bit seed; the output is a pure function of the
        full config.
    """

    grid_points: int = 2000
    replications: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _store_counts(self, grid_points=100, replications=1000, seed=1)
        if self.seed >= 2 ** 64:
            raise ValueError(f"seed must be < 2**64, got {self.seed}")


#: Quantiles shipped with the package, keyed by (L, alpha); all else is simulated.
BUILTIN_TABLE: dict[tuple[int, float], float] = {(1, 0.05): 2.408}


def _check_critical_value(c: float | None, L: int, alpha: float) -> float:
    """``c`` as a float, or the built-in quantile for (L, alpha) when it is None."""
    c = critical_value(L, alpha) if c is None else c
    return _check_real("critical value", c, 0.0, closed=True)  # NaN would never reject


def _bridge_paths(rng: np.random.Generator, reps: int, n_bridges: int,
                  grid_points: int, out: np.ndarray | None = None) -> np.ndarray:
    """(reps, n_bridges, grid_points) bridge values on t_i = i/m, i = 1..m.

    Each bridge is W(t) - t W(1) with W a Gaussian random walk of step
    variance 1/m, so the endpoint value is exactly zero.  Draw, scaling,
    cumulative sum and endpoint correction all write to one buffer,
    ``out`` if given.
    """
    m = grid_points
    buf = np.empty((reps, n_bridges, m)) if out is None else out
    rng.standard_normal(out=buf)
    buf *= 1.0 / math.sqrt(m)
    np.cumsum(buf, axis=2, out=buf)
    buf -= np.arange(1, m + 1) / m * buf[:, :, -1:]
    return buf


def _sup_batch(rng: np.random.Generator, L: int, grid_points: int, out: np.ndarray) -> None:
    """Suprema of one batch into ``out``, simulated a block of rows at a time.

    Draws continue one stream across blocks and every step acts within a row,
    so the block height never changes the output.
    """
    rows = min(len(out), _block_rows((L + 1) * grid_points))
    buf = np.empty((rows, L + 1, grid_points))
    for start in range(0, len(out), rows):
        sups = out[start:start + rows]
        paths = _bridge_paths(rng, len(sups), L + 1, grid_points, buf[:len(sups)])
        np.einsum("rjm,rjm->rm", paths, paths).max(axis=1, out=sups)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_bridge_sup(L: int, cfg: BridgeConfig, workers: int | None = None) -> np.ndarray:
    """One supremum of ``sum_{j=0..L} B_j(t)^2`` per replication.

    Deterministic given the config.  ``workers`` threads take strides of the
    fixed batches (default: the usable CPUs, at most two; never more than the
    batch count); it never changes the output.  The output is allocated first:
    a count too large to hold raises ValueError before any batch runs.
    """
    L = _check_count("L", L)
    reps = cfg.replications
    n_batches = (reps + _BATCH_SIZE - 1) // _BATCH_SIZE
    workers = min(min(_usable_cpus(), _DEFAULT_WORKERS) if workers is None
                  else _check_count("workers", workers, 1), n_batches)
    try:
        sups = np.empty(reps)
    except (ValueError, MemoryError) as exc:  # numpy: "Maximum allowed dimension exceeded"
        raise ValueError(f"replications must fit in memory, got {reps}: {exc}") from None

    def run(first: int) -> None:
        for b in range(first, n_batches, workers):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(b,)))
            _sup_batch(rng, L, cfg.grid_points, sups[b * _BATCH_SIZE:(b + 1) * _BATCH_SIZE])

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    return sups


def sup_quantile(sups, alpha: float) -> float:
    """Empirical (1-alpha)-quantile: order statistic ceil((1-alpha)*R) of R values.

    The R >= 1 values, scalar or 1-D, must be real and finite; float64 ``sups`` is not copied.
    """
    arr = np.atleast_1d(_checked_array(sups, "suprema", {0: "a scalar", 1: "one-dimensional"},
                                       copy=False))
    r = arr.size
    alpha = _check_real("alpha", alpha, 0.0, 1.0)
    rank = min(max(math.ceil((1.0 - alpha) * r), 1), r)
    return float(np.partition(arr, rank - 1)[rank - 1])


def _cache_lookup(path, key: tuple[int, float, int, int, int]) -> float | None:
    p = Path(path)
    if not p.exists():
        return None
    for line in p.read_text(encoding="utf-8", errors="replace").splitlines():
        try:  # a blank, comment, short, long, unparsable or non-text line is skipped
            L, alpha, grid, reps, seed, value = line.split()
            rec = (int(L), float(alpha), int(grid), int(reps), int(seed))
            c = float(value)
        except ValueError:
            continue
        if rec == key:
            return c
    return None


def _cache_append(path, key: tuple[int, float, int, int, int], c: float) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    line = f"{key[0]} {key[1]:.17g} {key[2]} {key[3]} {key[4]} {c:.17g}\n"
    with _cache_lock:
        with open(p, "a", encoding="ascii") as fh:
            fh.write(line)


def critical_value(L: int, alpha: float, cfg: BridgeConfig | None = None,
                   cache_path=None) -> float:
    """Critical value c(L, alpha) for the bridge-supremum limit law.

    Returns the built-in table entry when one exists; otherwise simulates
    with ``cfg`` (required in that case), consulting and appending to the
    cache file when ``cache_path`` is given.  Without one, every call with
    the same ``cfg`` simulates again.
    """
    alpha, L = _check_real("alpha", alpha, 0.0, 1.0), _check_count("L", L)
    hit = BUILTIN_TABLE.get((L, alpha))
    if hit is not None:
        return hit
    if cfg is None:
        raise ValueError(f"no built-in critical value for (L={L}, alpha={alpha}); pass "
                         "critical_value(L, alpha, BridgeConfig(...)) to cssm_test or "
                         "run_scenario as critical_value=")
    key = (L, alpha, cfg.grid_points, cfg.replications, cfg.seed)
    if cache_path is not None:
        cached = _cache_lookup(cache_path, key)
        if cached is not None:
            return _check_critical_value(cached, L, alpha)
    c = sup_quantile(simulate_bridge_sup(L, cfg), alpha)
    if cache_path is not None:
        _cache_append(cache_path, key, c)
    return c
