"""Critical values for the supremum of summed squared Brownian bridges.

The test statistic converges under the null to ``sup_{0<=t<=1}
sum_{j=0..L} B_j(t)^2`` with independent standard Brownian bridges B_j.
This module ships the one tabulated quantile the statistic is normally
compared against, (L=1, alpha=0.05) -> 2.408, and simulates everything
else on demand: bridges are built on a uniform grid from Gaussian random
walks via ``B(t) = W(t) - t W(1)``, and the empirical quantile of the
per-replication suprema is returned.  Replications run in fixed batches
of 512, each from its own spawned stream, on up to two threads by
default, each in blocks of rows that fill a buffer of about 1 MB; the
output depends only on (L, grid, replications, seed), never on the
thread count or the block size.

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

from .autocov import _check_count

# Replications are generated in fixed-size batches, each drawing from its own
# spawned stream, so results depend only on (L, grid, replications, seed) and
# never on scheduling or worker count.
_BATCH_SIZE = 512

# A batch is simulated in blocks of rows whose buffer takes about this many
# bytes (at least one row), so it stays in a core's cache for any L and grid;
# smaller blocks cost more per call.  Draws continue one stream across blocks
# and every step acts within a row, so the block size never changes the output.
_BLOCK_BYTES = 1 << 20

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
        _check_count("grid_points", self.grid_points, 100)
        _check_count("replications", self.replications, 1000)
        if _check_count("seed", self.seed, 1) >= 2 ** 64:
            raise ValueError(f"seed must be < 2**64, got {self.seed}")


#: Quantiles shipped with the package, keyed by (L, alpha); all else is simulated.
BUILTIN_TABLE: dict[tuple[int, float], float] = {(1, 0.05): 2.408}


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_critical_value(c: float | None, L: int, alpha: float) -> float:
    """``c`` as a float, or the built-in quantile for (L, alpha) when it is None."""
    if c is None:
        c = critical_value(L, alpha)
    if not 0.0 <= c < math.inf:  # a NaN threshold would never reject
        raise ValueError(f"critical value must be finite and nonnegative, got {c}")
    return float(c)


def _bridge_paths(rng: np.random.Generator, reps: int, n_bridges: int,
                  grid_points: int, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """(reps, n_bridges, grid_points) bridge values on t_i = i/m, i = 1..m.

    Each bridge is W(t) - t W(1) with W a Gaussian random walk of step
    variance 1/m, so the endpoint value is exactly zero.  Draw, scaling,
    cumulative sum and endpoint correction all work in one buffer,
    ``out`` if given, with a (reps, m) ``scratch`` for the correction.
    """
    m = grid_points
    buf = np.empty((reps, n_bridges, m)) if out is None else out
    tmp = np.empty((reps, m)) if scratch is None else scratch
    rng.standard_normal(out=buf)
    buf *= 1.0 / math.sqrt(m)
    np.cumsum(buf, axis=2, out=buf)
    t = np.arange(1, m + 1) / m
    for j in range(n_bridges):
        np.multiply(t, buf[:, j, -1:], out=tmp)
        buf[:, j] -= tmp
    return buf


def _sup_batch(rng: np.random.Generator, reps: int, L: int, grid_points: int) -> np.ndarray:
    """Suprema of one batch, simulated a block of rows at a time."""
    rows = min(reps, max(1, _BLOCK_BYTES // ((L + 1) * grid_points * 8)))
    buf, scratch = np.empty((rows, L + 1, grid_points)), np.empty((rows, grid_points))
    sups = np.empty(reps)
    for start in range(0, reps, rows):
        k = min(rows, reps - start)
        paths = _bridge_paths(rng, k, L + 1, grid_points, buf[:k], scratch[:k])
        square_sum = np.einsum("rjm,rjm->rm", paths, paths, out=scratch[:k])
        square_sum.max(axis=1, out=sups[start:start + k])
    return sups


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_bridge_sup(L: int, cfg: BridgeConfig, workers: int | None = None) -> np.ndarray:
    """One supremum of ``sum_{j=0..L} B_j(t)^2`` per replication.

    Deterministic given the config.  ``workers`` threads share the fixed
    batches (default: the usable CPUs, at most two; never more than the
    batch count); it never changes the output.
    """
    L = _check_count("L", L)
    if workers is not None:
        workers = _check_count("workers", workers, 1)
    reps = cfg.replications
    n_batches = (reps + _BATCH_SIZE - 1) // _BATCH_SIZE
    sizes = [min(_BATCH_SIZE, reps - b * _BATCH_SIZE) for b in range(n_batches)]
    if workers is None:
        workers = min(_usable_cpus(), _DEFAULT_WORKERS)
    workers = min(workers, n_batches)

    def run(b: int) -> np.ndarray:
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,))
        return _sup_batch(np.random.default_rng(seq), sizes[b], L, cfg.grid_points)

    if workers == 1:
        parts = [run(b) for b in range(n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(n_batches)))
    return np.concatenate(parts)


def sup_quantile(sups, alpha: float) -> float:
    """Empirical (1-alpha)-quantile: order statistic ceil((1-alpha)*R) of R values."""
    arr = np.asarray(sups, dtype=np.float64).ravel()
    r = arr.size
    if r < 1:
        raise ValueError("need at least one supremum")
    if not np.isfinite(arr).all():
        raise ValueError("suprema must be finite")
    _check_alpha(alpha)
    rank = min(max(math.ceil((1.0 - alpha) * r), 1), r)
    return float(np.partition(arr, rank - 1)[rank - 1])


def _cache_lookup(path, key: tuple[int, float, int, int, int]) -> float | None:
    p = Path(path)
    if not p.exists():
        return None
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            continue
        try:
            rec = (int(parts[0]), float(parts[1]), int(parts[2]),
                   int(parts[3]), int(parts[4]))
            value = float(parts[5])
        except ValueError:
            continue
        if rec == key:
            return value
    return None


def _cache_append(path, key: tuple[int, float, int, int, int], c: float) -> None:
    p = Path(path)
    if p.parent != Path(""):
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
    _check_alpha(alpha)
    L = _check_count("L", L)
    hit = BUILTIN_TABLE.get((L, alpha))
    if hit is not None:
        return hit
    if cfg is None:
        raise ValueError(f"no built-in critical value for (L={L}, alpha={alpha}); pass "
                         "critical_value(L, alpha, BridgeConfig(...)) to cssm_test or "
                         "run_scenario as critical_value=")
    key = (L, float(alpha), cfg.grid_points, cfg.replications, cfg.seed)
    if cache_path is not None:
        cached = _cache_lookup(cache_path, key)
        if cached is not None:
            return _check_critical_value(cached, L, alpha)
    c = sup_quantile(simulate_bridge_sup(L, cfg), alpha)
    if cache_path is not None:
        _cache_append(cache_path, key, c)
    return c
