"""Critical values for the supremum of summed squared Brownian bridges.

The test statistic converges under the null to ``sup_{0<=t<=1}
sum_{j=0..L} B_j(t)^2`` with independent standard Brownian bridges B_j.
This module ships the one tabulated quantile the statistic is normally
compared against, (L=1, alpha=0.05) -> 2.408, and simulates everything
else on demand: bridges are built on a uniform grid from Gaussian random
walks via ``B(t) = W(t) - t W(1)``, and the empirical quantile of the
per-replication suprema is returned.

Simulated values can be cached in an append-only text file, one record
per line: ``L alpha grid replications seed c_value``.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Replications are generated in fixed-size blocks, each drawing from its own
# spawned stream, so results depend only on (L, grid, replications, seed) and
# never on scheduling or worker count.
_BATCH_SIZE = 512

_memo: dict[tuple[int, float, int, int, int], float] = {}
_memo_lock = threading.Lock()
_cache_lock = threading.Lock()


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
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.grid_points < 100:
            raise ValueError(f"grid_points must be >= 100, got {self.grid_points}")
        if self.replications < 1000:
            raise ValueError(f"replications must be >= 1000, got {self.replications}")
        if not 0 < self.seed < 2 ** 64:
            raise ValueError("seed must be a positive 64-bit integer")


@dataclass
class CriticalTable:
    """Map from (L, alpha) to a critical value, with monotonicity checks."""

    values: dict[tuple[int, float], float] = field(default_factory=dict)

    def get(self, L: int, alpha: float) -> float | None:
        return self.values.get((L, alpha))

    def put(self, L: int, alpha: float, c: float) -> None:
        if not c > 0.0:
            raise ValueError(f"critical value must be positive, got {c}")
        self.values[(L, alpha)] = c

    def check_monotone(self) -> None:
        """Raise if the table violates monotonicity in alpha or L."""
        for (l1, a1), c1 in self.values.items():
            for (l2, a2), c2 in self.values.items():
                if l1 == l2 and a1 < a2 and not c1 > c2:
                    raise ValueError(
                        f"c(L={l1}, alpha={a1})={c1} should exceed "
                        f"c(L={l2}, alpha={a2})={c2}"
                    )
                if a1 == a2 and l1 > l2 and not c1 > c2:
                    raise ValueError(
                        f"c(L={l1}, alpha={a1})={c1} should exceed "
                        f"c(L={l2}, alpha={a2})={c2}"
                    )


#: Quantiles shipped with the package; everything else is simulated.
BUILTIN_TABLE = CriticalTable({(1, 0.05): 2.408})


def _bridge_paths(rng: np.random.Generator, reps: int, n_bridges: int,
                  grid_points: int) -> np.ndarray:
    """(reps, n_bridges, grid_points) bridge values on t_i = i/m, i = 1..m.

    Each bridge is W(t) - t W(1) with W a Gaussian random walk of step
    variance 1/m, so the endpoint value is exactly zero.
    """
    m = grid_points
    steps = rng.standard_normal((reps, n_bridges, m)) * (1.0 / math.sqrt(m))
    walk = np.cumsum(steps, axis=2)
    t = np.arange(1, m + 1) / m
    return walk - t * walk[:, :, -1:]


def _sup_batch(rng: np.random.Generator, reps: int, L: int,
               grid_points: int) -> np.ndarray:
    paths = _bridge_paths(rng, reps, L + 1, grid_points)
    square_sum = np.einsum("rjm,rjm->rm", paths, paths)
    return square_sum.max(axis=1)


def simulate_bridge_sup(L: int, cfg: BridgeConfig, workers: int = 1) -> np.ndarray:
    """One supremum of ``sum_{j=0..L} B_j(t)^2`` per replication.

    Deterministic given the config; ``workers`` only parallelizes the
    fixed batches and never changes the output.
    """
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    reps = cfg.replications
    n_batches = (reps + _BATCH_SIZE - 1) // _BATCH_SIZE
    sizes = [min(_BATCH_SIZE, reps - b * _BATCH_SIZE) for b in range(n_batches)]

    def run(b: int) -> np.ndarray:
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,))
        return _sup_batch(np.random.default_rng(seq), sizes[b], L, cfg.grid_points)

    if workers <= 1:
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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
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
    cache file when ``cache_path`` is given.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    hit = BUILTIN_TABLE.get(L, alpha)
    if hit is not None:
        return hit
    if cfg is None:
        raise ValueError(
            f"no built-in critical value for (L={L}, alpha={alpha}); "
            "pass a BridgeConfig to simulate one"
        )
    key = (L, float(alpha), cfg.grid_points, cfg.replications, cfg.seed)
    if cache_path is not None:
        cached = _cache_lookup(cache_path, key)
        if cached is not None:
            with _memo_lock:
                _memo[key] = cached
            return cached
    with _memo_lock:
        c = _memo.get(key)
    if c is None:
        c = sup_quantile(simulate_bridge_sup(L, cfg), alpha)
        with _memo_lock:
            _memo[key] = c
    if cache_path is not None:
        _cache_append(cache_path, key, c)
    return c
