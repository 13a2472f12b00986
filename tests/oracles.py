"""Independent reference implementations used as test oracles.

Everything here is written as literal, loop-based transcriptions of the
defining formulas, or as the plain array code an optimized kernel
replaced, kept deliberately separate from the optimized library code
paths they are used to check.
"""

from __future__ import annotations

import math

import numpy as np

# 95% quantile of the Kolmogorov sup|bridge| distribution, squared: the
# L=0 limit law quantile.
KOLMOGOROV_95_SQUARED = 1.3581 ** 2


def autocov_reference(x, h: int) -> float:
    """Divisor-n lag-h autocovariance by direct summation."""
    n = len(x)
    total = 0.0
    for i in range(n - h):
        total += x[i] * x[i + h]
    return total / n


def sigma_bar_reference(x, h: int, k: int, lag: int) -> float:
    """Literal nested-loop version of the displacement covariance term.

    Uses 1-based indices to mirror the defining sums: products whose
    largest index i + lag + max(h, k) exceeds n are dropped and the inner
    average divides by the retained count; the outer sum over t is kept
    as an explicit loop even though the summand does not depend on t.
    """
    vals = list(x)
    n = len(vals)

    def X(i: int) -> float:
        return vals[i - 1]

    g_h = sum(X(i) * X(i + h) for i in range(1, n - h + 1)) / n
    g_k = sum(X(i) * X(i + k) for i in range(1, n - k + 1)) / n
    hi = max(h, k)
    kept = [i for i in range(1, n + 1) if i + lag + hi <= n]
    m = len(kept)
    if m < 1:
        raise ValueError("no retained products")
    if lag == 0:
        inner = sum(X(i) * X(i + h) * X(i) * X(i + k) for i in kept) / m
        total = 0.0
        for _t in range(1, n + 1):
            total += inner - g_h * g_k
        return total
    inner = sum(
        X(i) * X(i + h) * X(i + lag) * X(i + lag + k)
        + X(i + lag) * X(i + lag + h) * X(i) * X(i + k)
        for i in kept
    ) / m
    total = 0.0
    for _t in range(1, n - lag + 1):
        total += inner - 2.0 * g_h * g_k
    return total


def read_series_reference(path) -> list[float]:
    """Per-line parse of a one-value-per-line file, raising on the first bad line.

    Blank lines and lines starting with '#' (after stripping) are skipped;
    lines are what text-mode iteration yields.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: non-finite value: {text!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no data lines found")
    return values


def ma1_longrun_matrix(theta: float, sigma: float) -> list[list[float]]:
    """Closed-form 2x2 long-run covariance for an MA(1) process.

    Entries follow from the linear-process formula with Gaussian noise:
    [[2 g0^2 + 4 g1^2, 4 g0 g1], [4 g0 g1, g0^2 + 3 g1^2]] with
    g0 = (1 + theta^2) sigma^2 and g1 = theta sigma^2.
    """
    g0 = (1.0 + theta * theta) * sigma * sigma
    g1 = theta * sigma * sigma
    return [
        [2.0 * g0 * g0 + 4.0 * g1 * g1, 4.0 * g0 * g1],
        [4.0 * g0 * g1, g0 * g0 + 3.0 * g1 * g1],
    ]


def cusum_sq_l0_reference(x) -> tuple[float, int]:
    """Classic CUSUM-of-squares functional with identity weighting.

    Returns (max_k (k/sqrt(n) * (g_k(0) - g_n(0)))^2, argmax k) over
    k = 1..n-1, computed by direct per-prefix summation.
    """
    vals = list(x)
    n = len(vals)
    g_n = autocov_reference(vals, 0)
    best_val, best_k = -1.0, -1
    for k in range(1, n):
        g_k = sum(v * v for v in vals[:k]) / k
        stat = (k / math.sqrt(n) * (g_k - g_n)) ** 2
        if stat > best_val:
            best_val, best_k = stat, k
    return best_val, best_k


def bridge_paths_reference(rng: np.random.Generator, reps: int, n_bridges: int,
                           grid_points: int) -> np.ndarray:
    """(reps, n_bridges, grid_points) bridge values on t_i = i/m, i = 1..m.

    Each bridge is W(t) - t W(1) with W a Gaussian random walk of step
    variance 1/m, so the endpoint value is exactly zero.  One temporary
    per step; the in-place ``cssm.critval._bridge_paths`` must match it
    bit for bit.
    """
    m = grid_points
    steps = rng.standard_normal((reps, n_bridges, m)) * (1.0 / math.sqrt(m))
    walk = np.cumsum(steps, axis=2)
    t = np.arange(1, m + 1) / m
    return walk - t * walk[:, :, -1:]
