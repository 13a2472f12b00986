"""Independent reference implementations used as test oracles.

Everything here is written as literal, loop-based transcriptions of the
defining formulas, or as the plain array code an optimized kernel
replaced, kept deliberately separate from the optimized library code
paths they are used to check.
"""

from __future__ import annotations

import io
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


def prefix_autocovs_reference(values: np.ndarray, L: int) -> np.ndarray:
    """``cssm.autocov.prefix_autocovs`` by one running sum per lag, as it was computed
    before one cumsum of the end-indexed products served every lag."""
    n = values.size
    out = np.empty((n - L, L + 1))
    k = np.arange(L + 1, n + 1, dtype=np.float64)
    for h in range(L + 1):
        csum = np.cumsum(values[: n - h] * values[h:])
        out[:, h] = csum[L - h:] / k
    return out


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


def longrun_matrix_reference(x, L: int, beta: float = 0.3) -> np.ndarray:
    """Unfloored long-run covariance matrix by literal displacement loops.

    Entry (h, k) sums :func:`sigma_bar_reference` over displacements
    0..h_n, with h_n = floor(n**beta) clamped to [1, n-1], and divides by n.
    """
    n = len(x)
    h_n = min(max(math.floor(n ** beta), 1), n - 1)
    out = np.empty((L + 1, L + 1))
    for h in range(L + 1):
        for k in range(h, L + 1):
            total = sum(sigma_bar_reference(x, h, k, lag) for lag in range(h_n + 1))
            out[h, k] = out[k, h] = total / n
    return out


def longrun_terms_reference(values: np.ndarray, L: int, h_n: int):
    """The term array and unfloored sum of ``cssm.longrun._longrun_terms``, one product per lag.

    The y1 sums take one ``P[:n-lag].T @ P[lag:]`` over all rows per
    displacement, which the row-blocked kernel must reproduce; the rest is
    the kernel's own array code.  Returns ``(terms, raw)``.
    """
    n = values.size
    P = np.zeros((n, L + 1))
    for h in range(L + 1):
        P[:n - h, h] = values[:n - h] * values[h:]
    k = np.arange(L + 1)
    edge = np.arange(L)[:, None] >= L - k
    A, cut = np.empty((2, h_n + 1, L + 1, L + 1))
    for lag in range(h_n + 1):
        np.matmul(P[:n - lag].T, P[lag:], out=A[lag])
        np.matmul(P[n - L:].T, P[n - lag - L:n - lag] * edge, out=cut[lag])
    sums = A + A.transpose(0, 2, 1) - cut - cut.transpose(0, 2, 1)
    lags = np.arange(h_n + 1)[:, None, None]
    counts = np.where(lags > 0, n - lags, n / 2)
    g = np.array([values[:n - h] @ values[h:] for h in range(L + 1)]) / n
    terms = counts * (sums / (n - lags - np.maximum.outer(k, k)) - 2.0 * np.outer(g, g))
    return terms, terms.sum(axis=0) / n


def bartlett_reference(gamma, eta: float, L: int) -> np.ndarray:
    """Bartlett's linear-process matrix by the literal sum over lags.

    Entry (i, j) is ``sum_l [g(l) g(l-i+j) + g(l+j) g(l-i)] + (eta - 3)
    g(i) g(j)`` with g(-l) = g(l), g zero beyond the given lags 0..M, and
    the sum over ``|l| <= M + L``, which covers every nonzero term.
    """
    g = np.asarray(gamma, dtype=np.float64).ravel()
    m_max = g.size - 1

    def gam(lag: int) -> float:
        a = abs(lag)
        return float(g[a]) if a <= m_max else 0.0

    bound = m_max + L
    out = np.zeros((L + 1, L + 1))
    for i in range(L + 1):
        for j in range(i, L + 1):
            total = 0.0
            for lag in range(-bound, bound + 1):
                total += gam(lag) * gam(lag - i + j) + gam(lag + j) * gam(lag - i)
            total += (eta - 3.0) * gam(i) * gam(j)
            out[i, j] = out[j, i] = total
    return out


def read_series_reference(path) -> list[float]:
    """Per-line parse of a one-value-per-line file, raising on the first bad line.

    Blank lines and lines starting with '#' (after stripping) are skipped;
    lines are the universal-newline lines that text-mode iteration yields,
    after a leading byte-order mark is dropped.  The whole file is decoded
    before any line is read, so a file that is not UTF-8 text fails as such,
    at its position in the whole file, whatever its lines hold.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        decoded = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    values = []
    for lineno, line in enumerate(io.StringIO(decoded, newline=None), start=1):
        text = line.strip()
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


def bridge_sup_reference(L: int, cfg) -> np.ndarray:
    """Suprema of ``sum_{j=0..L} B_j(t)^2`` for a ``cssm.critval.BridgeConfig``.

    Replications come in batches of 512, batch b drawing from the stream
    spawned with key (b,) from ``cfg.seed``.  Each batch is one
    :func:`bridge_paths_reference` call, on one thread, followed by the
    square sum over bridges and the max over the grid.
    """
    sups = []
    for b, start in enumerate(range(0, cfg.replications, 512)):
        reps = min(512, cfg.replications - start)
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,))
        paths = bridge_paths_reference(np.random.default_rng(seq), reps, L + 1,
                                       cfg.grid_points)
        sups.append((paths * paths).sum(axis=1).max(axis=1))
    return np.concatenate(sups)


def simulate_reference(before, after, k_star: int, n: int, seed: int,
                       burn_in: int) -> np.ndarray:
    """Length-n path of one model family by a literal loop over Python floats.

    Draws the same ``standard_normal`` vector from ``default_rng(seed)`` as
    ``cssm.models`` and then recurses one scalar step at a time.  Step t
    (0-based, burn-in included) follows ``before`` while t < burn_in +
    k_star, i.e. observation k* is the last pre-break one; k_star = n gives
    a path without a break.  Recursions start from zero pre-sample values,
    GARCH from the stationary variance of ``before``; the product model's
    two pre-sample innovations precede step 0, so they follow ``before``.
    """
    total = burn_in + n
    split = burn_in + k_star
    family = before.family.value

    def params(t: int):
        return before.params if t < split else after.params

    rng = np.random.default_rng(seed)
    if family == "product2dep":
        e = rng.standard_normal(total + 2).tolist()
        z = {}
        for t in range(-2, total):
            mu, sigma = params(t)
            z[t] = mu + sigma * e[t + 2]
        out = [z[t] * z[t - 1] * z[t - 2] for t in range(total)]
        return np.array(out[burn_in:])
    e = rng.standard_normal(total).tolist()
    out = []
    if family == "arma11":
        prev = e_prev = 0.0
        for t in range(total):
            phi, theta = params(t)
            prev = phi * prev + (e[t] + theta * e_prev)
            e_prev = e[t]
            out.append(prev)
    elif family == "ma2":
        e1 = e2 = 0.0
        for t in range(total):
            theta1, theta2 = params(t)
            out.append(e[t] + theta1 * e1 + theta2 * e2)
            e1, e2 = e[t], e1
    elif family == "garch11":
        omega, alpha, beta = before.params
        var = omega / (1.0 - alpha - beta)
        prev = 0.0
        for t in range(total):
            if t > 0:
                omega, alpha, beta = params(t)
                var = omega + alpha * prev * prev + beta * var
            prev = math.sqrt(var) * e[t]
            out.append(prev)
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.array(out[burn_in:])
