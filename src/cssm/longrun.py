"""Long-run covariance of the sample autocovariances.

Two routes to the (L+1) x (L+1) matrix whose (h, k) entry is the limit of
``n * Cov(gamma_hat_n(h), gamma_hat_n(k))``:

* :func:`estimate_longrun_cov` -- model-free flat-kernel HAC estimate over the
  lagged products ``P[i, h] = x_i x_{i+h}`` up to displacement ``h_n =
  floor(n**beta)``, one BLAS product ``P[:n-lag].T @ P[lag:]`` per displacement
  (O(n (L+1)^2 h_n) in all), eigenvalue-floored so it is safely invertible.
* :func:`bartlett_linear` -- closed form for linear processes with known
  autocovariance function and innovation fourth-moment ratio eta.

The two agree asymptotically on linear processes, which the test suite
exploits as an oracle check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autocov import _autocov, as_timeseries


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric covariance matrix of the lag-0..L autocovariance estimators.

    ``eps_floor`` records the eigenvalue floor applied by
    :func:`estimate_longrun_cov`; it is None for closed-form matrices.
    """

    entries: np.ndarray
    L: int
    eps_floor: float | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        d = self.L + 1
        if arr.shape != (d, d):
            raise ValueError(f"entries must be {d}x{d} for L={self.L}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix has non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("covariance matrix must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for :func:`estimate_longrun_cov`.

    Attributes
    ----------
    beta : float
        Exponent of the displacement cutoff ``h_n = floor(n**beta)``;
        must lie in (0, 1/2).  Defaults to 0.3.
    eps_floor : float or None
        Absolute eigenvalue floor applied after estimation.  None picks the
        scale-following ``1e-8 * trace / (L+1)`` of the raw matrix per call,
        or 1e-12 when that trace is not positive (e.g. an all-zero series).
    """

    beta: float = 0.3
    eps_floor: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must be in (0, 0.5), got {self.beta}")
        if self.eps_floor is not None and not self.eps_floor > 0.0:
            raise ValueError(f"eps_floor must be positive, got {self.eps_floor}")


def truncation_lag(n: int, beta: float) -> int:
    """Displacement cutoff ``floor(n**beta)`` clamped to [1, n-1]."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must be in (0, 0.5), got {beta}")
    return min(max(int(math.floor(n ** beta)), 1), n - 1)


def _min_usable_n(L: int, beta: float) -> int:
    n = max(L + 2, 2)
    while truncation_lag(n, beta) + L >= n:
        n += 1
    return n


def sigma_bar(x, h: int, k: int, lag: int) -> float:
    """Empirical covariance-at-displacement term sigma_bar_{h,k}(lag).

    For displacement 0 this is ``n * (mean_i[x_i^2 x_{i+h} x_{i+k}] -
    g(h) g(k))``; for positive displacements it is ``(n - lag) *
    (mean_i[y1_i + y2_i] - 2 g(h) g(k))`` where y1/y2 are the two
    orientations of the four-point product and g is the divisor-n
    autocovariance.  Products running past the end of the series are
    dropped and the mean divides by the retained count.

    Requires ``0 <= h <= k < n`` and ``0 <= lag < n``.
    """
    values = as_timeseries(x).values
    n = values.size
    if not 0 <= h <= k < n:
        raise ValueError(f"need 0 <= h <= k < n, got h={h}, k={k}, n={n}")
    if not 0 <= lag < n:
        raise ValueError(f"displacement must be in [0, {n - 1}], got {lag}")
    m = n - lag - k
    if m < 1:
        raise ValueError(f"displacement {lag} leaves no complete products "
                         f"for (h={h}, k={k}, n={n})")
    g_h, g_k = _autocov(values, h), _autocov(values, k)
    if lag == 0:
        y = values[:m] ** 2 * values[h:h + m] * values[k:k + m]
        return n * (float(y.mean()) - g_h * g_k)
    y1 = values[:m] * values[h:h + m] * values[lag:lag + m] * values[lag + k:lag + k + m]
    y2 = values[lag:lag + m] * values[lag + h:lag + h + m] * values[:m] * values[k:k + m]
    return (n - lag) * (float((y1 + y2).mean()) - 2.0 * g_h * g_k)


def _raw_longrun(values: np.ndarray, L: int, h_n: int) -> np.ndarray:
    """Unfloored ``sum_{lag=0..h_n} sigma_bar_{h,k}(lag) / n``, lags 0..L; needs h_n + L < n.

    ``A = P[:n-lag].T @ P[lag:]`` holds the y1 sums; the y2 sums are ``A.T`` less
    ``cut``, the rows ``i >= n-lag-k`` among the last L (strictly upper triangular).
    Fourth-order products past the double range raise ValueError, not warnings.
    """
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.zeros((n, L + 1))
        for h in range(L + 1):
            P[:n - h, h] = values[:n - h] * values[h:]
        k = np.arange(L + 1)
        edge = np.arange(L)[:, None] >= L - k  # row n-lag-L+r is cut for column k
        A, cut = np.empty((2, h_n + 1, L + 1, L + 1))
        for lag in range(h_n + 1):
            np.matmul(P[:n - lag].T, P[lag:], out=A[lag])
            np.matmul(P[n - L:].T, P[n - lag - L:n - lag] * edge, out=cut[lag])
        # exactly symmetric; at lag 0, where y1 = y2, it is twice the sum
        sums = A + A.transpose(0, 2, 1) - cut - cut.transpose(0, 2, 1)
        lags = np.arange(h_n + 1)[:, None, None]
        counts = np.where(lags > 0, n - lags, n / 2)  # outer summands, halved at lag 0
        g = np.array([_autocov(values, h) for h in range(L + 1)])
        terms = counts * (sums / (n - lags - np.maximum.outer(k, k)) - 2.0 * np.outer(g, g))
        raw = terms.sum(axis=0) / n
    if not np.isfinite(raw).all():
        raise ValueError("fourth-order products of the series overflow double precision; "
                         "rescale the series (e.g. divide it by its standard deviation)")
    return raw


def theta_bar(x, h: int, k: int, cfg: EstimatorConfig | None = None) -> float:
    """Truncated long-run covariance estimate for the (h, k) lag pair.

    Sums :func:`sigma_bar` over displacements 0..h_n and divides by n, as the
    unfloored :func:`estimate_longrun_cov` matrix does; symmetric in (h, k).
    """
    cfg = cfg or EstimatorConfig()
    values = as_timeseries(x).values
    n = values.size
    lo, hi = min(h, k), max(h, k)
    if not 0 <= lo <= hi < n:
        raise ValueError(f"lags must satisfy 0 <= h, k < n, got h={h}, k={k}, n={n}")
    h_n = truncation_lag(n, cfg.beta)
    if h_n + hi >= n:
        raise ValueError(f"insufficient data: n={n} but the displacement sum needs "
                         f"n > h_n + max(h, k) = {h_n + hi}")
    return float(_raw_longrun(values, hi, h_n)[lo, hi])


def estimate_longrun_cov(x, L: int, cfg: EstimatorConfig | None = None) -> CovMatrix:
    """Estimated long-run covariance matrix of the lag-0..L autocovariances.

    Computes every :func:`theta_bar` entry at once, then floors the
    eigenvalues at ``cfg.eps_floor`` or the automatic trace-relative floor
    so the returned matrix is positive definite.  The statistic stays
    scale-invariant until fourth powers overflow (values near 1e77).

    Raises
    ------
    ValueError
        If ``n`` is too small for the truncation lag, naming the minimum
        usable length, or if the fourth-order products overflow, asking
        for the series to be rescaled.
    """
    cfg = cfg or EstimatorConfig()
    values = as_timeseries(x).values
    n = values.size
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    if L + 1 > n:
        raise ValueError(f"need L + 1 <= n, got L={L} with n={n}")
    h_n = truncation_lag(n, cfg.beta)
    if h_n + L >= n:
        raise ValueError(
            f"insufficient data: n={n} with L={L}, beta={cfg.beta} needs "
            f"n > h_n + L = {h_n + L}; minimum usable n is {_min_usable_n(L, cfg.beta)}"
        )
    raw = _raw_longrun(values, L, h_n)
    trace = float(np.trace(raw))
    floor = cfg.eps_floor or (1e-8 * trace / (L + 1) if trace > 0.0 else 1e-12)
    eigvals, eigvecs = np.linalg.eigh(raw)
    eigvals = np.maximum(eigvals, floor)
    rebuilt = (eigvecs * eigvals) @ eigvecs.T
    rebuilt = (rebuilt + rebuilt.T) / 2.0
    return CovMatrix(entries=rebuilt, L=L, eps_floor=floor)


def bartlett_linear(gamma, eta: float, L: int) -> CovMatrix:
    """Closed-form long-run covariance matrix for a linear process.

    Parameters
    ----------
    gamma : array-like
        Autocovariance function at lags 0..M; treated as zero beyond M.
        Exact for MA(q) processes when M >= q; for other linear models
        pass gamma truncated where it is numerically negligible.
    eta : float
        Fourth-moment ratio of the innovations, ``E(Z^4) / sigma^4``
        (3 for Gaussian noise).
    L : int
        Largest lag of the output matrix.

    Notes
    -----
    Entry (i, j) is ``sum_l [g(l) g(l-i+j) + g(l+j) g(l-i)] +
    (eta - 3) g(i) g(j)`` with the sum over ``|l| <= M + L``, which covers
    every nonzero term for finite-support gamma.  The result carries the
    fourth power of the innovation scale.
    """
    g = np.asarray(gamma, dtype=np.float64).ravel()
    if g.size < 1:
        raise ValueError("gamma must contain at least the lag-0 value")
    if not np.isfinite(g).all():
        raise ValueError("gamma contains non-finite values")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
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
    return CovMatrix(entries=out, L=L)
