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

from .autocov import _check_count, _real_copy, as_timeseries

DEFAULT_BETA = 0.3  # cutoff exponent of the displacement sum, h_n = floor(n**beta)

_RESCALE = ("fourth-order products of the series {} double precision; "
            "rescale the series (e.g. divide it by its standard deviation)")


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
        d = _check_count("L", self.L) + 1
        arr = _real_copy(self.entries, "covariance matrix")
        if arr.shape != (d, d):
            raise ValueError(f"entries must be {d}x{d} for L={self.L}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix has non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("covariance matrix must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def truncation_lag(n: int, beta: float) -> int:
    """Displacement cutoff ``floor(n**beta)`` clamped to [1, n-1]."""
    n = _check_count("n", n, 2)
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must be in (0, 0.5), got {beta}")
    return min(max(int(math.floor(n ** beta)), 1), n - 1)


def _min_usable_n(L: int, beta: float) -> int:
    n = max(L + 2, 2)
    while truncation_lag(n, beta) + L >= n:
        n += 1
    return n


def _check_usable_n(n: int, L: int, beta: float) -> None:
    """Raise ValueError naming the smallest usable n unless h_n + L < n; checks n, L and beta."""
    n, L = _check_count("n", n), _check_count("L", L)
    n_min = _min_usable_n(L, beta)
    if n < n_min:
        raise ValueError(f"insufficient data: n={n} with L={L}, beta={beta}; "
                         f"minimum usable n is {n_min}")


def sigma_bar(x, h: int, k: int, lag: int) -> float:
    """Empirical covariance-at-displacement term sigma_bar_{h,k}(lag).

    For displacement 0 this is ``n * (mean_i[x_i^2 x_{i+h} x_{i+k}] -
    g(h) g(k))``; for positive displacements it is ``(n - lag) *
    (mean_i[y1_i + y2_i] - 2 g(h) g(k))`` where y1/y2 are the two
    orientations of the four-point product and g is the divisor-n
    autocovariance.  Products running past the end of the series are
    dropped and the mean divides by the retained count.  The value is one
    entry of the term array that :func:`estimate_longrun_cov` sums.

    Requires ``0 <= h <= k < n`` and ``0 <= lag < n``; raises ValueError,
    as :func:`estimate_longrun_cov` does, when the fourth-order products of
    the lags 0..k over displacements 0..lag overflow or underflow.
    """
    values = as_timeseries(x).values
    n = values.size
    h, k, lag = _check_count("h", h), _check_count("k", k), _check_count("lag", lag)
    if not h <= k < n:
        raise ValueError(f"need h <= k < n, got h={h}, k={k}, n={n}")
    if n - lag - k < 1:
        raise ValueError(f"displacement {lag} leaves no complete products "
                         f"for (h={h}, k={k}, n={n})")
    return float(_longrun_terms(values, k, lag)[0][lag, h, k])


def _longrun_terms(values: np.ndarray, L: int,
                   h_n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``sigma_bar_{h,k}(lag)`` for lags 0..L and displacements 0..h_n, their sum and its floor.

    Returns the (h_n+1, L+1, L+1) term array, the unfloored estimate (the terms
    summed over displacements, divided by n) and the eigenvalue floor of that
    estimate that :func:`estimate_longrun_cov` documents.  ``A = P[:n-lag].T @
    P[lag:]`` holds the y1 sums; the y2 sums are ``A.T`` less ``cut``, the rows
    ``i >= n-lag-k`` among the last L (strictly upper triangular).  Needs h_n + L
    < n.  Fourth-order products past the double range raise ValueError, not
    warnings, also when only their sum over displacements does; so does a floor
    that underflows for a nonzero series.
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
        g = np.array([values[:n - h] @ values[h:] for h in range(L + 1)]) / n
        terms = counts * (sums / (n - lags - np.maximum.outer(k, k)) - 2.0 * np.outer(g, g))
        raw = terms.sum(axis=0) / n
        if not np.isfinite(raw).all():
            raise ValueError(_RESCALE.format("overflow"))
    trace = float(np.trace(raw))
    # a trace <= 0 carries no scale; gamma(0)^2 has that of the fourth-order terms
    floor = 1e-8 * trace / (L + 1) if trace > 0.0 else 1e-8 * float(g[0]) ** 2
    if floor < np.finfo(np.float64).tiny:
        if values.any():
            raise ValueError(_RESCALE.format("underflow"))
        floor = 1e-12  # the all-zero series has no scale at all
    return terms, raw, floor


def estimate_longrun_cov(x, L: int, beta: float = DEFAULT_BETA) -> CovMatrix:
    """Estimated long-run covariance matrix of the lag-0..L autocovariances.

    Entry (h, k) sums :func:`sigma_bar` over displacements up to ``h_n =
    floor(n**beta)``, ``beta`` in (0, 1/2), and divides by n; the eigenvalues
    are then floored so the returned matrix is positive definite.  The floor,
    kept in ``eps_floor``, follows the scale of the data: ``1e-8 * trace /
    (L+1)`` of the raw matrix, or ``1e-8 * gamma_hat(0)**2`` when that trace
    is not positive, and 1e-12 for an all-zero series.  This works in data
    units: it raises when the fourth-order products overflow (near 1e77)
    or when the floor of a nonzero series underflows to a subnormal value
    (below about 1e-75); :func:`cssm.cusum.cssm_test` rescales by a power
    of two first, so the test itself is scale-free across the double range.

    Raises
    ------
    ValueError
        If ``L`` or ``beta`` is out of range, if ``h_n + L >= n``, naming
        the minimum usable n, or if the fourth-order products overflow or
        underflow, asking for the series to be rescaled.
    """
    values = as_timeseries(x).values
    n = values.size
    _check_usable_n(n, L, beta)
    _, raw, floor = _longrun_terms(values, L, truncation_lag(n, beta))
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
    g = _real_copy(gamma, "gamma").ravel()
    if g.size < 1:
        raise ValueError("gamma must contain at least the lag-0 value")
    if not np.isfinite(g).all():
        raise ValueError("gamma contains non-finite values")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    L = _check_count("L", L)
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
