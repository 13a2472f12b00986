"""Long-run covariance of the sample autocovariances.

Two routes to the (L+1) x (L+1) matrix whose (h, k) entry is the limit of
``n * Cov(gamma_hat_n(h), gamma_hat_n(k))``:

* :func:`estimate_longrun_cov` -- model-free flat-kernel HAC estimate over the
  lagged products ``P[i, h] = x_i x_{i+h}`` up to displacement ``h_n =
  floor(n**beta)``, summed in row blocks of P that stay in cache, one BLAS
  product per block and displacement (O(n (L+1)^2 h_n) in all),
  eigenvalue-floored so it is safely invertible.
* :func:`bartlett_linear` -- closed form for linear processes with known
  autocovariance function and innovation fourth-moment ratio eta.

The two agree asymptotically on linear processes, which the test suite
exploits as an oracle check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autocov import (_RESCALE, _TINY, _block_rows, _check_count, _check_real, _checked_array,
                      _store_counts, as_timeseries)

DEFAULT_BETA = 0.3  # cutoff exponent of the displacement sum, h_n = floor(n**beta)


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric covariance matrix of the lag-0..L autocovariance estimators.

    ``entries``, kept as a read-only float64 copy, must be real, finite, (L+1) x (L+1)
    and exactly symmetric, or a nonempty stack of such matrices on a leading axis, one
    per series of a stack, which :func:`cssm.cusum.cusum_path` weights row by row.
    ``eps_floor`` records the eigenvalue floor applied by
    :func:`estimate_longrun_cov`; it is None for closed-form matrices.
    """

    entries: np.ndarray
    L: int
    eps_floor: float | None = None

    def __post_init__(self) -> None:
        _store_counts(self, L=0)
        d = self.L + 1
        arr = _checked_array(self.entries, "covariance matrix")
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (d, d):
            raise ValueError(f"entries must be {d}x{d} for L={self.L}, got {arr.shape}")
        if not (arr == np.swapaxes(arr, -1, -2)).all():  # the shape is square, the entries finite
            raise ValueError("covariance matrix must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def truncation_lag(n: int, beta: float) -> int:
    """Displacement cutoff ``floor(n**beta)``, at least 1; ``beta`` in (0, 1/2), so it is < n."""
    n, beta = _check_count("n", n, 2), _check_real("beta", beta, 0.0, 0.5)
    if (bits := math.log2(n)) * beta >= 1024:  # n**beta past the double range
        raise ValueError(f"n must be below 2**{1024 / beta:.6g} at beta={beta}, got 2**{bits:.6g}")
    return max(math.floor(n ** beta if bits < 1023 else 2.0 ** (beta * bits)), 1)


def _min_usable_n(L: int, beta: float) -> int:
    n = L + 2  # climbs to the least n >= L + 1 + h_n and stops there, as h_n never falls
    while (m := L + 1 + truncation_lag(n, beta)) > n:
        n = m
    return n


def _check_usable_n(n: int, L: int, beta: float) -> tuple[int, int, float, int]:
    """Checked ``(n, L, beta, h_n)``; a ValueError naming the least usable n unless h_n + L < n."""
    n, L, beta = _check_count("n", n), _check_count("L", L), _check_real("beta", beta, 0.0, 0.5)
    h_n = truncation_lag(max(n, 2), beta)  # >= 1, so n < 2 fails the test below
    if h_n + L >= n:
        try:
            least = _min_usable_n(L, beta)
        except ValueError:  # the climb passed the n whose n**beta leaves the double range
            least = f"above 2**{1024 / beta:.6g}"
        raise ValueError(f"insufficient data: n={n} with L={L}, beta={beta}; "
                         f"minimum usable n is {least}")
    return n, L, beta, h_n


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


@functools.lru_cache(maxsize=16)
def _term_constants(n: int, L: int, h_n: int) -> tuple[np.ndarray, ...]:
    """The read-only arrays of :func:`_longrun_terms` that depend on (n, L, h_n) alone.

    A Monte Carlo study estimates thousands of series of one length, so each
    is built once.
    """
    k, lags = np.arange(L + 1), np.arange(h_n + 1)
    edge = np.arange(L)[:, None] >= L - k  # row n-lag-L+r is cut for column k
    last = (n - L - lags)[:, None] + np.arange(L)  # rows n-lag-L..n-lag-1 of each lag
    lags = lags[:, None, None]
    counts = np.where(lags > 0, n - lags, n / 2)  # outer summands, halved at lag 0
    kept = n - lags - np.maximum.outer(k, k)  # complete products at (lag, h, k)
    for arr in (edge, last, counts, kept):
        arr.setflags(write=False)
    return edge, last, counts, kept


def _longrun_terms(values: np.ndarray, L: int,
                   h_n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``sigma_bar_{h,k}(lag)`` for lags 0..L and displacements 0..h_n, their sum and its floor.

    Returns the (h_n+1, L+1, L+1) term array, the unfloored estimate (the terms
    summed over displacements, divided by n) and the eigenvalue floor of that
    estimate that :func:`estimate_longrun_cov` documents.  ``A = P[:n-lag].T @
    P[lag:]`` holds the y1 sums, added up over the row blocks of :func:`_block_rows`:
    each block meets every lag while it is in cache, and for n up to one block
    the sums are exactly the single products.  The autocovariances g are summed
    over the same blocks, so no product is split across BLAS threads.  The y2
    sums are ``A.T`` less ``cut``, the rows ``i >= n-lag-k`` among the last L
    (strictly upper triangular), for every lag from one gather of those rows
    and one product.
    Needs h_n + L < n.  Fourth-order products past the double range raise
    ValueError, not warnings, also when only their sum over displacements
    does; so does a floor that underflows for a nonzero series.
    """
    n = values.size
    edge, last, counts, kept = _term_constants(n, L, h_n)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.zeros((n, L + 1))
        for h in range(L + 1):
            P[:n - h, h] = values[:n - h] * values[h:]
        cut = P[n - L:].T @ (P[last] * edge)
        A = np.empty((h_n + 1, L + 1, L + 1))
        g = np.zeros(L + 1)
        rows = _block_rows(L + 1)  # of P
        for i0 in range(0, n, rows):  # every lag of one row block while it is in cache
            for h in range(L + 1):  # g in the same blocks, so no dot product is threaded
                g[h] += values[i0:min(i0 + rows, n - h)] @ values[i0 + h:i0 + h + rows]
            for lag in range(h_n + 1):  # a block past n - lag is empty and adds zeros
                i1 = min(i0 + rows, n - lag)
                if i0 == 0:  # never empty, as h_n + L < n, so it writes A[lag] in place
                    np.matmul(P[:i1].T, P[lag:i1 + lag], out=A[lag])
                else:
                    A[lag] += P[i0:i1].T @ P[i0 + lag:i1 + lag]
        # exactly symmetric; at lag 0, where y1 = y2, it is twice the sum
        sums = A + A.transpose(0, 2, 1) - cut - cut.transpose(0, 2, 1)
        g /= n
        terms = counts * (sums / kept - 2.0 * np.outer(g, g))
        raw = terms.sum(axis=0) / n
        if not np.isfinite(raw).all():
            raise ValueError(_RESCALE.format("fourth-order", "overflow"))
    trace = float(np.trace(raw))
    # a trace <= 0 carries no scale; gamma(0)^2 has that of the fourth-order terms
    floor = 1e-8 * trace / (L + 1) if trace > 0.0 else 1e-8 * float(g[0]) ** 2
    if floor < _TINY:
        if values.any():
            raise ValueError(_RESCALE.format("fourth-order", "underflow"))
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
    _, L, _, h_n = _check_usable_n(values.size, L, beta)
    _, raw, floor = _longrun_terms(values, L, h_n)
    eigvals, eigvecs = np.linalg.eigh(raw)
    eigvals = np.maximum(eigvals, floor)
    rebuilt = (eigvecs * eigvals) @ eigvecs.T
    rebuilt = (rebuilt + rebuilt.T) / 2.0
    return CovMatrix(entries=rebuilt, L=L, eps_floor=floor)


def bartlett_linear(gamma, eta: float, L: int) -> CovMatrix:
    """Closed-form long-run covariance matrix for a linear process.

    Parameters
    ----------
    gamma : scalar or 1-D array-like
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
    Entry (i, j) is ``sum_l [g(l) g(l-i+j) + g(l+j) g(l-i)] + (eta - 3) g(i)
    g(j) = R(|i-j|) + R(i+j) + (eta - 3) g(i) g(j)``, with the autocorrelation
    ``R(d) = sum_l g(l) g(l+d)`` of the symmetric g(-M..M) at O(L (M+L)) cost.
    It is exactly symmetric and carries the fourth power of the innovation scale.
    """
    g = np.atleast_1d(_checked_array(gamma, "gamma", {0: "a scalar", 1: "one-dimensional"},
                                     copy=False))
    eta, L = _check_real("eta", eta, 0.0), _check_count("L", L)
    M = g.size - 1
    s = np.concatenate((g[:0:-1], g, np.zeros(2 * L)))  # gamma(-M..M), then zeros
    i, j = np.indices((L + 1, L + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # CovMatrix rejects what overflows
        R = np.array([s[:s.size - d] @ s[d:] for d in range(2 * L + 1)])
        out = R[abs(i - j)] + R[i + j] + (eta - 3.0) * np.outer(s[M:M + L + 1], s[M:M + L + 1])
    return CovMatrix(entries=out, L=L)
