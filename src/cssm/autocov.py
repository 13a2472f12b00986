"""Sample autocovariances and their prefix sequences.

Everything here uses the uncentered, divisor-n convention

    gamma_hat_n(h) = (1/n) * sum_{i=1..n-h} x_i * x_{i+h},

which is the right estimator for zero-mean series.  Data of unknown mean
should be centered by the caller first (the CLI exposes ``--center`` for
this; simulated series from :mod:`cssm.models` are zero-mean under the
null by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Immutable one-dimensional series of finite real observations."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("series must contain at least one observation")
        if not np.isfinite(arr).all():
            raise ValueError("series contains NaN or infinite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


def as_timeseries(x) -> TimeSeries:
    """Coerce an array-like into a :class:`TimeSeries`; no-op if it is one."""
    if isinstance(x, TimeSeries):
        return x
    return TimeSeries(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class AutocovVector:
    """Autocovariances at lags 0..L computed from the first ``n_used`` points.

    Attributes
    ----------
    gamma : ndarray, shape (L+1,)
        ``gamma[h]`` is the lag-h sample autocovariance of the prefix.
    n_used : int
        Prefix length the values were computed from.
    L : int
        Largest lag, ``L < n_used``.
    """

    gamma: np.ndarray
    n_used: int
    L: int

    def __post_init__(self) -> None:
        arr = np.array(self.gamma, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size != self.L + 1:
            raise ValueError(f"gamma must have length L+1={self.L + 1}, got {arr.shape}")
        if not self.L < self.n_used:
            raise ValueError(f"need L < n_used, got L={self.L}, n_used={self.n_used}")
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)


def _check_lag(h: int, n: int) -> None:
    if not 0 <= h < n:
        raise ValueError(f"lag must be in [0, {n - 1}], got {h}")


def _autocov(values: np.ndarray, h: int) -> float:
    """Divisor-n lag-h autocovariance of a validated array."""
    n = values.size
    if h == 0:
        return float(values @ values) / n
    return float(values[:-h] @ values[h:]) / n


def sample_autocov(x, h: int) -> float:
    """Lag-h sample autocovariance ``(1/n) * sum_{i<=n-h} x_i x_{i+h}``.

    The divisor is n (not n-h) and no centering is applied.

    Parameters
    ----------
    x : TimeSeries or array-like
    h : int
        Lag, must satisfy ``0 <= h < n``.
    """
    values = as_timeseries(x).values
    _check_lag(h, values.size)
    return _autocov(values, h)


# The lag-h autocovariance with the sum over all n starting points: terms
# past the end of the series are dropped and the divisor stays n, so on a
# finite sample it is exactly sample_autocov.  The long-run variance
# estimator is defined in terms of this variant, hence the second name.
circular_autocov = sample_autocov


def _prefix_autocov_matrix(values: np.ndarray, L: int) -> np.ndarray:
    """Matrix of prefix autocovariances, rows k = L+1..n, columns lags 0..L.

    Built from running sums of the lagged products, O(n*L) total.
    """
    n = values.size
    out = np.empty((n - L, L + 1))
    k = np.arange(L + 1, n + 1, dtype=np.float64)
    for h in range(L + 1):
        csum = np.cumsum(values[: n - h] * values[h:])
        out[:, h] = csum[L - h:] / k
    return out


def prefix_autocovs(x, L: int) -> list[AutocovVector]:
    """Autocovariance vectors of every prefix ``x[:k]`` for k = L+1..n.

    Parameters
    ----------
    x : TimeSeries or array-like
    L : int
        Largest lag; requires ``L + 1 <= n``.

    Returns
    -------
    list of AutocovVector
        Element ``j`` holds lags 0..L of the length-(L+1+j) prefix; the
        last element equals the full-sample autocovariances.
    """
    values = as_timeseries(x).values
    n = values.size
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    if L >= n:
        raise ValueError(f"need L < n, got L={L} with n={n}")
    mat = _prefix_autocov_matrix(values, L)
    return [
        AutocovVector(gamma=mat[j], n_used=L + 1 + j, L=L)
        for j in range(n - L)
    ]
