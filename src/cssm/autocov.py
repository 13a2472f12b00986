"""Time series and the sample autocovariances of their prefixes.

Everything here uses the uncentered, divisor-n convention

    gamma_hat_n(h) = (1/n) * sum_{i=1..n-h} x_i * x_{i+h},

which is the right estimator for zero-mean series.  Data of unknown mean
should be centered by the caller first (the CLI exposes ``--center`` for
this; simulated series from :mod:`cssm.models` are zero-mean under the
null by construction).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_RESCALE = ("{} products of the series {} double precision; "
            "rescale the series (e.g. divide it by its standard deviation)")
_TINY = np.finfo(np.float64).tiny  # smallest normal double


def _check_count(name: str, value, low: int = 0) -> int:
    """``value`` as an int if it is an integer >= ``low``, else a ValueError naming ``name``.

    numpy integers pass; a float such as 2.0 fails, as numpy takes none for a size.
    Callers keep the returned int: a small numpy integer would overflow in the kernels."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    return count


def _store_counts(record, **lows: int) -> None:
    """Check each named count field of a frozen dataclass and store the int that passes."""
    for name, low in lows.items():
        object.__setattr__(record, name, _check_count(name, getattr(record, name), low))


def _real_copy(x, what: str) -> np.ndarray:
    """A float64 copy of ``x``; complex input raises instead of losing its imaginary part."""
    if np.iscomplexobj(x):
        raise ValueError(f"{what} must be real, got complex values")
    try:
        return np.array(x, dtype=np.float64, copy=True)
    except TypeError as exc:  # an object array holding a complex number, say
        raise ValueError(f"{what} must be real: {exc}") from None


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Immutable one-dimensional series of finite real observations."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _real_copy(self.values, "series")
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
    return TimeSeries(x)


def prefix_autocovs(x, L: int) -> np.ndarray:
    """Autocovariances at lags 0..L of every prefix ``x[:k]``, k = L+1..n; needs L < n.

    Returns a read-only (n-L) x (L+1) array: row ``j`` holds the length-(L+1+j)
    prefix, so the last row is the full-sample autocovariances.  Built from
    running sums of the lagged products, O(n*L) total, in data units: beyond about
    max|x| = 1e154, or below 1e-154 if nonzero, they raise ValueError, not warnings.
    """
    values = as_timeseries(x).values
    n = values.size
    L = _check_count("L", L)
    if L >= n:
        raise ValueError(f"need L < n, got L={L} with n={n}")
    out = np.empty((n - L, L + 1))
    k = np.arange(L + 1, n + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(L + 1):
            csum = np.cumsum(values[: n - h] * values[h:])
            out[:, h] = csum[L - h:] / k
    if not np.isfinite(out).all():
        raise ValueError(_RESCALE.format("second-order", "overflow"))
    if out[-1, 0] < _TINY and values.any():
        raise ValueError(_RESCALE.format("second-order", "underflow"))
    out.setflags(write=False)
    return out
