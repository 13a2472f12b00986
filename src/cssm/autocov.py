"""Time series and the sample autocovariances of their prefixes.

Everything here uses the uncentered, divisor-n convention

    gamma_hat_n(h) = (1/n) * sum_{i=1..n-h} x_i * x_{i+h},

which is the right estimator for zero-mean series.  Data of unknown mean
should be centered by the caller first (the CLI exposes ``--center`` for
this; simulated series from :mod:`cssm.models` are zero-mean under the
null by construction).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_RESCALE = ("{} products of the series {} double precision; "
            "rescale the series (e.g. divide it by its standard deviation)")
_TINY = np.finfo(np.float64).tiny  # smallest normal double
_BLOCK_BYTES = 1 << 18  # bytes per row block of every blocked kernel; fits a per-core L2
_MAX_BLOCK_ROWS = 8192  # OpenBLAS splits a dot product of over 10,000 terms across threads
_REALS = (float, int, np.floating, np.integer)  # concrete types: numbers.Real costs 15x


def _block_rows(width: int) -> int:
    """Rows of ``width`` float64 values that fit in ``_BLOCK_BYTES``, at least one.

    At most ``_MAX_BLOCK_ROWS``: a block's products then run on one BLAS thread, so
    their rounding, and so every result, does not depend on the thread count."""
    return min(_MAX_BLOCK_ROWS, max(1, _BLOCK_BYTES // (8 * width)))


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


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
                closed: bool = False) -> float:
    """``value`` as a float if it is a finite real scalar in (low, high), or [low, high) if
    ``closed``, else a ValueError naming ``name``: the one rule for real arguments.

    Python and numpy reals pass; strings, None, complex numbers and arrays, 0-d ones
    too, fail.  A lower bound with no upper one must be 0: the message says (non)negative."""
    if not isinstance(value, _REALS):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the double range
        v = math.inf
    if not (math.isfinite(v) and (low <= v if closed else low < v) and v < high):
        op = ">=" if closed else ">"
        rule = (f" and in {'[' if closed else '('}{low:g}, {high:g})" if high < math.inf else
                f" and {'nonnegative' if closed else 'positive'} ({name} {op} {low:g})"
                if low > -math.inf else "")
        raise ValueError(f"{name} must be finite{rule}, got {value}")
    return v


def _store_counts(record, **lows: int) -> None:
    """Check each named count field of a frozen dataclass and store the int that passes."""
    for name, low in lows.items():
        object.__setattr__(record, name, _check_count(name, getattr(record, name), low))


def _checked_array(x, what: str, forms: dict[int, str] | None = None, *,
                   item: str = "value", copy: bool = True) -> np.ndarray:
    """``x`` as float64 if it is real, of a dimension in ``forms``, nonempty and finite.

    Else a ValueError naming ``what`` and, for a wrong ndim, each allowed one's name in
    ``forms``: the one rule for array arguments.  Complex input is never cast; with
    ``copy`` False a float64 ``x`` is returned itself.
    """
    try:  # numpy refuses a ragged sequence, a string or an object holding a complex number
        arr = None if np.iscomplexobj(x) else np.array(x, dtype=np.float64, copy=copy or None)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be real: {exc}") from None
    if arr is None:
        raise ValueError(f"{what} must be real, got complex values")
    if forms is not None and arr.ndim not in forms:
        raise ValueError(f"{what} must be {' or '.join(forms.values())}, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{what} must contain at least one {item}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite, got non-finite values (NaN or infinite)")
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Immutable one-dimensional series of finite real observations.

    ``values`` is kept as a read-only float64 copy; an empty, complex or non-finite
    one raises ValueError.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked_array(self.values, "series", {1: "one-dimensional"}, item="observation")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


def as_timeseries(x) -> TimeSeries:
    """Coerce an array-like into a :class:`TimeSeries`; no-op if it is one."""
    if isinstance(x, TimeSeries):
        return x
    return TimeSeries(x)


def _as_stack(x) -> tuple[np.ndarray, bool]:
    """``x`` as an (R, n) float64 stack of series, and whether it was one series.

    A 1-D or 2-D array is checked once as a whole and, if float64, read in place, not
    copied; a 1-D one or a :class:`TimeSeries` becomes the stack of one.  Any other shape
    raises a ValueError naming both.
    """
    if isinstance(x, TimeSeries):
        return x.values[None], True
    forms = {1: "one series (1-D)", 2: "a stack of series (2-D)"}
    x = _checked_array(x, "series", forms, item="observation", copy=False)
    return (x, False) if x.ndim == 2 else (x[None], True)


def _prefix_autocovs(values: np.ndarray, L: int) -> np.ndarray:
    """:func:`prefix_autocovs` of each row of an (R, n) stack, as a writable (R, n-L, L+1) view.

    One cumsum along time serves every lag: lag h holds the products x[i-h] x[i]
    that end at i, zero for i < h, so its running sum at k-1 is the lag-h sum of x[:k].
    """
    n = values.shape[1]
    if L >= n:
        raise ValueError(f"need L < n, got L={L} with n={n}")
    sums = np.empty((len(values), L + 1, n))  # time last, so each pass runs along it
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(L + 1):
            sums[:, h, :h] = 0.0
            np.multiply(values[:, :n - h], values[:, h:], out=sums[:, h, h:])
        np.cumsum(sums, axis=2, out=sums)
        out = sums[:, :, L:]
        out /= np.arange(L + 1, n + 1, dtype=np.float64)
        out = np.swapaxes(out, 1, 2)
    if not np.isfinite(out).all():
        raise ValueError(_RESCALE.format("second-order", "overflow"))
    low = out[:, -1, 0] < _TINY
    if low.any() and values[low].any():
        raise ValueError(_RESCALE.format("second-order", "underflow"))
    return out


def prefix_autocovs(x, L: int) -> np.ndarray:
    """Autocovariances at lags 0..L of every prefix ``x[:k]``, k = L+1..n; needs L < n.

    Returns a read-only (n-L) x (L+1) array: row ``j`` holds the length-(L+1+j)
    prefix, so the last row is the full-sample autocovariances.  An (R, n) stack
    of series gives the (R, n-L, L+1) array of their rows.  Built from one running
    sum along time of the lagged products, O(n*L) total, in data units: beyond about
    max|x| = 1e154, or below 1e-154 if nonzero, they raise ValueError, not warnings.
    """
    values, single = _as_stack(x)
    out = _prefix_autocovs(values, _check_count("L", L))
    out.setflags(write=False)
    return out[0] if single else out
