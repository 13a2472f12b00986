"""CUSUM path over prefix autocovariances and the change-point test.

The path compares the autocovariances of each prefix against the full
sample, weighted by the inverse square root of the estimated long-run
covariance; its maximum is the test statistic.  Under the null the
statistic converges to the supremum of a sum of L+1 independent squared
Brownian bridges, so decisions use the quantiles from :mod:`cssm.critval`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import critval as _critval
from .autocov import as_timeseries, prefix_autocovs
from .critval import DEFAULT_ALPHA
from .longrun import DEFAULT_BETA, CovMatrix, estimate_longrun_cov


@dataclass(frozen=True, eq=False)
class CusumPath:
    """Squared norm of the normalized prefix-vs-full difference at each k.

    ``values[i]`` belongs to prefix length ``k = k_min + i``; the
    admissible range is k_min = L+1 (first k where all lags exist) through
    k_max = n-1 (k = n is identically zero).
    """

    values: np.ndarray
    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size != self.k_max - self.k_min + 1:
            raise ValueError(
                f"values must have length k_max - k_min + 1 = "
                f"{self.k_max - self.k_min + 1}, got {arr.shape}"
            )
        if not (arr >= 0.0).all():
            raise ValueError("path values must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class TestResult:
    """Outcome of the change-point test.

    statistic: maximum of the CUSUM path.
    change_index: smallest prefix length attaining the maximum; the
        estimated change location, reported whether or not the test rejects.
    critical_value: threshold the statistic was compared against.
    reject: True when statistic >= critical_value.
    path: the CUSUM path the statistic was taken from; left out of
        equality and repr.
    """

    statistic: float
    change_index: int
    critical_value: float
    reject: bool
    L: int
    n: int
    path: CusumPath = field(compare=False, repr=False)


def inv_sqrt(C) -> np.ndarray:
    """Symmetric positive-definite S with ``S @ C @ S = I``.

    Computed by eigendecomposition; accepts a :class:`CovMatrix` or a
    plain array that passes its checks (square, finite, exactly symmetric).
    """
    if not isinstance(C, CovMatrix):
        C = CovMatrix(C, L=len(np.atleast_1d(C)) - 1)
    eigvals, eigvecs = np.linalg.eigh(C.entries)
    if eigvals[0] <= 0.0:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {eigvals[0]:.3e})"
        )
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def cusum_path(x, C, L: int) -> CusumPath:
    """CUSUM path ``(k/sqrt(n))^2 * d_k' C^{-1} d_k`` for k = L+1..n-1.

    ``d_k`` stacks the lag-0..L differences between the length-k prefix
    autocovariances and the full-sample ones; a plain array ``C`` is checked
    as a :class:`CovMatrix` for this L.  Prefix autocovariances come from
    running sums: O(n L) for the path plus O(n L^2) for the weighting.
    """
    ts = as_timeseries(x)
    n = ts.n
    C = C if isinstance(C, CovMatrix) else CovMatrix(C, L)
    if C.L != L:
        raise ValueError(f"covariance matrix is for L={C.L}, expected L={L}")
    if n < L + 2:
        raise ValueError(f"need n >= L + 2 for a nonempty path, got n={n}, L={L}")
    root = inv_sqrt(C)
    prefix = prefix_autocovs(ts, L)
    diffs = prefix[:-1] - prefix[-1]
    weighted = diffs @ root
    k = np.arange(L + 1, n, dtype=np.float64)
    vals = (k * k / n) * np.einsum("ij,ij->i", weighted, weighted)
    return CusumPath(values=vals, k_min=L + 1, k_max=n - 1)


def cssm_test(x, L: int, beta: float = DEFAULT_BETA, alpha: float = DEFAULT_ALPHA,
              *, critical_value: float | None = None) -> TestResult:
    """Test for a change in the autocovariance structure at lags 0..L.

    Estimates the long-run covariance from the full series with cutoff
    exponent ``beta`` (see :func:`cssm.longrun.estimate_longrun_cov`), builds
    the CUSUM path, and compares its maximum against ``critical_value``, by
    default the built-in (1-alpha) quantile of the limit law; off that table
    pass one from :func:`cssm.critval.critical_value`, as the test never
    simulates or touches a file.  ``alpha`` must lie in (0, 1) even when
    ``critical_value`` is given.  The test is scale-free across the whole
    double range: the series is first divided by the power of two that puts
    max|x| in [0.5, 1), which changes no rounding for data of ordinary scale.

    Ties in the argmax resolve to the smallest k.  The result carries the
    path itself for plotting or export.
    """
    _critval._check_alpha(alpha)
    values = as_timeseries(x).values
    # a power of two rescales exactly, and max|x| < 1 keeps fourth-order terms in range
    ts = as_timeseries(np.ldexp(values, -np.frexp(np.abs(values).max())[1]))
    path = cusum_path(ts, estimate_longrun_cov(ts, L, beta), L)
    critical_value = _critval._check_critical_value(critical_value, L, alpha)
    best = int(np.argmax(path.values))
    statistic = float(path.values[best])
    return TestResult(
        statistic=statistic,
        change_index=path.k_min + best,
        critical_value=critical_value,
        reject=statistic >= critical_value,
        L=L,
        n=ts.n,
        path=path,
    )
