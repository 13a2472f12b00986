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
from .autocov import _prefix_autocov_matrix, as_timeseries
from .critval import BridgeConfig
from .longrun import CovMatrix, EstimatorConfig, estimate_longrun_cov


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
    plain symmetric positive-definite array.
    """
    mat = C.entries if isinstance(C, CovMatrix) else np.asarray(C, dtype=np.float64)
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals[0] <= 0.0:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {eigvals[0]:.3e})"
        )
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def cusum_path(x, C: CovMatrix, L: int) -> CusumPath:
    """CUSUM path ``(k/sqrt(n))^2 * d_k' C^{-1} d_k`` for k = L+1..n-1.

    ``d_k`` stacks the lag-0..L differences between the length-k prefix
    autocovariances and the full-sample ones.  Prefix autocovariances come
    from running sums, so the whole path costs O(n L) plus O(n L^2) for
    the weighting.
    """
    ts = as_timeseries(x)
    values = ts.values
    n = values.size
    if isinstance(C, CovMatrix) and C.L != L:
        raise ValueError(f"covariance matrix is for L={C.L}, expected L={L}")
    if n < L + 2:
        raise ValueError(f"need n >= L + 2 for a nonempty path, got n={n}, L={L}")
    root = inv_sqrt(C)
    if root.shape != (L + 1, L + 1):
        raise ValueError(
            f"covariance matrix must be {L + 1}x{L + 1}, got {root.shape}"
        )
    prefix = _prefix_autocov_matrix(values, L)
    diffs = prefix[:-1] - prefix[-1]
    weighted = diffs @ root
    k = np.arange(L + 1, n, dtype=np.float64)
    vals = (k * k / n) * np.einsum("ij,ij->i", weighted, weighted)
    return CusumPath(values=vals, k_min=L + 1, k_max=n - 1)


def cssm_test(x, L: int, cfg: EstimatorConfig | None = None, alpha: float = 0.05,
              *, critical_value: float | None = None,
              bridge_cfg: BridgeConfig | None = None,
              cache_path=None) -> TestResult:
    """Test for a change in the autocovariance structure at lags 0..L.

    Estimates the long-run covariance from the full series, builds the
    CUSUM path, and compares its maximum against the (1-alpha) quantile of
    the limit law.  The quantile is resolved only after the path, so data
    that is too short fails before any bridge simulation.  It comes from
    the built-in table when available; otherwise pass ``bridge_cfg`` (and
    optionally a ``cache_path``), or a precomputed ``critical_value``,
    which skips the lookup entirely.

    Ties in the argmax resolve to the smallest k.  The result carries the
    path itself for plotting or export.
    """
    ts = as_timeseries(x)
    path = cusum_path(ts, estimate_longrun_cov(ts, L, cfg), L)
    if critical_value is None:
        critical_value = _critval.critical_value(
            L, alpha, bridge_cfg, cache_path=cache_path
        )
    best = int(np.argmax(path.values))
    statistic = float(path.values[best])
    return TestResult(
        statistic=statistic,
        change_index=path.k_min + best,
        critical_value=float(critical_value),
        reject=statistic >= critical_value,
        L=L,
        n=ts.n,
        path=path,
    )
