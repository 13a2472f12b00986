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
from .autocov import (_TINY, _as_stack, _block_rows, _check_count, _check_real,
                      _checked_array, _prefix_autocovs)
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
    A stack of matrices, with a leading axis, gives the stack of their roots
    from one ``eigh``.
    """
    if not isinstance(C, CovMatrix):
        C = np.atleast_1d(_checked_array(C, "covariance matrix", copy=False))
        C = CovMatrix(C, L=C.shape[-1] - 1)
    eigvals, eigvecs = np.linalg.eigh(C.entries)
    low = eigvals[..., 0].min()
    if low <= 0.0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {low:.3e})")
    return (eigvecs / np.sqrt(eigvals)[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)


def cusum_path(x, C, L: int) -> CusumPath:
    """CUSUM path ``(k/sqrt(n))^2 * d_k' C^{-1} d_k`` for k = L+1..n-1.

    ``d_k`` stacks the lag-0..L differences between the length-k prefix
    autocovariances and the full-sample ones; a plain array ``C`` is checked
    as a :class:`CovMatrix` for this L.  An (R, n) stack of series takes one
    matrix for all rows or a stack of R (one ``eigh``), and gives an (R, n-L-1)
    path whose row r is the path of row r, all weighted in one pass (about
    (L+3) R n doubles at peak).  Prefix autocovariances come from running sums:
    O(n L) for the path plus O(n L^2) for the weighting.  Works in data units:
    a path past the double range (a series near max|x| = 1e154 or an
    ill-conditioned ``C``) raises ValueError, as does one that underflows while
    the prefixes differ (it scales as x^4 / C); its values are read-only.
    """
    values, single = _as_stack(x)
    R, n = values.shape
    L = _check_count("L", L)
    C = C if isinstance(C, CovMatrix) else CovMatrix(C, L)
    if C.L != L:
        raise ValueError(f"covariance matrix is for L={C.L}, expected L={L}")
    if C.entries.ndim == 3 and len(C.entries) != R:
        raise ValueError(f"{len(C.entries)} covariance matrices for {R} series")
    if n < L + 2:
        raise ValueError(f"need n >= L + 2 for a nonempty path, got n={n}, L={L}")
    root = inv_sqrt(C)
    # the path and its k^2/n scale come after the prefix sums: made first, they moved the
    # page faults of large arrays made later in the process (seen on one long series)
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = _prefix_autocovs(values, L)
        diff = prefix[:, :-1]
        diff -= prefix[:, -1:]  # in place: each prefix less the full sample
        # a 2-D root serves every row, a stack pairs with its row; in row blocks, so each
        # product runs on one BLAS thread and no idle OpenBLAS worker spins after it, and
        # each block is weighted and reduced into the path, so no full weighted copy exists
        path = np.empty((R, n - L - 1))
        rows = _block_rows(L + 1)
        for i in range(0, n - L - 1, rows):
            weighted = diff[:, i:i + rows] @ root
            np.einsum("rij,rij->ri", weighted, weighted, out=path[:, i:i + rows])
        k = np.arange(L + 1, n, dtype=np.float64)
        k *= k
        k /= n  # the two roundings of k * k / n, in place
        path *= k
        top = path.max(axis=1)  # paths are >= 0, so any NaN or inf shows here
        if not (top < np.inf).all():
            raise ValueError("CUSUM path overflows; rescale the series or check C's conditioning")
        if (top < _TINY).any() and diff[top < _TINY].any():
            raise ValueError("CUSUM path underflows; rescale the series or check C's scale")
    path.setflags(write=False)
    return CusumPath(values=path[0] if single else path, k_min=L + 1, k_max=n - 1)


def cssm_test(x, L: int, beta: float = DEFAULT_BETA, alpha: float = DEFAULT_ALPHA,
              *, critical_value: float | None = None) -> TestResult | list[TestResult]:
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

    An (R, n) stack of series gives a list of R results, row r's equal to
    ``cssm_test(x[r], ...)`` down to the path bytes: each row gets its own
    power of two and its own :func:`estimate_longrun_cov`, and one
    :func:`cusum_path` call weights them all.  A 1-D series is the stack of
    one, so both take the same code.

    Ties in the argmax resolve to the smallest k.  The result carries the
    path itself for plotting or export.
    """
    alpha = _check_real("alpha", alpha, 0.0, 1.0)
    critical_value = _critval._check_critical_value(critical_value, L, alpha)
    L = _check_count("L", L)
    values, single = _as_stack(x)
    # a power of two rescales exactly, and max|x| < 1 keeps fourth-order terms in range
    exps = np.frexp(np.abs(values).max(axis=1))[1]
    scaled = np.ldexp(values, -exps[:, None], out=np.empty(values.shape))
    covs = CovMatrix(np.array([estimate_longrun_cov(row, L, beta).entries for row in scaled]), L)
    path = cusum_path(scaled, covs, L)
    best = path.values.argmax(axis=1)  # ties resolve to the smallest k
    stats = path.values[np.arange(len(best)), best].tolist()
    n, k_min, k_max = scaled.shape[1], path.k_min, path.k_max
    results = [TestResult(statistic=s, change_index=k_min + b, critical_value=critical_value,
                          reject=s >= critical_value, L=L, n=n, path=CusumPath(v, k_min, k_max))
               for v, b, s in zip(path.values, best.tolist(), stats)]
    return results[0] if single else results
