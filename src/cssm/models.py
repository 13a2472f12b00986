"""Simulators for the four model families used in the power studies.

Families: ARMA(1,1), MA(2), a 2-dependent product of three consecutive
innovations, and GARCH(1,1), all driven by i.i.d. standard normal
innovations (the product model shifts and scales them by mu_z and sigma_z).
A change point is introduced by switching the parameter set mid-series
while carrying the recursion state (lagged observations, innovations and
conditional variances) across the break, so the parameter change is the
only discontinuity.

Every simulator takes ``seed`` as an int, for one path as a
:class:`TimeSeries`, or as a sequence of ints, for one path per seed as the
rows of a read-only array.  Row r of the array is byte-identical to the
int call with ``seed[r]``: each recursion is written once and steps time
over all rows together, so simulating many paths is much cheaper per path
than simulating them one by one.  Each seed's innovations fill one contiguous
buffer row, and the path is written over them, so returned rows are contiguous.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autocov import TimeSeries, _check_count, _check_real, _checked_array, _store_counts

DEFAULT_BURN_IN = 500


class Family(str, Enum):
    ARMA11 = "arma11"
    MA2 = "ma2"
    PRODUCT2DEP = "product2dep"
    GARCH11 = "garch11"


# (low, high, closed) of the parameters that have bounds, as _check_real takes them
_PARAM_BOUNDS = {"phi": (-1.0, 1.0), "sigma_z": (0.0,), "omega": (0.0,),
                 "alpha": (0.0, math.inf, True), "beta": (0.0, math.inf, True)}


@dataclass(frozen=True)
class ModelSpec:
    """One parameterized model.

    ``params`` is family-specific: (phi, theta) for ARMA11, (theta1,
    theta2) for MA2, (mu_z, sigma_z) for PRODUCT2DEP, (omega, alpha, beta)
    for GARCH11.
    """

    family: Family
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        family, params = Family(self.family), self.params
        names = _FAMILIES[family][0]
        if isinstance(params, (str, bytes)) or not np.iterable(params):
            raise ValueError(f"params must be a sequence of numbers {names}, got {params!r}")
        params = tuple(params)
        if len(params) != len(names):
            raise ValueError(
                f"{family.value} expects {len(names)} parameters "
                f"{names}, got {len(params)}"
            )
        params = tuple(_check_real(name, p, *_PARAM_BOUNDS.get(name, ()))
                       for name, p in zip(names, params))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        if family is Family.GARCH11 and not params[1] + params[2] < 1.0:
            raise ValueError(f"GARCH needs alpha + beta < 1 for stationarity, "
                             f"got {params[1] + params[2]}")

    @classmethod
    def arma11(cls, phi: float, theta: float) -> "ModelSpec":
        return cls(Family.ARMA11, (phi, theta))

    @classmethod
    def ma2(cls, theta1: float, theta2: float) -> "ModelSpec":
        return cls(Family.MA2, (theta1, theta2))

    @classmethod
    def product2dep(cls, mu_z: float = 0.0, sigma_z: float = 1.0) -> "ModelSpec":
        return cls(Family.PRODUCT2DEP, (mu_z, sigma_z))

    @classmethod
    def garch11(cls, omega: float, alpha: float, beta: float) -> "ModelSpec":
        return cls(Family.GARCH11, (omega, alpha, beta))


@dataclass(frozen=True)
class ChangeSpec:
    """Parameter change after observation ``change_index``.

    Observations 1..change_index follow ``spec_before``; the rest follow
    ``spec_after``.  Both specs must share a family.
    """

    change_index: int
    spec_before: ModelSpec
    spec_after: ModelSpec

    def __post_init__(self) -> None:
        _store_counts(self, change_index=1)
        if self.spec_before.family is not self.spec_after.family:
            raise ValueError(
                f"change must stay within one family, got "
                f"{self.spec_before.family.value} -> {self.spec_after.family.value}"
            )


def _check_change_index(change_index: int, n: int) -> None:
    """Raise ValueError unless ``n`` is a length with observations after the break."""
    if not change_index < _check_count("n", n, 1):
        raise ValueError(f"change_index must be < n, got change_index={change_index}, n={n}")


def _innovations(seeds: list[int], size: int, pad: int = 0) -> np.ndarray:
    """(pad + size, R) standard normals below ``pad`` zero pre-sample rows.

    The transpose of an (R, pad + size) buffer: column j below the padding is
    ``default_rng(seeds[j]).standard_normal(size)``, the stream of a one-seed run.
    """
    z = np.empty((len(seeds), pad + size))
    z[:, :pad] = 0.0
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row[pad:])
    return z.T


# Each kernel maps a (T, p) parameter table (row t: step t's parameters) and R
# seeds to a (T, R) array of paths.  ARMA and GARCH step time in one Python loop
# over the rows of all R paths, each step overwriting the drive or innovation it
# read; with one seed, over the floats of a 1-D view, about 10x faster per step.

def _steps(z: np.ndarray) -> tuple[memoryview | np.ndarray, Callable]:
    """What a recursion steps over and overwrites in the (T, R) array ``z``, and its sqrt."""
    if z.shape[1] == 1:
        return memoryview(z[:, 0]), math.sqrt
    return z, np.sqrt


def _sim_arma11(params: np.ndarray, seeds: list[int]) -> np.ndarray:
    phi, theta = params.T
    z = _innovations(seeds, len(params), pad=1)
    for row in z.T:  # the drive e_t + theta_t e_{t-1}, over the buffer's contiguous rows
        row[1:] += theta * row[:-1]
    x, _ = _steps(z[1:])
    prev = 0.0
    for t, phi_t in enumerate(phi.tolist()):
        x[t] = prev = phi_t * prev + x[t]
    return z[1:]


def _sim_ma2(params: np.ndarray, seeds: list[int]) -> np.ndarray:
    theta1, theta2 = params.T
    z = _innovations(seeds, len(params), pad=2)
    for row in z.T:  # e_t + theta1_t e_{t-1}, then + theta2_t e_{t-2}, over contiguous rows
        lag2 = theta2 * row[:-2]
        row[2:] += theta1 * row[1:-1]
        row[2:] += lag2
    return z[2:]


def _sim_product2dep(params: np.ndarray, seeds: list[int]) -> np.ndarray:
    # Two pre-sample innovations feed the first product; they precede the
    # break, so they always draw from the pre-break law of row 0.
    mu, sigma = np.concatenate((params[:1], params[:1], params)).T[:, :, None]
    z = _innovations(seeds, len(mu))
    z *= sigma
    z += mu
    for row in z.T:  # z_t z_{t-1}, then times z_{t-2}, over contiguous rows
        lag2 = row[:-2].copy()
        row[2:] *= row[1:-1]  # numpy reads an overlapping operand from a copy
        row[2:] *= lag2
    return z[2:]


def _sim_garch11(params: np.ndarray, seeds: list[int]) -> np.ndarray:
    z = _innovations(seeds, len(params))
    x, sqrt = _steps(z)
    steps = enumerate(zip(*params.T.tolist()))
    # Start from the stationary variance of the pre-break parameters.
    _, (omega, alpha, beta) = next(steps)
    var = omega / (1.0 - alpha - beta)
    x[0] = prev = sqrt(var) * x[0]
    for t, (omega, alpha, beta) in steps:
        var = omega + alpha * prev * prev + beta * var
        x[t] = prev = sqrt(var) * x[t]
    return z


# each family's parameter names, in ModelSpec.params order, and its kernel
_FAMILIES: dict[Family, tuple[tuple[str, ...], Callable]] = {
    Family.ARMA11: (("phi", "theta"), _sim_arma11),
    Family.MA2: (("theta1", "theta2"), _sim_ma2),
    Family.PRODUCT2DEP: (("mu_z", "sigma_z"), _sim_product2dep),
    Family.GARCH11: (("omega", "alpha", "beta"), _sim_garch11),
}


def _simulate_pair(before: ModelSpec, after: ModelSpec, k_star: int, n: int,
                   seed: int | Sequence[int], burn_in: int) -> TimeSeries | np.ndarray:
    n, burn_in = _check_count("n", n, 1), _check_count("burn_in", burn_in)
    single = isinstance(seed, (str, bytes)) or not np.iterable(seed)
    seeds = [_check_count("seed", s) for s in ([seed] if single else seed)]
    if not seeds:
        raise ValueError("seed must be an int or a non-empty 1-D sequence of ints")
    # Row t holds step t's parameters; the first burn_in + k_star precede the break.
    params = np.repeat([before.params, after.params],
                       [burn_in + k_star, n - k_star], axis=0)
    # Overflow surfaces as a non-finite path, which raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _FAMILIES[before.family][1](params, seeds)[burn_in:].T
    paths = _checked_array(paths, "simulated paths", copy=False)
    paths.setflags(write=False)
    return TimeSeries(paths[0]) if single else paths


def simulate(spec: ModelSpec, n: int, seed: int | Sequence[int],
             burn_in: int = DEFAULT_BURN_IN) -> TimeSeries | np.ndarray:
    """Length-n path of ``spec``, deterministic given the seed.

    ``burn_in`` extra steps are generated first and discarded; recursions
    start from zero pre-sample values (GARCH from its stationary
    variance), which the burn-in washes out.

    An int ``seed`` returns a :class:`TimeSeries`.  A non-empty 1-D
    sequence of seeds returns a read-only float64 array of shape
    (len(seed), n) whose row r is byte-identical to the path of
    ``seed[r]``.  Either form raises ``ValueError`` ("simulated paths must
    be finite") if a path is not finite.
    """
    return _simulate_pair(spec, spec, n, n, seed, burn_in)


def simulate_with_change(cs: ChangeSpec, n: int, seed: int | Sequence[int],
                         burn_in: int = DEFAULT_BURN_IN) -> TimeSeries | np.ndarray:
    """Length-n path switching parameters after observation ``cs.change_index``.

    The recursion state crosses the break unchanged, so a no-change spec
    (before == after) reproduces :func:`simulate` bit for bit under the
    same seed.  ``seed`` is an int or a sequence of ints, with the return
    types of :func:`simulate`.
    """
    _check_change_index(cs.change_index, n)
    return _simulate_pair(cs.spec_before, cs.spec_after, cs.change_index,
                          n, seed, burn_in)
