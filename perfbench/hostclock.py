"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark shares a few cores of a busy host, whose speed drifts by
tens of percent over seconds to minutes.  Ops of a workload and ticks of
a reference kernel are interleaved, so both see the same host; dividing
an op's time by the slowness of the ticks around it gives the time the op
would have taken on a host of nominal speed.

Kinds of work drift differently (interpreted loops drift most, long
vectorised passes least), so a tick runs the kinds of work its workload
does:

- ``loop``: an interpreted recursion over lists of floats, as in the
  series simulators;
- ``big``: draw normals, cumulate and reduce a 128 x 2000 array.

The inputs are fixed, so every tick of a kind does the same work, and no
kernel calls the package under test, so a change to the package cannot
change a tick.
"""

from __future__ import annotations

import math
import time

import numpy as np

_COEF = np.random.default_rng(3).uniform(-0.5, 0.5, 20_000).tolist()
_SHOCK = np.random.default_rng(4).standard_normal(20_000).tolist()
_BIG_SEED = 12345


def _loop() -> np.ndarray:
    out = [0.0] * len(_COEF)
    prev, var = 0.0, 1.0
    for t in range(len(_COEF)):
        var = 0.1 + 0.1 * prev * prev + 0.5 * var
        prev = _COEF[t] * prev + math.sqrt(var) * _SHOCK[t]
        out[t] = prev
    return np.asarray(out)


def _big() -> float:
    steps = np.random.default_rng(_BIG_SEED).standard_normal((128, 2000))
    paths = np.cumsum(steps, axis=1)
    return float(np.einsum("rm,rm->r", paths, paths).max())


KERNELS = {"loop": _loop, "big": _big}

# Each kernel's duration (s) on a host of nominal speed: about its median
# on a 2-vCPU Intel Xeon cloud VM (Python 3.11, numpy 2).  Only a scale:
# every time is divided by (tick time) / (sum of these for its kinds).
NOMINAL_S = {"loop": 0.0060, "big": 0.0085}


def tick(kinds: tuple[str, ...]) -> float:
    """Run the reference kernels of ``kinds`` once; return the host's slowness.

    Slowness is the tick's wall time over its nominal time: 1 on a host
    of nominal speed, 1.2 on a host 20 % slower.
    """
    t0 = time.perf_counter()
    for kind in kinds:
        KERNELS[kind]()
    return (time.perf_counter() - t0) / sum(NOMINAL_S[kind] for kind in kinds)


def nominal(times: list[float], ticks: list[float], reach: int = 1) -> list[float]:
    """Each time scaled to a host of nominal speed.

    ``ticks`` are slowness values from ``tick``; ``times[k]`` ran between
    ``ticks[k]`` and ``ticks[k + 1]``.  It is divided by the mean slowness
    of those two ticks and of ``reach`` more on either side, which
    averages out the noise of single ticks.
    """
    if len(ticks) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} ticks, got {len(ticks)}")
    return [t / slowness(ticks[max(0, k - reach):k + 2 + reach]) for k, t in enumerate(times)]


def slowness(ticks: list[float]) -> float:
    """The mean slowness of some ticks."""
    return sum(ticks) / len(ticks)
