"""The benchmark's three workloads, each a closed loop with one caller.

Every workload builds its inputs from the run's seed in ``prepare``, runs
one op per ``op`` call, and judges every op's output afterwards in
``check`` (outside the timed phase, with tracing off).  A check returns
None for a correct op, or a one-line reason for a failed one.

``reference`` names the kinds of reference tick (see ``hostclock``) that
do the same kind of work as the op, and ``nominal_op_s`` is about the
op's latency, scaled to nominal host speed, on the unchanged package;
it only sets how many rounds fill ``--seconds``.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import cssm.cli
import cssm.critval
import cssm.cusum
import cssm.mc
from cssm.critval import BridgeConfig
from cssm.models import ChangeSpec, ModelSpec, simulate_with_change


def derived_ints(seed: int, stream: int, count: int) -> list[int]:
    """``count`` positive 32-bit integers drawn from (seed, stream)."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count, dtype=np.uint32)
    return [int(v) + 1 for v in state]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``cssm.cli.main`` in-process; return its exit status and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cssm.cli.main(argv)
    return status, out.getvalue()


def judge(verdict, i: int, out, *context) -> str | None:
    """One op's verdict; an exception or unreadable output fails the op."""
    if isinstance(out, BaseException):
        return f"raised {out!r}"
    try:
        return verdict(i, out, *context)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"


def read_cache(path: Path) -> dict[tuple[int, int], tuple[int, int, float]]:
    """Cache records as {(L, seed): (grid, replications, value)}."""
    records = {}
    for line in path.read_text(encoding="ascii").splitlines():
        L, _alpha, grid, reps, seed, value = line.split()
        records[(int(L), int(seed))] = (int(grid), int(reps), float(value))
    return records


class DetectLong:
    """``cssm detect <file> --L 3`` on 8 series files of n = 10^5.

    Nearly all the work is per series: parsing the file, the long-run
    covariance at L = 3 and the CUSUM path.  The critical value is read
    from a cache file that set-up prefills, so no bridge is simulated.
    """

    name = "detect_long"
    n = 100_000
    L = 3
    bridge_reps = 1000  # smallest BridgeConfig allows; only the prefill simulates
    # (family, before, after): the strongest T1 ARMA cell, an MA(2) sign
    # change, the T2a product-model scale drop and the T3 GARCH row with
    # alpha = 0.1.  The T3 row with alpha = 0.4 has no finite eighth
    # moment, which the L = 3 estimator needs, and its break can land
    # more than 5 % of n away.
    families = (
        ("arma11", ModelSpec.arma11(phi=0.2, theta=0.1), ModelSpec.arma11(phi=0.6, theta=0.7)),
        ("ma2", ModelSpec.ma2(0.3, 0.3), ModelSpec.ma2(-0.3, 0.5)),
        ("product2dep", ModelSpec.product2dep(0.0, 1.0), ModelSpec.product2dep(0.0, 0.6)),
        ("garch11", ModelSpec.garch11(0.5, 0.1, 0.2), ModelSpec.garch11(0.8, 0.1, 0.5)),
    )
    round_size = 2 * len(families)
    setup_reps = 3
    reference = ("loop", "big")  # line-by-line parsing, then the estimator on long arrays
    nominal_op_s = 0.5
    expected_spans = ("cli.main", "cli.read_series", "longrun.estimate_longrun_cov",
                      "cusum.cusum_path", "cusum.inv_sqrt", "autocov.as_timeseries",
                      "critval.critical_value")

    def __init__(self, seed: int):
        ints = derived_ints(seed, 1, self.round_size + 1)
        self.series_seeds = ints[:-1]
        self.bridge_seed = ints[-1] << 8
        self.k_star = self.n // 2
        self.files: list[tuple[Path, bool]] = []

    def sizes(self) -> dict:
        return {"series_files": self.round_size, "n": self.n, "L": self.L,
                "change_index": self.k_star, "prefill_bridge_reps": self.bridge_reps,
                "prefill_grid": self.cfg.grid_points}

    def prepare(self, workdir: Path, rep: int) -> None:
        workdir.mkdir(parents=True)
        files = []
        seeds = iter(self.series_seeds)
        for family, before, after in self.families:
            for changed in (False, True):
                change = ChangeSpec(self.k_star, before, after if changed else before)
                series = simulate_with_change(change, self.n, next(seeds))
                path = workdir / f"{family}_{'change' if changed else 'null'}.txt"
                with open(path, "w", encoding="ascii") as fh:
                    cssm.cli.write_series(series.values, fh)
                files.append((path, changed))
        self.files = files
        self.cache = workdir / "critval_cache.txt"
        # A seed per set-up run, so each prefill simulates instead of
        # reusing the in-process memo of the previous one.
        self.cfg = BridgeConfig(replications=self.bridge_reps, seed=self.bridge_seed + rep)
        cssm.critval.critical_value(self.L, 0.05, self.cfg, cache_path=self.cache)
        self.op(0)

    def op(self, i: int):
        path, _ = self.files[i % len(self.files)]
        return run_cli(["detect", str(path), "--L", str(self.L),
                        "--grid", str(self.cfg.grid_points),
                        "--reps", str(self.cfg.replications), "--seed", str(self.cfg.seed),
                        "--cache", str(self.cache)])

    def units(self, output) -> int:
        return 1

    def check(self, ops: list[tuple[int, object]]) -> list[str | None]:
        (_, _, c), = read_cache(self.cache).values()
        expected = []
        for path, _ in self.files:
            series = np.loadtxt(path, comments="#")
            expected.append(cssm.cusum.cssm_test(series, self.L, critical_value=c))
        return [judge(self._verdict, i, out, expected, c) for i, out in ops]

    def _verdict(self, i, out, expected, c) -> str | None:
        status, text = out
        if status not in (0, 1):
            return f"exit status {status}"
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        path, changed = self.files[i % len(self.files)]
        want = expected[i % len(self.files)]
        index = int(fields["change_index"])
        if fields["statistic"] != f"{want.statistic:.6g}" or index != want.change_index:
            return (f"{path.name}: printed statistic {fields['statistic']} at {index}, "
                    f"cssm_test gives {want.statistic:.6g} at {want.change_index}")
        if fields["critical_value"] != f"{c:.6g}" or (status == 1) != want.reject:
            return f"{path.name}: decision differs from cssm_test"
        if changed and abs(index - self.k_star) > 0.05 * self.n:
            return f"{path.name}: change index {index} far from {self.k_star}"
        return None


class PowerStudy:
    """Every scenario of tables T1 and T3 through ``mc.run_scenario``.

    Thousands of short series (n = 500 to 1000) at L = 1 against the
    built-in critical value: the simulators and the per-call overhead of
    the test on small arrays dominate.  No file I/O, no bridge simulation.
    """

    name = "power_study"
    # With 500 replications the no-change cells (true size 0.04 to 0.05,
    # measured at 4000 replications) land in the checked band [0.01, 0.10]
    # on all but about one seed in 10^4, and a round of all 28 scenarios
    # takes about 12 s, so a 30 s run holds two whole rounds.
    reps = 500
    setup_reps = 5
    reference = ("loop",)  # interpreted simulators, per-call overhead on short arrays
    nominal_op_s = 0.45
    expected_spans = ("mc.run_scenario", "models.simulate_with_change", "cusum.cssm_test",
                      "longrun.estimate_longrun_cov", "cusum.cusum_path", "cusum.inv_sqrt",
                      "autocov.as_timeseries", "critval.critical_value")

    def __init__(self, seed: int):
        (self.seed,) = derived_ints(seed, 2, 1)
        self.scenarios = []

    @property
    def round_size(self) -> int:
        return len(self.scenarios)

    def sizes(self) -> dict:
        return {"scenarios": len(self.scenarios), "tables": ["T1", "T3"],
                "reps_per_scenario": self.reps,
                "n": sorted({s.n for s in self.scenarios}), "L": 1}

    def prepare(self, workdir: Path, rep: int) -> None:
        t1 = cssm.mc.table_scenarios("T1", self.reps, self.seed)
        # T3's scenario streams start past the last T1 stream.
        t3 = cssm.mc.table_scenarios("T3", self.reps, t1[-1].seed)
        self.scenarios = t1 + t3
        self.op(0)

    def op(self, i: int):
        return cssm.mc.run_scenario(self.scenarios[i % len(self.scenarios)])

    def units(self, output) -> int:
        return output.replications

    def _null_cells(self) -> set[int]:
        return {j for j, s in enumerate(self.scenarios)
                if s.change.spec_before == s.change.spec_after}

    def _strongest_t1(self) -> int:
        t1 = [j for j, s in enumerate(self.scenarios) if s.label.startswith("T1")]
        return max(t1, key=lambda j: sum(self.scenarios[j].change.spec_after.params))

    def check(self, ops: list[tuple[int, object]]) -> list[str | None]:
        nulls, strongest = self._null_cells(), self._strongest_t1()
        # Rejection counts must repeat exactly: across rounds, and against
        # one more untimed run of every checked cell.
        seen: dict[int, set[int]] = {}
        for j in sorted(nulls | {strongest}):
            seen[j] = {cssm.mc.run_scenario(self.scenarios[j]).rejections}
        for i, out in ops:
            if not isinstance(out, BaseException):
                seen.setdefault(i % len(self.scenarios), set()).add(out.rejections)
        return [judge(self._verdict, i, out, seen, nulls, strongest) for i, out in ops]

    def _verdict(self, i, out, seen, nulls, strongest) -> str | None:
        j = i % len(self.scenarios)
        label = self.scenarios[j].label
        if out.failures != 0 or out.replications != self.reps:
            return f"{label}: {out.failures} failed replications"
        if len(seen[j]) > 1:
            return f"{label}: rejection counts differ across runs {sorted(seen[j])}"
        if j in nulls and not 0.01 <= out.power <= 0.10:
            return f"{label}: size {out.power:.3f} outside [0.01, 0.10]"
        if j == strongest and out.power < 0.95:
            return f"{label}: power {out.power:.3f} < 0.95"
        return None


class CritvalSim:
    """``cssm critval --L 2 --alpha 0.01`` with a fresh seed per op.

    (L, alpha) is not in the built-in table and every seed is new, so each
    op simulates the bridge supremum and appends one cache record; all the
    time is in ``simulate_bridge_sup``, which no other workload calls.
    """

    name = "critval_sim"
    L = 2
    alpha = 0.01
    reps = 2000
    round_size = 1
    setup_reps = 5
    reference = ("big",)  # normals drawn, cumulated and reduced in large batches
    nominal_op_s = 0.55
    expected_spans = ("cli.main", "critval.critical_value", "critval.simulate_bridge_sup")

    def __init__(self, seed: int):
        (base,) = derived_ints(seed, 3, 1)
        # Op i uses seed op_base + i; set-up run r uses op_base - 1 - r.
        self.op_base = (base << 20) + (1 << 19)

    def sizes(self) -> dict:
        return {"L": self.L, "alpha": self.alpha, "grid": 2000, "reps": self.reps}

    def prepare(self, workdir: Path, rep: int) -> None:
        workdir.mkdir(parents=True)
        self.cache = workdir / "critval_cache.txt"
        self._run(self.op_base - 1 - rep)

    def _run(self, seed: int):
        return run_cli(["critval", "--L", str(self.L), "--alpha", str(self.alpha),
                        "--reps", str(self.reps), "--seed", str(seed),
                        "--cache", str(self.cache)])

    def op(self, i: int):
        return self._run(self.op_base + i)

    def units(self, output) -> int:
        return 1

    def check(self, ops: list[tuple[int, object]]) -> list[str | None]:
        records = read_cache(self.cache)
        return [judge(self._verdict, i, out, records) for i, out in ops]

    def _verdict(self, i, out, records) -> str | None:
        status, text = out
        seed = self.op_base + i
        if status != 0:
            return f"seed {seed}: exit status {status}"
        value = float(text)
        if not math.isfinite(value):
            return f"seed {seed}: value {value}"
        grid, reps, cached = records.get((self.L, seed), (0, 0, math.nan))
        if cached != value:
            return f"seed {seed}: printed {value!r}, cache holds {cached!r}"
        lower = cssm.critval.critical_value(
            1, self.alpha, BridgeConfig(grid_points=grid, replications=reps, seed=seed))
        if not value > lower:
            return f"seed {seed}: c(L=2)={value} not above c(L=1)={lower}"
        return None


WORKLOADS = {w.name: w for w in (DetectLong, PowerStudy, CritvalSim)}
