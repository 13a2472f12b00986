#!/usr/bin/env python3
"""Benchmark of the cssm package: one workload per process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload detect_long --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy.  Every input is generated from ``--seed``.  After
set-up (import, input generation, cache prefill and one warm-up op,
repeated ``setup_reps`` times) the workload runs the whole rounds of ops
that fill about ``--seconds`` seconds at its nominal op time; every op's
output is then checked.  Times are reported scaled to a host of nominal
speed by the reference ticks of ``hostclock`` run between ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half with every layer's public functions wrapped
in span recorders, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it holds the seed,
the environment, input sizes and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostclock
from spans import Layer, LayerTotals, Tracer, ancestors_of, instrumented, totals_by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_TICKS = 5  # reference ticks before the first set-up and after each one
MODULES = ("cli", "models", "autocov", "longrun", "cusum", "critval", "mc")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.read_series.busy_s": "s",
    "cli.read_series.calls": "count",
    "longrun.estimate_longrun_cov.busy_s": "s",
    "longrun.estimate_longrun_cov.calls": "count",
    "longrun.estimate_longrun_cov.ns_per_point": "ns",
    "longrun.floor_fired": "count",
    "cusum.cusum_path.busy_s": "s",
    "cusum.inv_sqrt.busy_s": "s",
    "cusum.cssm_test.self_s": "s",
    "autocov.as_timeseries.busy_s": "s",
    "autocov.as_timeseries.calls": "count",
    "models.simulate_with_change.busy_s": "s",
    "models.simulate_with_change.calls": "count",
    "models.simulate_with_change.us_per_step": "us",
    "mc.run_scenario.self_s": "s",
    "mc.failures": "count",
    "critval.simulate_bridge_sup.busy_s": "s",
    "critval.simulate_bridge_sup.ns_per_point": "ns",
    "critval.critical_value.self_s": "s",
    "critval.cache_hit_ratio": "ratio",
    **{f"{m}.src_lines": "lines" for m in MODULES},
    "trace.overhead_ms": "ms",
    "trace.self_cover_ratio": "ratio",
}


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count): the value of rank n - 10 in
    ascending order, at percentile 100 * (n - 10) / n.  None when there
    are fewer than 11 samples.
    """
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


@dataclass
class Phase:
    """Ops of one timed phase: op ids, latencies (s), outputs and host ticks.

    ``ticks[k]`` is the reference tick run just before op k; the last
    tick follows the last op.
    """

    first_op: int
    latencies: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    ticks: list[float] = field(default_factory=list)
    elapsed: float = 0.0

    def ops(self) -> list[tuple[int, object]]:
        return list(enumerate(self.outputs, start=self.first_op))

    def nominal(self) -> list[float]:
        """Op latencies (s) scaled to a host of nominal speed."""
        return hostclock.nominal(self.latencies, self.ticks)


def rounds_for(wl, seconds: float) -> int:
    """Whole rounds that fill about ``seconds`` at the workload's nominal op time.

    At least one round, and enough for 11 ops, the fewest that
    ``op_tail_ms`` needs.
    """
    fill = round(seconds / (wl.round_size * wl.nominal_op_s))
    return max(1, fill, math.ceil(11 / wl.round_size))


def run_phase(wl, seconds: float, first_op: int, tracer=None) -> Phase:
    """Run ``rounds_for(wl, seconds)`` whole rounds of ops.

    A round visits each input once, so every run measures the same mix,
    and the number of rounds depends on ``seconds`` alone, so the number
    of ops, and with it the percentile of ``op_tail_ms``, does not follow
    the host's drift.  Only a run that passes twice ``seconds`` of wall
    time, as on a host or a package far slower than nominal, stops after
    the round it is in.  A reference tick runs before every op and after
    the last, outside the op's timing and outside any span.
    """
    phase = Phase(first_op)
    start = time.perf_counter()
    phase.ticks.append(hostclock.tick(wl.reference))
    for _ in range(rounds_for(wl, seconds)):
        for _ in range(wl.round_size):
            i = first_op + len(phase.outputs)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # an op that raises is a failed op
                traceback.print_exc(file=sys.stderr)
                out = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            phase.latencies.append(t1 - t0)
            phase.outputs.append(out)
            phase.ticks.append(hostclock.tick(wl.reference))
        phase.elapsed = time.perf_counter() - start
        if phase.elapsed > 2 * seconds:
            break
    return phase


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS library and its thread count, as numpy reports them."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment(wl) -> dict:
    """Versions, CPU and BLAS settings, and the workload's input sizes."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "cssm").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": usable_cpus(),
        "blas": blas_info(),
        "workers": 1,
        "sizes": wl.sizes(),
    }


def layer_metrics(totals: dict[str, LayerTotals], tracer: Tracer,
                  traced: Phase, untraced: Phase) -> dict:
    import numpy as np

    def get(name):
        return totals.get(name, LayerTotals())

    def per(name, scale):
        t = get(name)
        return t.busy_s * scale / t.work if t.work else 0.0

    crit = [i for i, s in enumerate(tracer.spans) if s.name == "critval.critical_value"]
    simulated = ancestors_of(tracer.spans, "critval.simulate_bridge_sup")
    floor_fired = sum(
        1 for cov in tracer.results["longrun.estimate_longrun_cov"]
        if math.isclose(float(np.linalg.eigvalsh(cov.entries)[0]), cov.eps_floor, rel_tol=1e-6)
    )
    out = {
        "cli.main.self_s": get("cli.main").self_s,
        "cli.read_series.busy_s": get("cli.read_series").busy_s,
        "cli.read_series.calls": get("cli.read_series").calls,
        "longrun.estimate_longrun_cov.busy_s": get("longrun.estimate_longrun_cov").busy_s,
        "longrun.estimate_longrun_cov.calls": get("longrun.estimate_longrun_cov").calls,
        "longrun.estimate_longrun_cov.ns_per_point": per("longrun.estimate_longrun_cov", 1e9),
        "longrun.floor_fired": floor_fired,
        "cusum.cusum_path.busy_s": get("cusum.cusum_path").busy_s,
        "cusum.inv_sqrt.busy_s": get("cusum.inv_sqrt").busy_s,
        "cusum.cssm_test.self_s": get("cusum.cssm_test").self_s,
        "autocov.as_timeseries.busy_s": get("autocov.as_timeseries").busy_s,
        "autocov.as_timeseries.calls": get("autocov.as_timeseries").calls,
        "models.simulate_with_change.busy_s": get("models.simulate_with_change").busy_s,
        "models.simulate_with_change.calls": get("models.simulate_with_change").calls,
        "models.simulate_with_change.us_per_step": per("models.simulate_with_change", 1e6),
        "mc.run_scenario.self_s": get("mc.run_scenario").self_s,
        "mc.failures": sum(r.failures for r in tracer.results["mc.run_scenario"]),
        "critval.simulate_bridge_sup.busy_s": get("critval.simulate_bridge_sup").busy_s,
        "critval.simulate_bridge_sup.ns_per_point": per("critval.simulate_bridge_sup", 1e9),
        "critval.critical_value.self_s": get("critval.critical_value").self_s,
        "critval.cache_hit_ratio":
            sum(1 for i in crit if i not in simulated) / len(crit) if crit else 0.0,
    }
    for m in MODULES:
        with open(SRC / "cssm" / f"{m}.py", encoding="utf-8") as fh:
            out[f"{m}.src_lines"] = sum(1 for _ in fh)
    out["trace.overhead_ms"] = 1e3 * (statistics.median(traced.nominal())
                                      - statistics.median(untraced.nominal()))
    out["trace.self_cover_ratio"] = (sum(t.self_s for t in totals.values())
                                     / sum(traced.latencies))
    return out


def layers() -> dict[str, Layer]:
    """The traced public functions, by span name (module.function)."""
    import cssm.models

    def series_len(x, *args, **kwargs):
        return len(x)

    def sim_steps(cs, n, seed, burn_in=None):
        return n + (cssm.models.DEFAULT_BURN_IN if burn_in is None else burn_in)

    def bridge_points(L, cfg, workers=1):
        return cfg.replications * (L + 1) * cfg.grid_points

    return {
        "cli.main": Layer("cssm.cli", "main"),
        "cli.read_series": Layer("cssm.cli", "read_series"),
        "models.simulate_with_change": Layer("cssm.models", "simulate_with_change", sim_steps),
        "autocov.as_timeseries": Layer("cssm.autocov", "as_timeseries"),
        "longrun.estimate_longrun_cov":
            Layer("cssm.longrun", "estimate_longrun_cov", series_len, keep=True),
        "cusum.cssm_test": Layer("cssm.cusum", "cssm_test"),
        "cusum.cusum_path": Layer("cssm.cusum", "cusum_path"),
        "cusum.inv_sqrt": Layer("cssm.cusum", "inv_sqrt"),
        "critval.critical_value": Layer("cssm.critval", "critical_value"),
        "critval.simulate_bridge_sup":
            Layer("cssm.critval", "simulate_bridge_sup", bridge_points),
        "mc.run_scenario": Layer("cssm.mc", "run_scenario", keep=True),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["detect_long", "power_study", "critval_sim"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> float:
    """Import cssm from ``src/`` with at most nproc BLAS threads; return the import time."""
    sys.dont_write_bytecode = True  # every run compiles alike; the checkout stays clean
    threads = str(usable_cpus())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cssm = importlib.import_module("cssm")
    import_s = time.perf_counter() - t0
    if Path(cssm.__file__).resolve().parent != SRC / "cssm":
        raise ImportError(f"imported cssm from {cssm.__file__}, not from {SRC}")
    return import_s


def setup_tick(wl) -> float:
    """The mean slowness of ``SETUP_TICKS`` reference ticks, run between two set-ups."""
    return statistics.fmean(hostclock.tick(wl.reference) for _ in range(SETUP_TICKS))


def measure(wl, args, workdir: Path):
    """Set up ``setup_reps`` times, run the timed phase(s), check every op."""
    setup_runs = []
    setup_ticks = [setup_tick(wl)]
    for rep in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.prepare(workdir / f"setup{rep}", rep)
        setup_runs.append(time.perf_counter() - t0)
        setup_ticks.append(setup_tick(wl))
    tracer = None
    if args.trace:
        untraced = run_phase(wl, args.seconds / 2, 0)
        tracer = Tracer()
        with instrumented(tracer, layers(), "cssm"):
            timed = run_phase(wl, args.seconds / 2, len(untraced.outputs), tracer)
        recorded = {span.name for span in tracer.spans}
        missing = [name for name in wl.expected_spans if name not in recorded]
        if missing:
            raise RuntimeError(f"{wl.name}: expected spans never recorded: {missing}")
        phases = [untraced, timed]
    else:
        phases = [run_phase(wl, args.seconds, 0)]
    ops = [op for phase in phases for op in phase.ops()]
    return setup_runs, setup_ticks, phases, tracer, ops, wl.check(ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cssm" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cssm'}", file=sys.stderr)
        return 2
    import_s = import_package()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORKDIR))
    try:
        setup_runs, setup_ticks, phases, tracer, ops, verdicts = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    failures = [f"op {i}: {v}" for (i, _), v in zip(ops, verdicts) if v is not None]
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    attempted, failed = len(ops), len(failures)
    timed = phases[-1]
    timed_verdicts = verdicts[len(ops) - len(timed.outputs):]
    latencies = timed.nominal()
    # Set-up r ran between setup_ticks[r] and setup_ticks[r + 1]; the
    # import ran just before setup_ticks[0].
    setups = hostclock.nominal(setup_runs, setup_ticks, reach=0)
    setup_s = import_s / hostclock.slowness(setup_ticks[:1]) + statistics.median(setups)
    op_tail = tail(latencies)
    raw_tail = tail(timed.latencies)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(wl),
        "reference": {kind: 1e3 * hostclock.NOMINAL_S[kind] for kind in wl.reference},
        "host_slowness": {"setup": hostclock.slowness(setup_ticks),
                          "timed": hostclock.slowness(timed.ticks),
                          "ticks": len(setup_ticks) * SETUP_TICKS + len(timed.ticks)},
        "wall": {"setup_s": import_s + statistics.median(setup_runs),
                 "import_s": import_s,
                 "setup_runs_s": setup_runs,
                 "op_p50_ms": 1e3 * statistics.median(timed.latencies),
                 "op_tail_ms": None if raw_tail is None else 1e3 * raw_tail[0],
                 "timed_elapsed_s": timed.elapsed},
        "timed_ops": len(timed.outputs),
        "op_tail": None if op_tail is None else
            {"value_ms": 1e3 * op_tail[0], "percentile": op_tail[1], "samples": op_tail[2]},
        "error_ratio": failed / attempted,
        "failed_checks": failures[:10],
    }
    if args.trace:
        totals = totals_by_name(tracer.spans)
        metrics = layer_metrics(totals, tracer, timed, phases[0])
        units = PER_LAYER
        wall = sum(timed.latencies)
        detail["share_of_op_time"] = {
            name: {"busy": t.busy_s / wall, "self": t.self_s / wall, "calls": t.calls}
            for name, t in sorted(totals.items())}
    else:
        done = sum(wl.units(out) for (_, out), v in zip(timed.ops(), timed_verdicts)
                   if v is None)
        detail["wall"]["throughput_per_s"] = done / sum(timed.latencies)
        metrics = {
            "setup_s": setup_s,
            "throughput_per_s": done / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if op_tail is not None:
            metrics["op_tail_ms"] = 1e3 * op_tail[0]
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # Only op_tail_ms may be absent (fewer than 11 ops); any other gap raises.
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()
                    if k in metrics or k != "op_tail_ms"},
    }
    for k, v in result["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
