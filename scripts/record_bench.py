#!/usr/bin/env python3
"""Record perfbench, study and Tier-1 timings of one or two source trees in BENCH_<tag>.json.

Usage:
    python scripts/record_bench.py --tag pr7 [--base HEAD] [--seeds 711 712 ...]
    python scripts/record_bench.py --tag try --base HEAD --quick

Measures the working tree this script lives in ("change") and, with
``--base REV``, a ``git archive`` of that revision extracted to a
temporary directory ("base").  Every tree runs ``perfbench/run.py
--seconds S`` once per workload and seed, from its own checkout, with S
and the workloads taken from ``BENCHMARK.json``; with two trees the order
alternates from seed to seed, so drift of the host falls on both alike.
The trees then take turns to run the study command ``PYTHONPATH=src
python -m cssm power --table T1 --reps 1000`` twice each, and the Tier-1
command ``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors`` twice each.  The host's speed drifts
by tens of percent between runs, so each study and Tier-1 run is
bracketed by ticks of that tree's ``perfbench/hostclock.py`` (the median
of TICKS ticks, in a subprocess, since hostclock needs numpy), and its
``nominal_s = wall_s / slowness``, with the mean slowness of the two
ticks, is stored beside the raw ``wall_s``.  The file at the repository
root holds, per tree: the git sha (``-dirty`` for uncommitted changes)
and perfbench's digest of ``src/cssm``, Python and numpy versions, nproc,
the line count of ``src/``, every run's metrics, their median, quartiles,
min and max, the raw and host-scaled wall times of the study (with its
total rejections, so equal outputs show) and of Tier-1, and, for the
change, on how many seeds each end-to-end metric was better or worse than
the base (direction from ``BENCHMARK.json``) and whether the median moved
by more than the base's interquartile range.  Uses the standard library only.

``--quick`` is a smoke check of a change in progress, about a minute
for two trees: one seed (the first of ``--seeds``), perfbench runs of
QUICK_SECONDS each, and no study or Tier-1 runs.  One short run per tree
shows neither spread nor a tail, so its report says ``"quick": true``
and goes to ``BENCH_<tag>.quick.json``, which git ignores; it is never
evidence for a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_RUNS = 2
POWER = [sys.executable, "-m", "cssm", "power", "--table", "T1", "--reps", "1000"]
POWER_RUNS = 2
QUICK_SECONDS = 5
TICK_KINDS = ("loop", "big")  # hostclock kernels: interpreted loops and numpy passes
TICKS = 9
TICK_SCRIPT = ("import statistics, hostclock; print(statistics.median("
               f"hostclock.tick({TICK_KINDS!r}) for _ in range({TICKS})))")
ENV = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Extract ``git archive rev`` into dest; return the commit sha."""
    sha = git("rev-parse", f"{rev}^{{commit}}")
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return sha


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, the environment and the wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["perfbench"]["env"]
    return {"seed": seed, "wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "env": env}


def host_slowness(tree: Path) -> float:
    """The host's slowness now (1 at nominal speed), by the ticks of tree's perfbench/."""
    proc = subprocess.run([sys.executable, "-c", TICK_SCRIPT], cwd=tree / "perfbench",
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def timed(cmd: list[str], tree: Path) -> tuple[dict, subprocess.CompletedProcess]:
    """Run cmd in tree against its own ``src/`` between two host ticks.

    Returns the raw wall time, the slowness before and after, the wall time
    scaled to a host of nominal speed, and the process.
    """
    before = host_slowness(tree)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=ENV)
    wall = time.perf_counter() - t0
    after = host_slowness(tree)
    return {"wall_s": wall, "slowness": [before, after],
            "nominal_s": wall / ((before + after) / 2)}, proc


def tier1(tree: Path) -> dict:
    times, proc = timed(TIER1, tree)
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    return {**times, "exit_status": proc.returncode, "summary": summary}


def power(tree: Path, out: Path) -> dict:
    """One study run, writing its CSV to out; its printed rejections are summed."""
    times, proc = timed([*POWER, "--out", str(out)], tree)
    # each scenario prints "<label>: power=<p> (<rejections>/<replications>)"
    tallies = [line.rsplit("(", 1)[1].rstrip(")").split("/")
               for line in proc.stdout.splitlines() if ": power=" in line]
    return {**times, "exit_status": proc.returncode, "scenarios": len(tallies),
            "rejections": sum(int(r) for r, _ in tallies),
            "replications": sum(int(n) for _, n in tallies)}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    """Median, min and max of each metric over the runs that report it."""
    names = dict.fromkeys(name for r in runs for name in r["metrics"])
    return {name: spread([r["metrics"][name] for r in runs if name in r["metrics"]])
            for name in names}


def compare(base: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: seeds on which the change was better, worse or equal,
    and whether the medians differ by more than the base's interquartile range.

    Only seeds where both runs report the metric count (a short run has no tail).
    """
    out = {}
    for name, direction in better.items():
        pairs = [(b["metrics"][name], c["metrics"][name]) for b, c in zip(base, change)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        tally = {"better": 0, "worse": 0, "equal": 0}
        for b, c in pairs:
            sign = c - b if direction == "higher" else b - c
            tally["better" if sign > 0 else "worse" if sign < 0 else "equal"] += 1
        base_spread = spread([b for b, _ in pairs])
        med_b, med_c = base_spread["median"], statistics.median(c for _, c in pairs)
        tally["median_ratio"] = med_c / med_b if med_b else None
        tally["beyond_base_iqr"] = (abs(med_c - med_b) > base_spread["q3"] - base_spread["q1"]
                                    if len(pairs) > 1 else None)
        out[name] = tally
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True, help="output file is BENCH_<tag>.json")
    p.add_argument("--base", help="also measure a git archive of this revision")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(711, 721)))
    p.add_argument("--quick", action="store_true",
                   help=f"one seed, {QUICK_SECONDS} s runs, no study or Tier-1; "
                        "writes BENCH_<tag>.quick.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    seconds = QUICK_SECONDS if args.quick else SPEC["run_seconds"]
    seeds = args.seeds[:1] if args.quick else args.seeds
    workloads = [w["name"] for w in SPEC["workloads"]]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        trees = {"change": {"dir": ROOT, "git_sha": git("rev-parse", "HEAD")
                            + ("-dirty" if dirty else "")}}
        if args.base:
            base_dir = Path(tmp) / "base"
            trees = {"base": {"dir": base_dir, "git_sha": extract(args.base, base_dir)},
                     **trees}
        names = list(trees)
        runs = {name: {wl: [] for wl in workloads} for name in names}
        for wl in workloads:
            for i, seed in enumerate(seeds):
                for name in (names if i % 2 == 0 else names[::-1]):
                    run = perfbench(trees[name]["dir"], wl, seed, seconds)
                    runs[name][wl].append(run)
                    print(f"{wl} seed {seed} {name}: op_p50_ms "
                          f"{run['metrics']['op_p50_ms']:.1f}", file=sys.stderr)
        for _ in range(0 if args.quick else POWER_RUNS):
            for name in names:
                out = Path(tmp) / f"power-{name}.csv"
                trees[name].setdefault("power_t1", []).append(power(trees[name]["dir"], out))
                print(f"power {name}: {trees[name]['power_t1'][-1]}", file=sys.stderr)
        for _ in range(0 if args.quick else TIER1_RUNS):
            for name in names:
                trees[name].setdefault("tier1", []).append(tier1(trees[name]["dir"]))
                print(f"tier-1 {name}: {trees[name]['tier1'][-1]}", file=sys.stderr)

        report = {"tag": args.tag, "quick": args.quick, "seconds": seconds, "seeds": seeds,
                  "order": "seed i runs " + " then ".join(names)
                           + " for even i, the reverse for odd i",
                  "trees": {}}
        for name in names:
            tree = trees[name]
            env = runs[name][workloads[0]][0]["env"]
            entry = {
                "git_sha": tree["git_sha"], "src_sha256": env["src_sha256"],
                "python": env["python"], "numpy": env["numpy"],
                "nproc": env["nproc"], "src_lines": src_lines(tree["dir"]),
                "workloads": {},
            }
            for wl, wl_runs in runs[name].items():
                for r in wl_runs:
                    r.pop("env")
                entry["workloads"][wl] = {"summary": summarize(wl_runs), "runs": wl_runs}
                if name == "change" and "base" in runs:
                    entry["workloads"][wl]["vs_base"] = compare(runs["base"][wl], wl_runs,
                                                                better)
            for key, cmd in (("power_t1", [*POWER, "--out", "FILE"]), ("tier1", TIER1)):
                if key in tree:
                    entry[key] = {"command": "PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1 python "
                                             + " ".join(cmd[1:]),
                                  "wall_s": spread([t["wall_s"] for t in tree[key]]),
                                  "nominal_s": spread([t["nominal_s"] for t in tree[key]]),
                                  "runs": tree[key]}
            report["trees"][name] = entry
    out = ROOT / f"BENCH_{args.tag}{'.quick' if args.quick else ''}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
