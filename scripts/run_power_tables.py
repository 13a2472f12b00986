#!/usr/bin/env python3
"""Run the full power study and write one CSV per table.

Usage:
    python scripts/run_power_tables.py [--reps 1000] [--seed 12345]
        [--tables T1 T2a T2b T3] [--out-dir results]

At 1000 replications the four tables together take a few minutes on a
laptop.  Use --reps 100 for a quick smoke pass.
"""

import argparse
import time
from pathlib import Path

from cssm.mc import DEFAULT_SEED, TABLE_IDS, run_table, write_reports_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--tables", nargs="+", default=list(TABLE_IDS),
                        choices=list(TABLE_IDS))
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for table in args.tables:
        start = time.perf_counter()
        reports = run_table(table, args.reps, args.seed)
        path = out_dir / f"{table}.csv"
        write_reports_csv(reports, path)
        print(f"== {table} ({time.perf_counter() - start:.1f}s) -> {path}")
        for rep in reports:
            loc = ("" if rep.mean_change_index != rep.mean_change_index
                   else f"  mean k^ = {rep.mean_change_index:.0f}")
            print(f"  {rep.scenario.label:42s} power {rep.power:.3f}{loc}")


if __name__ == "__main__":
    main()
