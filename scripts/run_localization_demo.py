#!/usr/bin/env python3
"""Single-run change-localization demo on the 2-dependent product model.

Simulates 1000 observations whose innovation scale jumps from 1 to 1.26
after observation 500, runs the test, and writes the CUSUM path to a CSV
for plotting (columns k, path_value, critical_value).

Usage:
    python scripts/run_localization_demo.py [--seed 12344] [--out path.csv]
"""

import argparse

from cssm.cli import emit_path
from cssm.cusum import cssm_test
from cssm.models import ChangeSpec, ModelSpec, simulate_with_change


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=12344)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--break-at", type=int, default=500)
    parser.add_argument("--sigma-after", type=float, default=1.26)
    parser.add_argument("--out", default="localization_path.csv")
    args = parser.parse_args()

    change = ChangeSpec(
        args.break_at,
        ModelSpec.product2dep(0.0, 1.0),
        ModelSpec.product2dep(0.0, args.sigma_after),
    )
    series = simulate_with_change(change, args.n, args.seed)
    res = cssm_test(series, 1)

    print(f"true break after observation {args.break_at}")
    print(f"statistic {res.statistic:.3f} vs critical value {res.critical_value:.3f} "
          f"-> {'change detected' if res.reject else 'no change detected'}")
    print(f"estimated change location k^ = {res.change_index}")
    emit_path(res.path, res.critical_value, args.out)
    print(f"wrote path to {args.out}")


if __name__ == "__main__":
    main()
