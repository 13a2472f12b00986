"""Command-line front end: simulate, detect, critval, power.

Series files are plain text, one value per line; blank lines and lines
starting with '#' are ignored.  ``detect`` communicates its decision
through the exit status: 0 = no change detected, 1 = change detected,
2 = error.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .critval import (BUILTIN_TABLE, DEFAULT_ALPHA, DEFAULT_SEED, BridgeConfig,
                      critical_value)
from .cusum import cssm_test
from .longrun import DEFAULT_BETA, _check_usable_n
from .mc import (DEFAULT_REPLICATIONS, TABLE_IDS, run_scenario, table_scenarios,
                 write_reports_csv)
from .models import (DEFAULT_BURN_IN, ChangeSpec, Family, ModelSpec, simulate,
                     simulate_with_change)

DEFAULT_CACHE = "cssm_critval_cache.txt"
_PLAIN = b"0123456789+-.eE\n"  # every byte write_series writes
_WRITE_BLOCK = 8192  # rows formatted and written per call; bounds the text held for any n


def read_series(path) -> np.ndarray:
    """Parse a one-value-per-line text file into an array.

    Raises ValueError naming the file, and the offending 1-based line for
    anything that is not a finite number.  The file is read once.  If its
    bytes are only those :func:`write_series` writes, ``0123456789+-.eE`` and
    newlines, one numpy C call parses them.  Any other file, and one that
    call refuses, warns about or reads a non-finite value from, goes through
    one loop over its lines, which words every error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.count(b"\n") < len(raw) and not raw.translate(None, _PLAIN):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy only warns at unmatched data
            try:
                values = np.fromstring(raw, sep="\n")
            except (ValueError, Warning):
                values = None
        if values is not None and np.isfinite(values).all():
            return values
    # Text mode's lines: drop a leading byte-order mark (some editors write one), fold
    # "\r\n" and "\r" into "\n", split on "\n" alone (splitlines also splits at "\x0c").
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    values = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite value: {line!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no data lines found")
    return np.array(values)


def _write_rows(stream, row: str, *columns: np.ndarray) -> None:
    """Write ``row % (c[i] for c in columns)`` for every i, one ``%`` and one write per block."""
    width = len(columns)
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = [c[start:start + _WRITE_BLOCK].tolist() for c in columns]
        args = [None] * (len(block[0]) * width)
        for j, col in enumerate(block):
            args[j::width] = col
        stream.write((row * len(block[0])) % tuple(args))


def write_series(values, stream) -> None:
    """Write a 1-D sequence of reals to a text stream, one ``.17g`` value per line.

    The lines are those of ``format(float(v), ".17g") + "\\n"`` for each value,
    so :func:`read_series` reads finite values back bit for bit.  Only files
    of these bytes qualify for its one numpy C call.
    """
    _write_rows(stream, "%.17g\n", np.asarray(values, dtype=np.float64))


def _parse_params(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--params must be comma-separated numbers, got {text!r}") from None


def cmd_simulate(args: argparse.Namespace) -> int:
    family = Family(args.family)
    spec = ModelSpec(family, _parse_params(args.params))
    if args.change_at is not None:
        if args.params_after is None:
            raise ValueError("--change-at requires --params-after")
        after = ModelSpec(family, _parse_params(args.params_after))
        series = simulate_with_change(
            ChangeSpec(args.change_at, spec, after), args.n, args.seed, args.burn_in
        )
    else:
        if args.params_after is not None:
            raise ValueError("--params-after requires --change-at")
        series = simulate(spec, args.n, args.seed, args.burn_in)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            write_series(series.values, fh)
    else:
        write_series(series.values, sys.stdout)
    return 0


def _critical_value(args: argparse.Namespace) -> float:
    """The threshold for ``--L`` and ``--alpha``: built in, cached or simulated."""
    # the bridge flags are checked only when the table cannot answer
    cfg = (None if (args.L, args.alpha) in BUILTIN_TABLE
           else BridgeConfig(grid_points=args.grid, replications=args.reps, seed=args.seed))
    return critical_value(args.L, args.alpha, cfg, cache_path=args.cache)


def emit_path(path_obj, crit: float, out_path) -> None:
    """Write the CUSUM path as CSV rows (k, path value, critical value)."""
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write("k,path_value,critical_value\n")
        ks = np.arange(path_obj.k_min, path_obj.k_min + path_obj.values.size)
        _write_rows(fh, "%%d,%%.17g,%.17g\n" % crit, ks, path_obj.values)  # crit formatted once


def cmd_detect(args: argparse.Namespace) -> int:
    values = read_series(args.input)
    if args.center:
        values = values - values.mean()
    # too little data must fail before a bridge simulation or a cache write
    h_n = _check_usable_n(values.size, args.L, args.beta)[3]
    res = cssm_test(values, args.L, args.beta, args.alpha,
                    critical_value=_critical_value(args))

    lines = [
        f"n: {res.n}",
        f"L: {res.L}",
        f"alpha: {args.alpha:g}",
        f"h_n: {h_n}",
        f"statistic: {res.statistic:.6g}",
        f"critical_value: {res.critical_value:.6g}",
        f"change_detected: {'yes' if res.reject else 'no'}",
        f"change_index: {res.change_index}",
    ]
    report = "\n".join(lines)
    # files first, so a report on stdout always comes with exit status 0 or 1
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="ascii")
    if args.path_out:
        emit_path(res.path, res.critical_value, args.path_out)
    print(report)
    return 1 if res.reject else 0


def cmd_critval(args: argparse.Namespace) -> int:
    print(repr(_critical_value(args)))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    # a bad --reps or --seed, then an unwritable --out, fail before the study and leave no file
    scenarios = [s for table in args.table for s in table_scenarios(table, args.reps, args.seed)]
    open(args.out, "a", encoding="ascii").close()
    reports = [run_scenario(s) for s in scenarios]
    write_reports_csv(reports, args.out)
    for rep in reports:
        print(f"{rep.scenario.label}: power={rep.power:.3f} "
              f"({rep.rejections}/{rep.replications})")
    print(f"wrote {args.out}")
    return 0


def _add_critval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=BridgeConfig.grid_points,
                   help="grid points for simulated critical values")
    p.add_argument("--reps", type=int, default=BridgeConfig.replications,
                   help="replications for simulated critical values")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for simulated critical values")
    p.add_argument("--cache", default=DEFAULT_CACHE,
                   help="append-only critical-value cache file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cssm",
        description="Change-point detection in the autocovariance structure "
                    "of stationary time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a model, one value per line")
    p_sim.add_argument("--family", required=True,
                       choices=[f.value for f in Family])
    p_sim.add_argument("--params", required=True, help="comma-separated family parameters, "
                       "e.g. '0.2,0.1'; a list starting with '-' needs --params=-0.3,0.5")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p_sim.add_argument("--change-at", type=int, default=None,
                       help="introduce a parameter change after this observation")
    p_sim.add_argument("--params-after", help="post-change parameters (with --change-at); "
                       "a list starting with '-' needs --params-after=-0.3,0.5")
    p_sim.add_argument("--out", default=None, help="output file (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="run the change-point test on a series file")
    p_det.add_argument("input", help="text file, one value per line")
    p_det.add_argument("--L", type=int, default=1, help="largest lag tested")
    p_det.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_det.add_argument("--beta", type=float, default=DEFAULT_BETA,
                       help="truncation exponent of the covariance estimator")
    p_det.add_argument("--center", action="store_true",
                       help="subtract the sample mean before testing")
    p_det.add_argument("--out", default=None, help="also write the report here")
    p_det.add_argument("--path-out", default=None,
                       help="write the CUSUM path as CSV (k, value, critical value)")
    _add_critval_flags(p_det)
    p_det.set_defaults(func=cmd_detect)

    p_cv = sub.add_parser("critval", help="print a critical value")
    p_cv.add_argument("--L", type=int, required=True)
    p_cv.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_critval_flags(p_cv)
    p_cv.set_defaults(func=cmd_critval)

    p_pow = sub.add_parser("power", help="run power-study tables into one CSV")
    p_pow.add_argument("--table", required=True, nargs="+", choices=list(TABLE_IDS),
                       help="one or more table ids, run in the order given")
    p_pow.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS)
    p_pow.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_pow.add_argument("--out", required=True, help="CSV output path")
    p_pow.set_defaults(func=cmd_power)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:  # exit 1 means a change
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
