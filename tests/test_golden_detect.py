"""Golden ``cssm detect`` outputs on long series at L = 0..3.

``tests/golden/detect_n40000.csv`` holds what ``cssm detect`` reports for the
four (before, after) model pairs of perfbench's ``detect_long`` workload, each
without and with a change after observation 20,000, at n = 40,000 and L = 0..3.
At that length the long-run estimator sums 2, 3, 4 and 5 row blocks at
L = 0, 1, 2 and 3, where the golden study (n <= 1,000) fits in one.  When a
change of output is intended, regenerate the file with
``PYTHONPATH=src python tests/test_golden_detect.py`` and list each changed row.
"""

import warnings
from pathlib import Path

from cssm.cli import main
from cssm.cusum import cssm_test
from cssm.models import ChangeSpec, ModelSpec, simulate_with_change

GOLDEN = Path(__file__).parent / "golden" / "detect_n40000.csv"
REGENERATE = f"PYTHONPATH=src python tests/{Path(__file__).name}"
HEADER = "family,changed,seed,L,critical_value,statistic,change_index,change_detected"
N, CHANGE_AT = 40_000, 20_000
FAMILIES = (
    ("arma11", ModelSpec.arma11(0.2, 0.1), ModelSpec.arma11(0.6, 0.7)),
    ("ma2", ModelSpec.ma2(0.3, 0.3), ModelSpec.ma2(-0.3, 0.5)),
    ("product2dep", ModelSpec.product2dep(0.0, 1.0), ModelSpec.product2dep(0.0, 0.6)),
    ("garch11", ModelSpec.garch11(0.5, 0.1, 0.2), ModelSpec.garch11(0.8, 0.1, 0.5)),
)
# 5 % quantiles of the limit law (Kiefer's series), passed in so that nothing
# is simulated; L = 1 takes the built-in 2.408
CRITICAL_VALUES = {0: 1.84443, 1: None, 2: 3.05292, 3: 3.54292}


def golden_rows() -> list[str]:
    rows = []
    for i, (family, before, after) in enumerate(FAMILIES):
        for changed in (0, 1):
            seed = 1000 + 2 * i + changed
            x = simulate_with_change(ChangeSpec(CHANGE_AT, before, after if changed else before),
                                     N, seed)
            for L, crit in CRITICAL_VALUES.items():
                res = cssm_test(x, L, critical_value=crit)
                rows.append(f"{family},{changed},{seed},{L},{res.critical_value:.6g},"
                            f"{res.statistic:.6g},{res.change_index},"
                            f"{'yes' if res.reject else 'no'}")
    return rows


def test_detect_outputs_match_the_golden_file():
    header, *want = GOLDEN.read_text(encoding="ascii").splitlines()
    assert header == HEADER
    got = golden_rows()
    assert len(got) == len(want) == 32
    for row, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, (f"row {row}: got {g}, golden {w}; if the change is intended, "
                        f"regenerate with {REGENERATE}")


def test_cli_detect_prints_the_golden_garch_row(tmp_path, capsys):
    path = tmp_path / "g.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning across the estimator's row blocks
        assert main(["simulate", "--family", "garch11", "--params", "0.5,0.1,0.2",
                     "--n", str(N), "--seed", "1007", "--change-at", str(CHANGE_AT),
                     "--params-after", "0.8,0.1,0.5", "--out", str(path)]) == 0
        assert main(["detect", str(path), "--L", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    row, = (line.split(",") for line in GOLDEN.read_text(encoding="ascii").splitlines()
            if line.startswith("garch11,1,1007,1,"))
    assert "h_n: 24" in out
    assert f"statistic: {row[5]}" in out
    assert f"change_index: {row[6]}" in out


if __name__ == "__main__":
    GOLDEN.write_text("\n".join([HEADER, *golden_rows()]) + "\n", encoding="ascii")
