"""The summary statistics of scripts/record_bench.py, loaded from its file."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)


def runs(values, name="m"):
    return [{"metrics": {name: v}} for v in values]


class TestSpread:
    def test_quartiles_never_leave_min_and_max(self):
        # the exclusive method puts the two-value quartiles of 3.116 and 4.451 at
        # 2.782 and 4.785, past min and max, so below three values there are none
        assert record_bench.spread([3.116, 4.451]) == {
            "median": 3.7835, "q1": None, "q3": None, "min": 3.116, "max": 4.451}
        for n in range(1, 12):
            values = [(7 * i) % 11 / 3 for i in range(n)]
            got = record_bench.spread(values)
            if n < 3:
                assert got["q1"] is None and got["q3"] is None
            else:
                assert got["min"] <= got["q1"] <= got["median"] <= got["q3"] <= got["max"]

    def test_ten_values_keep_exclusive_quartiles(self):
        got = record_bench.spread([float(v) for v in (7, 3, 10, 1, 5, 9, 2, 8, 4, 6)])
        assert got == {"median": 5.5, "q1": 2.75, "q3": 8.25, "min": 1.0, "max": 10.0}


class TestCompare:
    def test_direction_of_better_and_worse(self):
        base, change = runs([10.0, 10.0, 10.0]), runs([8.0, 8.0, 10.0])
        lower = record_bench.compare(base, change, {"m": "lower"})["m"]
        higher = record_bench.compare(base, change, {"m": "higher"})["m"]
        assert (lower["better"], lower["worse"], lower["equal"]) == (2, 0, 1)
        assert (higher["better"], higher["worse"], higher["equal"]) == (0, 2, 1)
        assert lower["median_ratio"] == higher["median_ratio"] == 0.8

    def test_median_shift_against_base_iqr(self):
        base = runs([float(v) for v in range(1, 11)])  # IQR 2.75..8.25
        near = record_bench.compare(base, runs([v + 5.0 for v in range(1, 11)]), {"m": "lower"})
        far = record_bench.compare(base, runs([v + 6.0 for v in range(1, 11)]), {"m": "lower"})
        assert near["m"]["beyond_base_iqr"] is False
        assert far["m"]["beyond_base_iqr"] is True

    def test_two_pairs_have_no_iqr_verdict(self):
        got = record_bench.compare(runs([3.116, 4.451]), runs([9.0, 9.5]), {"m": "lower"})["m"]
        assert got["beyond_base_iqr"] is None
        assert got["worse"] == 2

    def test_pairs_missing_the_metric_are_skipped(self):
        base = runs([1.0, 2.0, 3.0]) + [{"metrics": {}}]
        got = record_bench.compare(base, runs([0.5, 1.5, 2.5, 0.0]), {"m": "lower", "x": "lower"})
        assert set(got) == {"m"}
        assert got["m"]["better"] == 3
