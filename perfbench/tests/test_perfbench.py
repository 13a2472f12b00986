"""Self-tests of the benchmark's span arithmetic, tail rule, rebinding and host-speed scaling.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import hostclock  # noqa: E402
import run  # noqa: E402
from spans import Layer, Span, Tracer, ancestors_of, instrumented, self_times, totals_by_name  # noqa: E402


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("child", 1.0, 3.0, 0, 0),
        Span("grandchild", 1.5, 2.0, 1, 0),
        Span("child", 2.0, 5.0, 0, 0),   # overlaps the first child: counted once
        Span("child", 6.0, 7.0, 0, 0),
        Span("late", 9.5, 11.0, 0, 0),   # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.5, 0.5, 3.0, 1.0, 1.5])
    totals = totals_by_name(spans)
    assert totals["child"].calls == 3
    assert totals["child"].busy_s == pytest.approx(6.0)
    assert totals["child"].self_s == pytest.approx(5.5)
    assert ancestors_of(spans, "grandchild") == {0, 1}


def test_self_times_of_one_op_sum_to_its_root_span():
    spans = [Span("root", 0.0, 4.0, None, 7), Span("a", 0.5, 1.5, 0, 7),
             Span("b", 1.5, 3.0, 0, 7), Span("c", 2.0, 2.5, 2, 7)]
    assert sum(self_times(spans)) == pytest.approx(4.0)


@pytest.mark.parametrize("n", range(0, 11))
def test_tail_is_omitted_below_eleven_samples(n):
    assert run.tail([float(x) for x in range(n)]) is None


@pytest.mark.parametrize("n, value, percentile", [
    (11, 0.0, 100.0 / 11),
    (40, 29.0, 75.0),
    (100, 89.0, 90.0),
    (1000, 989.0, 99.0),
])
def test_tail_keeps_ten_samples_beyond_it(n, value, percentile):
    samples = [float(x) for x in range(n)][::-1]
    assert run.tail(samples) == (value, pytest.approx(percentile), n)
    assert sum(1 for s in samples if s > value) == 10


@pytest.mark.parametrize("round_size, op_s, seconds, rounds", [
    (8, 0.5, 30, 8),     # 7.5 rounds fill 30 s; round() goes to the even 8
    (28, 0.45, 30, 2),
    (1, 0.55, 30, 55),
    (8, 0.5, 0.1, 2),    # two rounds for the 11 ops op_tail_ms needs
    (28, 0.45, 1, 1),
])
def test_rounds_fill_the_seconds_at_nominal_op_time(round_size, op_s, seconds, rounds):
    wl = types.SimpleNamespace(round_size=round_size, nominal_op_s=op_s)
    assert run.rounds_for(wl, seconds) == rounds


def test_nominal_divides_each_time_by_the_ticks_around_it():
    times = [1.0, 2.0, 3.0]
    ticks = [1.0, 3.0, 1.0, 2.0]
    assert hostclock.nominal(times, ticks, reach=0) == pytest.approx([1.0 / 2, 2.0 / 2, 3.0 / 1.5])
    # reach=1 adds one more tick on either side, where there is one.
    assert hostclock.nominal(times, ticks, reach=1) == pytest.approx(
        [1.0 / (5 / 3), 2.0 / (7 / 4), 3.0 / 2.0])


def test_nominal_needs_a_tick_on_both_sides_of_every_time():
    with pytest.raises(ValueError):
        hostclock.nominal([1.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("kinds", [("loop",), ("big",), ("loop", "big")])
def test_tick_reports_a_slowness_near_one(kinds):
    # Within a factor of ten of nominal on any host the benchmark runs on.
    assert 0.1 < hostclock.tick(kinds) < 10.0


@pytest.fixture
def fake_package(monkeypatch):
    """Package ``fakepkg`` whose ``g`` is reached as ``a.g``, ``b.g`` and ``fakepkg.g``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def g(x):
        return x + 1

    def f(x):
        return a.g(x) * 2

    a.g, a.f = g, f
    b.g = g  # as after ``from .a import g``
    pkg.g = g
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, a, b


def test_rebinding_counts_each_call_once_through_any_name(fake_package):
    pkg, a, b = fake_package
    original = a.g
    tracer = Tracer()
    layers = {"a.g": Layer("fakepkg.a", "g", work=lambda x: x), "a.f": Layer("fakepkg.a", "f")}
    with instrumented(tracer, layers, "fakepkg"):
        assert a.g is b.g is pkg.g is not original
        a.g(1)  # outside an op: no span
        tracer.op = 3
        assert b.g(1) == 2 and pkg.g(2) == 3 and a.f(1) == 4
        tracer.op = None
    assert a.g is b.g is pkg.g is original
    names = [s.name for s in tracer.spans]
    assert names == ["a.g", "a.g", "a.f", "a.g"]
    assert [s.op for s in tracer.spans] == [3, 3, 3, 3]
    assert tracer.spans[3].parent == 2 and tracer.spans[0].parent is None
    assert totals_by_name(tracer.spans)["a.g"].work == 1 + 2 + 1


def test_rebinding_is_undone_when_the_run_raises(fake_package):
    pkg, a, b = fake_package
    original = a.g
    with pytest.raises(RuntimeError):
        with instrumented(Tracer(), {"a.g": Layer("fakepkg.a", "g")}, "fakepkg"):
            raise RuntimeError
    assert a.g is b.g is pkg.g is original


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["detect_long", "power_study", "critval_sim"]
