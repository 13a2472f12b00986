import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cssm.autocov
import cssm.critval
from cssm.critval import (
    BUILTIN_TABLE,
    BridgeConfig,
    _bridge_paths,
    critical_value,
    simulate_bridge_sup,
    sup_quantile,
)

from oracles import KOLMOGOROV_95_SQUARED, bridge_paths_reference, bridge_sup_reference


class TestBridgeConfig:
    def test_defaults_valid(self):
        cfg = BridgeConfig()
        assert cfg.grid_points == 2000 and cfg.replications == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [dict(grid_points=99), dict(replications=999), dict(seed=0), dict(seed=-3),
         dict(seed=2**64)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BridgeConfig(**kwargs)


class TestBridgeConstruction:
    def test_endpoint_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        paths = _bridge_paths(rng, reps=200, n_bridges=2, grid_points=128)
        assert (paths[:, :, -1] == 0.0).all()

    def test_midpoint_variance(self):
        # Var B(1/2) = 1/4; check within 3 MC standard errors
        rng = np.random.default_rng(2)
        reps = 100_000
        paths = _bridge_paths(rng, reps=reps, n_bridges=1, grid_points=200)
        mid = paths[:, 0, 99]  # t = 100/200 = 0.5
        var = mid.var()
        se = 0.25 * math.sqrt(2.0 / reps)
        assert abs(var - 0.25) <= 3 * se

    def test_sups_nonnegative_and_positive(self):
        sups = simulate_bridge_sup(0, BridgeConfig(100, 1000, 3))
        assert (sups >= 0.0).all()
        assert (sups > 0.0).all()  # zero sup has probability zero


class TestMatchesReferenceKernel:
    @pytest.mark.parametrize("reps, n_bridges, grid", [(300, 2, 128), (513, 1, 100),
                                                       (64, 5, 2000)])
    def test_bridge_paths_bitwise(self, reps, n_bridges, grid):
        got = _bridge_paths(np.random.default_rng(reps), reps, n_bridges, grid)
        want = bridge_paths_reference(np.random.default_rng(reps), reps, n_bridges, grid)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_bridge_paths_into_reused_buffers_bitwise(self):
        # simulate_bridge_sup hands each batch slices of buffers that hold
        # the previous batch; nothing of it may leak into the result
        buf = np.full((512, 3, 200), np.nan)
        got = _bridge_paths(np.random.default_rng(5), 300, 3, 200, buf[:300])
        want = bridge_paths_reference(np.random.default_rng(5), 300, 3, 200)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("L", [0, 1, 4])
    @pytest.mark.parametrize("reps, grid", [(1000, 100), (1100, 137)])
    def test_suprema_match_whole_batches_bitwise(self, reps, grid, L, workers):
        # last batches of 488 and 76 rows
        cfg = BridgeConfig(grid, reps, 40 + L)
        got = simulate_bridge_sup(L, cfg, workers=workers)
        assert got.tobytes() == bridge_sup_reference(L, cfg).tobytes()

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("L", [0, 1, 4])
    def test_block_height_does_not_change_suprema(self, rows, L, monkeypatch):
        # one-row blocks, and blocks that divide neither 512 nor 76
        cfg = BridgeConfig(137, 1100, 50 + L)
        monkeypatch.setattr(cssm.autocov, "_BLOCK_BYTES", rows * (L + 1) * cfg.grid_points * 8)
        heights = []

        def spy(rng, reps, *args):
            heights.append(reps)
            return _bridge_paths(rng, reps, *args)

        monkeypatch.setattr(cssm.critval, "_bridge_paths", spy)
        got = simulate_bridge_sup(L, cfg, workers=1)
        assert max(heights) == rows and sum(heights) == cfg.replications
        assert got.tobytes() == bridge_sup_reference(L, cfg).tobytes()

    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    def test_default_workers_match_serial_bitwise(self, L, monkeypatch):
        # as on a many-CPU host, so the default runs threaded even on one CPU
        monkeypatch.setattr(cssm.critval, "_usable_cpus", lambda: 64)
        cfg = BridgeConfig(137, 1500, 17 + L)
        default = simulate_bridge_sup(L, cfg)
        serial = simulate_bridge_sup(L, cfg, workers=1)
        assert default.tobytes() == serial.tobytes()


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records ``max_workers``, maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pool sizes requested by simulate_bridge_sup; no thread is started."""
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cssm.critval, "ThreadPoolExecutor", _SerialPool)
    return _SerialPool.sizes


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_nonpositive_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            simulate_bridge_sup(0, BridgeConfig(100, 1000, 3), workers=workers)

    def test_pool_never_exceeds_batch_count(self, pool_sizes):
        cfg = BridgeConfig(100, 1500, 3)  # 3 batches of at most 512
        got = simulate_bridge_sup(0, cfg, workers=10 ** 6)
        assert pool_sizes == [3]
        assert got.tobytes() == simulate_bridge_sup(0, cfg, workers=1).tobytes()

    def test_default_is_usable_cpus_at_most_two(self, pool_sizes, monkeypatch):
        cfg = BridgeConfig(100, 1500, 3)
        for cpus in (2, 3, 64):
            monkeypatch.setattr(cssm.critval, "_usable_cpus", lambda: cpus)
            simulate_bridge_sup(0, cfg)
        assert pool_sizes == [2, 2, 2]

    def test_many_threads_take_each_batch_once(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter allows
        starts = []
        batch = cssm.critval._sup_batch

        def spy(rng, L, grid_points, out):
            starts.append(out.__array_interface__["data"][0])
            batch(rng, L, grid_points, out)

        monkeypatch.setattr(cssm.critval, "_sup_batch", spy)
        cfg = BridgeConfig(100, 40 * 512 - 100, 11)  # 40 batches, the last of 412
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_bridge_sup(0, cfg, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(starts) == len(set(starts)) == 40
        assert got.tobytes() == bridge_sup_reference(0, cfg).tobytes()

    def test_one_worker_runs_on_the_calling_thread(self, pool_sizes, monkeypatch):
        cfg = BridgeConfig(100, 1500, 3)
        simulate_bridge_sup(0, cfg, workers=1)
        monkeypatch.setattr(cssm.critval, "_usable_cpus", lambda: 1)
        simulate_bridge_sup(0, cfg)
        assert pool_sizes == []


class TestMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_below_4_mb(self, workers):
        # numpy reports its buffers to tracemalloc; one whole (512, 3, 2000)
        # batch would take 24.6 MB per thread
        tracemalloc.start()
        try:
            simulate_bridge_sup(2, BridgeConfig(2000, 2000, 7), workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_impossible_count_fails_before_any_batch(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            raise RuntimeError("a batch ran")

        monkeypatch.setattr(cssm.critval, "_sup_batch", counted)
        with pytest.raises(ValueError, match="replications must fit in memory"):
            simulate_bridge_sup(2, BridgeConfig(replications=10**30), workers=1)
        assert calls == []


class TestReproducibility:
    def test_identical_config_bitwise(self):
        cfg = BridgeConfig(150, 2000, 44)
        a = simulate_bridge_sup(1, cfg)
        b = simulate_bridge_sup(1, cfg)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_output(self):
        cfg = BridgeConfig(200, 3000, 99)
        serial = simulate_bridge_sup(1, cfg, workers=1)
        threaded = simulate_bridge_sup(1, cfg, workers=2)
        assert np.array_equal(serial, threaded)

    def test_different_seeds_differ(self):
        a = simulate_bridge_sup(0, BridgeConfig(100, 1000, 1))
        b = simulate_bridge_sup(0, BridgeConfig(100, 1000, 2))
        assert not np.array_equal(a, b)


class TestSupQuantile:
    def test_order_statistic_rule(self):
        # ceil((1 - 0.05) * 20) = 19, so the 19th smallest of 1..20
        values = np.arange(1.0, 21.0)
        assert sup_quantile(values, 0.05) == 19.0
        # ceil(0.5 * 4) = 2
        assert sup_quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                 min_size=1, max_size=200),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60)
    def test_matches_manual_order_statistic(self, values, alpha):
        got = sup_quantile(values, alpha)
        rank = min(max(math.ceil((1 - alpha) * len(values)), 1), len(values))
        assert got == sorted(values)[rank - 1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_suprema(self, bad):
        # np.partition would rank NaN above every value, and inf is no quantile
        for alpha in (0.1, 0.5):
            with pytest.raises(ValueError, match="finite"):
                sup_quantile([bad, 1.0, 2.0], alpha)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            sup_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            sup_quantile([1.0], 1.0)


class TestCriticalValue:
    def test_builtin_entry(self):
        assert critical_value(1, 0.05) == 2.408
        assert BUILTIN_TABLE[(1, 0.05)] == 2.408

    def test_missing_entry_without_config(self):
        with pytest.raises(ValueError, match="BridgeConfig"):
            critical_value(0, 0.05)

    def test_l0_simulation_matches_kolmogorov(self):
        # continuum value is 1.3581^2 = 1.8444; grid bias is one-sided down
        cfg = BridgeConfig(grid_points=2000, replications=100_000, seed=7)
        c = critical_value(0, 0.05, cfg)
        assert c == pytest.approx(KOLMOGOROV_95_SQUARED, abs=0.06)
        assert c <= KOLMOGOROV_95_SQUARED + 0.01

    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "cache.txt"
        cfg = BridgeConfig(grid_points=120, replications=1500, seed=5)
        first = critical_value(0, 0.10, cfg, cache_path=cache)
        text = cache.read_text().strip()
        fields = text.split()
        assert len(fields) == 6
        assert fields[0] == "0"
        assert float(fields[1]) == 0.10
        assert fields[2:5] == ["120", "1500", "5"]
        assert float(fields[5]) == first
        # a second call must reuse the record, not append another
        again = critical_value(0, 0.10, cfg, cache_path=cache)
        assert again == first
        assert len(cache.read_text().strip().splitlines()) == 1

    def test_cache_read_from_foreign_process(self, tmp_path):
        # records written by another run are honored
        cache = tmp_path / "cache.txt"
        # a line that is not text, blank, comment, 5- and 7-field lines and a
        # non-numeric field come first and are skipped
        cache.write_bytes(b"\xff garbage\n"
                          b"# comment line\n"
                          b"\n"
                          b"   \t \n"
                          b"3 0.025 150 1200 77 1.0 2.0\n"
                          b"# 3 0.025 150 1200 77 1.0\n"
                          b"3 0.025 150 1200 77\n"
                          b"3 0.025 150 1200 77 oops\n"
                          b"3 0.025 150 1200 77 9.125\n")
        cfg = BridgeConfig(grid_points=150, replications=1200, seed=77)
        assert critical_value(3, 0.025, cfg, cache_path=cache) == 9.125
        # a file whose only record has another key is a miss: simulate, then append
        cache.write_text("3 0.025 150 1200 77 9.125\n")
        cfg = BridgeConfig(grid_points=100, replications=1000, seed=77)
        c = critical_value(3, 0.025, cfg, cache_path=cache)
        assert c == critical_value(3, 0.025, cfg)
        assert cache.read_text().splitlines() == ["3 0.025 150 1200 77 9.125",
                                                  f"3 0.025000000000000001 100 1000 77 {c:.17g}"]

    @pytest.mark.parametrize("record", ["nan", "-3", "inf"])
    def test_bad_cache_record_raises(self, tmp_path, record):
        # a cached threshold gets the same check as one passed in
        cache = tmp_path / "cache.txt"
        cache.write_text(f"2 0.01 200 2000 9 {record}\n")
        with pytest.raises(ValueError, match="critical value must be finite and nonnegative"):
            critical_value(2, 0.01, BridgeConfig(200, 2000, 9), cache_path=cache)


class TestCriticalTable:
    def test_monotone_in_alpha_and_L(self):
        cfg = BridgeConfig(grid_points=400, replications=4000, seed=31)
        c = {(L, alpha): sup_quantile(simulate_bridge_sup(L, cfg), alpha)
             for L in (0, 1) for alpha in (0.05, 0.10)}
        for L in (0, 1):
            assert c[(L, 0.05)] > c[(L, 0.10)]
        for alpha in (0.05, 0.10):
            assert c[(1, alpha)] > c[(0, alpha)]
        assert c[(0, 0.10)] > 0.0


class TestGridRefinement:
    def test_finer_grid_sup_is_larger_but_close(self):
        # sup over a finer grid is weakly larger; the bias gap stays small
        coarse = sup_quantile(
            simulate_bridge_sup(1, BridgeConfig(500, 100_000, 777)), 0.05
        )
        fine = sup_quantile(
            simulate_bridge_sup(1, BridgeConfig(4000, 100_000, 777)), 0.05
        )
        assert fine > coarse
        assert (fine - coarse) / coarse <= 0.02
