import csv
import dataclasses
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cssm import cusum, mc
from cssm.critval import DEFAULT_ALPHA
from cssm.cusum import cssm_test, cusum_path
from cssm.longrun import DEFAULT_BETA
from cssm.mc import (
    TABLE_IDS,
    PowerReport,
    Scenario,
    rep_seed,
    report_csv_lines,
    run_scenario,
    run_table,
    table_scenarios,
    write_reports_csv,
)
from cssm.models import ChangeSpec, ModelSpec


def arma_scenario(reps: int = 50, seed: int = 5, after=None, n: int = 300) -> Scenario:
    before = ModelSpec.arma11(0.2, 0.1)
    after = after or before
    return Scenario(
        label="test",
        change=ChangeSpec(n // 2, before, after),
        n=n,
        replications=reps,
        seed=seed,
    )


class TestRepSeed:
    def test_xor_derivation(self):
        assert rep_seed(12, 1) == 13
        assert rep_seed(12, 12) == 0
        assert len({rep_seed(1 << 21, r) for r in range(1, 1001)}) == 1000

    def test_small_numpy_integers_do_not_overflow(self):
        assert rep_seed(np.uint8(5), 256) == 261
        assert type(rep_seed(np.uint8(5), np.int8(3))) is int

    @pytest.mark.parametrize("base_seed, r, name", [(-3, 1, "base_seed"), (5, -1, "r"),
                                                    (5, 0, "r"), (2.0, 1, "base_seed")])
    def test_rejects_a_bad_seed_or_replication(self, base_seed, r, name):
        with pytest.raises(ValueError, match=name):
            rep_seed(base_seed, r)


class TestScenario:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -3.0, 7.0, "0.05", [0.05], None])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        before = ModelSpec.arma11(0.2, 0.1)
        with pytest.raises(ValueError, match="alpha"):
            Scenario("bad alpha", ChangeSpec(150, before, before), 300, alpha=alpha)

    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.1, 0.7, "0.3", np.array(0.3), None])
    def test_rejects_beta_outside_open_half_interval(self, beta):
        before = ModelSpec.arma11(0.2, 0.1)
        with pytest.raises(ValueError, match="beta"):
            Scenario("bad beta", ChangeSpec(150, before, before), 300, beta=beta)

    def test_rejects_negative_L(self):
        # every replication would fail and the power would be NaN
        before = ModelSpec.arma11(0.2, 0.1)
        with pytest.raises(ValueError, match="L must be >= 0"):
            Scenario("bad L", ChangeSpec(5, before, before), 10, L=-1)

    def test_rejects_n_too_short_for_L(self):
        # the estimator would fail in every replication and the power would be NaN
        spec = ModelSpec.arma11(0.2, 0.1)
        with pytest.raises(ValueError, match="minimum usable n is 21"):
            Scenario("short", ChangeSpec(10, spec, spec), 20, L=18, replications=5)
        shortest = Scenario("shortest", ChangeSpec(10, spec, spec), 21, L=18, replications=5)
        rep = run_scenario(shortest, critical_value=2.4)
        assert (rep.replications, rep.failures) == (5, 0)

    def test_no_table_entry_names_critical_value_without_simulating(self, no_bridges):
        spec = ModelSpec.arma11(0.2, 0.1)
        scenario = Scenario("L=2", ChangeSpec(150, spec, spec), 300, L=2, replications=2)
        with pytest.raises(ValueError, match="critical_value="):
            run_scenario(scenario)
        assert run_scenario(scenario, critical_value=3.0).replications == 2

    def test_rejects_negative_seed(self):
        # default_rng rejects negative seeds, so every replication would fail
        with pytest.raises(ValueError, match="seed must be >= 0"):
            arma_scenario(seed=-1)

    def test_rejects_replications_that_reach_the_next_scenario_seeds(self):
        with pytest.raises(ValueError, match=r"replications must be < 2097152"):
            arma_scenario(reps=2**21)


class TestRunScenario:
    def test_report_shape(self):
        rep = run_scenario(arma_scenario())
        assert isinstance(rep, PowerReport)
        assert rep.replications == 50
        assert rep.failures == 0
        assert rep.rejections == round(rep.power * rep.replications)
        assert rep.wall_time_s > 0

    def test_seed_stability(self):
        a = run_scenario(arma_scenario())
        b = run_scenario(arma_scenario())
        assert a.rejections == b.rejections
        assert a.power == b.power
        if not math.isnan(a.mean_change_index):
            assert a.mean_change_index == b.mean_change_index

    def test_worker_count_does_not_change_tally(self):
        serial = run_scenario(arma_scenario(reps=60), workers=1)
        threaded = run_scenario(arma_scenario(reps=60), workers=2)
        assert serial.rejections == threaded.rejections
        assert serial.mean_change_index == threaded.mean_change_index \
            or (math.isnan(serial.mean_change_index)
                and math.isnan(threaded.mean_change_index))

    def test_workers_argument_is_deprecated_and_ignored(self):
        serial = run_scenario(arma_scenario(reps=20))
        with pytest.warns(DeprecationWarning, match="workers"):
            other = run_scenario(arma_scenario(reps=20), workers=3)
        assert (other.rejections, other.failures) == (serial.rejections, serial.failures)

    def test_strong_change_beats_no_change(self):
        null = run_scenario(arma_scenario(reps=120))
        alt = run_scenario(
            arma_scenario(reps=120, after=ModelSpec.arma11(0.6, 0.7)),
        )
        assert alt.power > null.power + 0.3

    def test_mean_change_index_nan_without_rejections(self):
        # an eps-floor huge enough cannot happen; instead force no rejections
        # with an absurdly large critical value
        rep = run_scenario(arma_scenario(reps=10), critical_value=1e12)
        assert rep.rejections == 0
        assert math.isnan(rep.mean_change_index)

    def test_explicit_critical_value_short_circuits(self):
        rep = run_scenario(arma_scenario(reps=10), critical_value=0.0)
        assert rep.power == 1.0

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
    def test_critical_value_must_be_a_finite_threshold(self, c, monkeypatch):
        # a NaN threshold would report power 0 with no failures; it must
        # raise before the first replication
        def no_replication(*args, **kwargs):
            raise AssertionError("replication ran")

        monkeypatch.setattr(mc, "simulate_with_change", no_replication)
        with pytest.raises(ValueError, match="critical value must be finite"):
            run_scenario(arma_scenario(reps=20), critical_value=c)


def _one_cell_per_family(reps: int) -> dict[str, Scenario]:
    ma2 = ChangeSpec(150, ModelSpec.ma2(0.1, 0.2), ModelSpec.ma2(0.5, 0.4))
    return {
        "arma11": table_scenarios("T1", reps)[5],
        "ma2": Scenario("ma2", ma2, 300, replications=reps, seed=77),
        "product2dep": table_scenarios("T2a", reps)[2],
        "garch11": table_scenarios("T3", reps)[10],
    }


# (rejections, failures, mean_change_index) at 130 replications, as the
# one-replication-at-a-time harness reported them before chunking.
GOLDEN_130 = {
    "arma11": (115, 0, 259.295652173913),
    "ma2": (75, 0, 156.74666666666667),
    "product2dep": (108, 0, 192.50925925925927),
    "garch11": (125, 0, 434.512),
}


class TestChunkedRunScenario:
    # test slices crossed with simulation chunks; the default chunk keeps the bare id
    @pytest.mark.parametrize("chunk, sim_chunk", [
        pytest.param(chunk, sim, id=f"{chunk}" if sim == mc._SIM_CHUNK else f"{chunk}-sim{sim}")
        for sim in (1, 7, 64, mc._SIM_CHUNK) for chunk in (1, 7, mc._CHUNK)])
    def test_tally_does_not_depend_on_chunk(self, monkeypatch, chunk, sim_chunk):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        monkeypatch.setattr(mc, "_SIM_CHUNK", sim_chunk)
        for family, scenario in _one_cell_per_family(130).items():
            rep = run_scenario(scenario)
            assert (rep.rejections, rep.failures, rep.mean_change_index) \
                == GOLDEN_130[family], family

    def test_failed_simulation_counts_each_replication_once(self):
        garch = ModelSpec.garch11(1e308, 0.1, 0.2)
        scenario = Scenario("overflow", ChangeSpec(50, garch, garch), 100, replications=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_scenario(scenario)
        assert (rep.failures, rep.replications, rep.rejections) == (10, 0, 0)

    def test_failed_simulation_in_a_chunk_counts_once(self, monkeypatch):
        scenario = arma_scenario(reps=70)
        bad = rep_seed(scenario.seed, 9)
        simulate = mc.simulate_with_change

        def flaky(change, n, seed):
            if bad in np.atleast_1d(seed):
                raise ValueError("injected")
            return simulate(change, n, seed)

        monkeypatch.setattr(mc, "simulate_with_change", flaky)
        rep = run_scenario(scenario)
        assert (rep.failures, rep.replications) == (1, 69)

    @staticmethod
    def _fail_on_row(monkeypatch, scenario, r):
        """Make mc's cssm_test raise on any input that holds replication r's path."""
        bad = mc.simulate_with_change(scenario.change, scenario.n, rep_seed(scenario.seed, r))
        calls = []

        def flaky(paths, *args, **kwargs):
            calls.append(len(paths))
            if any(np.array_equal(row, bad.values) for row in paths):
                raise ValueError("injected")
            return cssm_test(paths, *args, **kwargs)

        monkeypatch.setattr(mc, "cssm_test", flaky)
        return calls

    def test_failed_test_counts_once(self, monkeypatch):
        scenario = arma_scenario(reps=70)
        calls = self._fail_on_row(monkeypatch, scenario, 37)
        rep = run_scenario(scenario)
        # the first chunk fails as a whole and is re-tested row by row
        assert calls == [mc._CHUNK] + [1] * mc._CHUNK + [70 - mc._CHUNK]
        assert (rep.failures, rep.replications) == (1, 69)

    def test_failed_test_leaves_the_other_rows_of_its_chunk_alone(self, monkeypatch):
        scenario = arma_scenario(reps=70, after=ModelSpec.arma11(0.6, 0.7))
        results = [cssm_test(mc.simulate_with_change(scenario.change, scenario.n,
                                                     rep_seed(scenario.seed, r)), 1)
                   for r in range(1, 71)]
        kept = [res for r, res in enumerate(results, 1) if r != 37]
        locs = [res.change_index for res in kept if res.reject]
        assert 0 < len(locs) < 69
        self._fail_on_row(monkeypatch, scenario, 37)
        rep = run_scenario(scenario)
        assert (rep.rejections, rep.failures, rep.mean_change_index) == (len(locs), 1,
                                                                         np.mean(locs))

    def test_one_cusum_path_call_per_chunk(self, monkeypatch):
        calls = []

        def counted(x, C, L):
            calls.append(len(x))
            return cusum_path(x, C, L)

        monkeypatch.setattr(cusum, "cusum_path", counted)
        rep = run_scenario(arma_scenario(reps=70))
        assert calls == [mc._CHUNK, 70 - mc._CHUNK]
        assert rep.replications == 70

    def test_chunks_are_simulated_whole_and_tested_in_slices(self, monkeypatch):
        simulated, tested = [], []
        simulate = mc.simulate_with_change

        def counted_simulate(change, n, seed):
            simulated.append(len(seed))
            return simulate(change, n, seed)

        def counted_path(x, C, L):
            tested.append(len(x))
            return cusum_path(x, C, L)

        monkeypatch.setattr(mc, "simulate_with_change", counted_simulate)
        monkeypatch.setattr(cusum, "cusum_path", counted_path)
        rep = run_scenario(arma_scenario(reps=300))
        assert (mc._SIM_CHUNK, mc._CHUNK) == (256, 64)
        assert simulated == [256, 44]
        assert tested == [64, 64, 64, 64, 44]
        assert rep.replications == 300


class TestTableGrids:
    def test_t1_grid(self):
        scens = table_scenarios("T1", replications=10)
        assert len(scens) == 16
        assert all(s.n == 500 and s.change.change_index == 250 for s in scens)
        assert all(s.L == 1 and s.alpha == 0.05 for s in scens)
        befores = {s.change.spec_before.params for s in scens}
        assert befores == {(0.2, 0.1)}  # (phi, theta)
        afters = [s.change.spec_after.params for s in scens]
        assert (0.2, 0.1) in afters  # the starred no-change cell
        assert (0.6, 0.7) in afters  # strongest cell (phi1, theta1)

    def test_t2_grids(self):
        a = table_scenarios("T2a", replications=10)
        b = table_scenarios("T2b", replications=10)
        assert [s.change.spec_after.params[1] for s in a] == [0.8, 0.6, 0.4, 0.2]
        assert [s.change.spec_after.params[0] for s in b] == [0.0, 0.5, 1.0, 1.5]
        assert all(s.change.spec_before.params == (0.0, 1.0) for s in a + b)
        assert all(s.n == 500 for s in a + b)

    def test_t3_grid(self):
        scens = table_scenarios("T3", replications=10)
        assert len(scens) == 12
        assert [s.n for s in scens[:3]] == [500, 800, 1000]
        assert all(s.change.change_index == s.n // 2 for s in scens)
        no_change = [s for s in scens if s.change.spec_before == s.change.spec_after]
        assert len(no_change) == 3
        assert scens[0].change.spec_before.params == (0.5, 0.1, 0.2)
        assert scens[-1].change.spec_after.params == (0.8, 0.4, 0.2)

    @pytest.mark.parametrize("table", TABLE_IDS)
    def test_every_cell_breaks_at_half_under_test_defaults(self, table):
        defaults = inspect.signature(cssm_test).parameters
        assert (DEFAULT_BETA, DEFAULT_ALPHA) == (defaults["beta"].default,
                                                 defaults["alpha"].default)
        for s in table_scenarios(table, replications=10):
            assert s.change.change_index == s.n // 2
            assert (s.beta, s.alpha, s.L) == (DEFAULT_BETA, DEFAULT_ALPHA, 1)

    def test_labels(self):
        labels = {t: [s.label for s in table_scenarios(t, replications=10)]
                  for t in TABLE_IDS}
        assert TABLE_IDS == ("T1", "T2a", "T2b", "T3")
        assert labels["T1"][0] == "T1 theta1=0.1 phi1=0.2"
        assert labels["T1"][-1] == "T1 theta1=0.7 phi1=0.6"
        assert labels["T2a"] == ["T2a sigma=0.8", "T2a sigma=0.6",
                                 "T2a sigma=0.4", "T2a sigma=0.2"]
        assert labels["T2b"] == ["T2b mu=0.0", "T2b mu=0.5", "T2b mu=1.0", "T2b mu=1.5"]
        assert labels["T3"] == [
            "T3 no change n=500",
            "T3 no change n=800",
            "T3 no change n=1000",
            "T3 omega=0.8 alpha=0.1 beta=0.2 n=500",
            "T3 omega=0.8 alpha=0.1 beta=0.2 n=800",
            "T3 omega=0.8 alpha=0.1 beta=0.2 n=1000",
            "T3 omega=0.8 alpha=0.1 beta=0.5 n=500",
            "T3 omega=0.8 alpha=0.1 beta=0.5 n=800",
            "T3 omega=0.8 alpha=0.1 beta=0.5 n=1000",
            "T3 omega=0.8 alpha=0.4 beta=0.2 n=500",
            "T3 omega=0.8 alpha=0.4 beta=0.2 n=800",
            "T3 omega=0.8 alpha=0.4 beta=0.2 n=1000",
        ]

    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table"):
            table_scenarios("T9")

    def test_scenario_seeds_are_spread(self):
        scens = table_scenarios("T1", replications=10, seed=1)
        seeds = [s.seed for s in scens]
        assert len(set(seeds)) == len(seeds)
        assert min(abs(a - b) for a in seeds for b in seeds if a != b) >= 1 << 21


class TestTableOnePowerSurface:
    def test_power_monotone_across_grid(self):
        # power never falls (beyond MC noise) as either post-break
        # parameter moves away from the starting point
        reports = run_table("T1", replications=1000)
        power = {
            (s.change.spec_after.params[1], s.change.spec_after.params[0]): r.power
            for s, r in ((rep.scenario, rep) for rep in reports)
        }
        thetas, phis = (0.1, 0.3, 0.5, 0.7), (0.2, 0.4, 0.5, 0.6)
        slack = 0.03
        for theta in thetas:
            for lo, hi in zip(phis, phis[1:]):
                assert power[(theta, hi)] >= power[(theta, lo)] - slack
        for phi in phis:
            for lo, hi in zip(thetas, thetas[1:]):
                assert power[(hi, phi)] >= power[(lo, phi)] - slack
        assert 0.02 <= power[(0.1, 0.2)] <= 0.08
        assert all(rep.failures == 0 for rep in reports)


class TestReportsCsv:
    def test_run_table_and_csv(self, tmp_path):
        reports = run_table("T2b", replications=5, seed=3)
        assert len(reports) == 4
        out = tmp_path / "reports.csv"
        write_reports_csv(reports, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,family,n,k_star,params_before")
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[1] == "product2dep"
        assert first[2] == "500"

    def test_quoted_label_round_trips_through_csv_reader(self):
        scenario = dataclasses.replace(arma_scenario(reps=2), label='a "quoted", label')
        rep = run_scenario(scenario, critical_value=2.408)
        rows = list(csv.reader(report_csv_lines([rep])))
        assert rows[1][:2] == ['a "quoted", label', "arma11"]
        assert len(rows[1]) == len(rows[0])

    def test_csv_power_column(self):
        rep = run_scenario(arma_scenario(reps=10), critical_value=0.0)
        line = report_csv_lines([rep])[1]
        assert ",1.000000," in line


GOLDEN = Path(__file__).parent / "golden" / "study_r200_s12345.csv"
REGENERATE = ("cssm power --table T1 T2a T2b T3 --reps 200 --seed 12345 --out study.csv "
              f"&& cut -d, -f1-13 study.csv > tests/golden/{GOLDEN.name}")


def test_study_tallies_match_the_golden_file():
    # columns 1-13 leave out only the wall time; no study label holds a comma
    scenarios = [s for table in TABLE_IDS for s in table_scenarios(table, 200, 12345)]
    got = [line.split(",")[:13] for line in report_csv_lines([run_scenario(s) for s in scenarios])]
    want = [line.split(",") for line in GOLDEN.read_text(encoding="ascii").splitlines()]
    assert len(got) == len(want) == 37
    header = want[0]
    for row, (got_row, want_row) in enumerate(zip(got, want)):
        for col, (g, w) in enumerate(zip(got_row, want_row)):
            assert g == w, (f"row {row} ({want_row[0]}), column {header[col]}: got {g}, "
                            f"golden {w}; if the change is intended, regenerate with "
                            f"{REGENERATE}")
        assert len(got_row) == len(want_row) == 13
