import math

import numpy as np
import pytest

from cssm.longrun import EstimatorConfig
from cssm.mc import (
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

    def test_csv_power_column(self):
        rep = run_scenario(arma_scenario(reps=10), critical_value=0.0)
        line = report_csv_lines([rep])[1]
        assert ",1.000000," in line
