import subprocess
import sys
import warnings

import numpy as np
import pytest

import cssm
from cssm import (BridgeConfig, ChangeSpec, CovMatrix, ModelSpec, Scenario, critical_value,
                  cssm_test, cusum_path, estimate_longrun_cov, run_scenario, sigma_bar, simulate,
                  simulate_bridge_sup, simulate_with_change, table_scenarios, truncation_lag)


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import itself fail
    namespace: dict = {}
    exec("from cssm import *", namespace)
    assert set(cssm.__all__) <= namespace.keys()
    assert len(set(cssm.__all__)) == len(cssm.__all__)


def test_runtime_imports_numpy_and_the_standard_library_only():
    # modules loaded at start-up (by .pth files, say) are in `before` and do not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cssm, cssm.cli, cssm.mc, cssm.critval\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(top - set(sys.stdlib_module_names) - {'numpy', 'cssm'})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == []


_SPEC = ModelSpec.arma11(0.2, 0.1)
_X = simulate(_SPEC, 300, seed=1)

# every count argument takes integers only; a float used to be truncated or crash later
COUNT_CALLS = [
    pytest.param("n", lambda: simulate(_SPEC, 10.5, seed=1), id="simulate-n"),
    pytest.param("burn_in", lambda: simulate(_SPEC, 10, 1, burn_in=5.0), id="simulate-burn_in"),
    pytest.param("change_index", lambda: simulate_with_change(ChangeSpec(150.5, _SPEC, _SPEC),
                                                              300, 1), id="change_index"),
    pytest.param("L", lambda: cssm_test(_X, 1.0), id="cssm_test-L"),
    pytest.param("L", lambda: estimate_longrun_cov(_X, 1.5), id="estimate_longrun_cov-L"),
    pytest.param("L", lambda: Scenario("s", ChangeSpec(150, _SPEC, _SPEC), 300, L=1.5),
                 id="Scenario-L"),
    pytest.param("n", lambda: Scenario("s", ChangeSpec(150, _SPEC, _SPEC), 500.5),
                 id="Scenario-n"),
    pytest.param("replications", lambda: table_scenarios("T1", 2.5), id="table_scenarios"),
    pytest.param("replications", lambda: BridgeConfig(100, 1500.5, 3), id="BridgeConfig"),
    pytest.param("L", lambda: critical_value(1.5, 0.05), id="critical_value-L"),
    pytest.param("h", lambda: sigma_bar(_X, 0.5, 1, 1), id="sigma_bar-h"),
    pytest.param("n", lambda: truncation_lag(300.5, 0.3), id="truncation_lag-n"),
]


@pytest.mark.parametrize("name, call", COUNT_CALLS)
def test_float_count_raises_naming_the_argument(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


_X400 = simulate(_SPEC, 400, seed=1)
_C3 = estimate_longrun_cov(_X400, 3)
_GARCH = ModelSpec.garch11(0.5, 0.1, 0.2)


def _tally(scenario):
    rep = run_scenario(scenario, critical_value=3.0)
    return rep.rejections, rep.replications, rep.failures, rep.mean_change_index


# each call takes count(dtype, value): that numpy integer in one run, the plain int in the other
NUMPY_COUNT_CALLS = [
    pytest.param(lambda count: cssm_test(simulate(_SPEC, count(np.int64, 300),
                                                  seed=count(np.uint32, 1)), count(np.int16, 1)),
                 id="cssm_test-simulate"),
    pytest.param(lambda count: critical_value(count(np.int64, 1), 0.05), id="critical_value"),
    *[pytest.param(lambda count, L=L: cssm_test(_X400, count(np.int8, L), critical_value=3.0),
                   id=f"cssm_test-int8-{L}") for L in (3, 100, 127)],
    pytest.param(lambda count: estimate_longrun_cov(_X400, count(np.int8, 100)).entries,
                 id="estimate_longrun_cov-int8"),
    pytest.param(lambda count: cssm_test(simulate(_GARCH, 10 ** 5, seed=1), count(np.int16, 3),
                                         critical_value=3.0), id="cssm_test-int16-long"),
    *[pytest.param(lambda count, t=t: cusum_path(_X400, _C3, count(t, 3)).values,
                   id=f"cusum_path-{t.__name__}") for t in (np.int8, np.uint8)],
    pytest.param(lambda count: simulate_with_change(
        ChangeSpec(count(np.int8, 100), _SPEC, ModelSpec.arma11(0.6, 0.1)), 400, 1).values,
                 id="simulate_with_change-change_index"),
    pytest.param(lambda count: simulate_bridge_sup(2, BridgeConfig(
        grid_points=count(np.int16, 2000), replications=1000, seed=1)), id="BridgeConfig-grid"),
    pytest.param(lambda count: _tally(Scenario(
        "s", ChangeSpec(150, _SPEC, ModelSpec.arma11(0.6, 0.1)), 300, replications=300,
        seed=count(np.uint8, 5))), id="Scenario-seed"),
    pytest.param(lambda count: _tally(Scenario(
        "s", ChangeSpec(250, _SPEC, _SPEC), 500, L=count(np.int8, 100), replications=3)),
                 id="Scenario-L"),
]


@pytest.mark.parametrize("call", NUMPY_COUNT_CALLS)
def test_numpy_integer_counts_give_the_same_result(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(lambda dtype, value: dtype(value))
    np.testing.assert_equal(got, call(lambda dtype, value: value))


def test_records_and_results_keep_the_checked_int():
    bridge = BridgeConfig(np.int16(2000), np.int32(1000), np.uint8(7))
    scenario = Scenario("s", ChangeSpec(np.int16(150), _SPEC, _SPEC), np.int16(300),
                        L=np.int8(1), replications=np.int32(10), seed=np.uint8(5))
    counts = {
        "CovMatrix.L": CovMatrix(np.eye(2), np.int8(1)).L,
        "estimate_longrun_cov L": estimate_longrun_cov(_X, np.int8(1)).L,
        "TestResult.L": cssm_test(_X, np.int16(1)).L,
        "BridgeConfig.grid_points": bridge.grid_points,
        "BridgeConfig.replications": bridge.replications,
        "BridgeConfig.seed": bridge.seed,
        "ChangeSpec.change_index": scenario.change.change_index,
        "Scenario.n": scenario.n,
        "Scenario.L": scenario.L,
        "Scenario.replications": scenario.replications,
        "Scenario.seed": scenario.seed,
    }
    assert {name: type(value) for name, value in counts.items()} == dict.fromkeys(counts, int)
