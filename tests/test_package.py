import subprocess
import sys

import numpy as np
import pytest

import cssm
from cssm import (BridgeConfig, ChangeSpec, ModelSpec, Scenario, critical_value, cssm_test,
                  estimate_longrun_cov, sigma_bar, simulate, simulate_with_change,
                  table_scenarios, truncation_lag)


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


def test_numpy_integer_counts_give_the_same_result():
    want = cssm_test(_X, 1)
    got = cssm_test(simulate(_SPEC, np.int64(300), seed=np.uint32(1)), np.int16(1))
    assert got.statistic == want.statistic and got.change_index == want.change_index
    assert critical_value(np.int64(1), 0.05) == critical_value(1, 0.05)
