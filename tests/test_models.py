import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssm.autocov import prefix_autocovs
from cssm.models import (
    DEFAULT_BURN_IN,
    ChangeSpec,
    Family,
    ModelSpec,
    simulate,
    simulate_with_change,
)

from oracles import simulate_reference


class TestModelSpecValidation:
    def test_arma_requires_causal_phi(self):
        with pytest.raises(ValueError, match="phi"):
            ModelSpec.arma11(phi=1.0, theta=0.3)

    def test_garch_stationarity(self):
        with pytest.raises(ValueError, match="alpha \\+ beta"):
            ModelSpec.garch11(0.5, 0.6, 0.5)
        with pytest.raises(ValueError, match="omega"):
            ModelSpec.garch11(0.0, 0.1, 0.2)
        with pytest.raises(ValueError, match="alpha >= 0"):
            ModelSpec.garch11(0.5, -0.1, 0.2)

    def test_product_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma_z"):
            ModelSpec.product2dep(0.0, 0.0)

    @pytest.mark.parametrize("family, params, name", [
        (Family.ARMA11, (0.1j, 0.1), "phi"),
        (Family.ARMA11, ("0.2", 0.1), "phi"),
        (Family.ARMA11, (np.nan, 0.1), "phi"),
        (Family.ARMA11, (0.2, np.nan), "theta"),
        (Family.MA2, (0.1, [0.2]), "theta2"),
        (Family.PRODUCT2DEP, (np.inf, 1.0), "mu_z"),
        (Family.PRODUCT2DEP, (0.0, None), "sigma_z"),
        (Family.GARCH11, (np.array(0.5), 0.1, 0.2), "omega"),
        (Family.GARCH11, (0.5, 0.1, np.float64(-0.2)), "beta"),
        (Family.MA2, 0.5, "params"),
        ("ma2", None, "params"),
        (Family.ARMA11, "0.2,0.1", "params"),
        (Family.GARCH11, np.array(0.5), "params"),
    ])
    def test_bad_parameter_is_named(self, family, params, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be "):
                ModelSpec(family, params)

    def test_fields_are_family_and_params(self):
        assert [f.name for f in dataclasses.fields(ModelSpec)] == ["family", "params"]

    def test_params_sequences_pass(self):
        want = ModelSpec.ma2(0.1, 0.2)
        for params in ((0.1, 0.2), [0.1, 0.2], np.array([0.1, 0.2])):
            spec = ModelSpec(Family.MA2, params)
            assert spec == want and type(spec.params) is tuple

    def test_param_count(self):
        with pytest.raises(ValueError, match="expects"):
            ModelSpec(Family.MA2, (0.1,))

    def test_family_coercion_from_string(self):
        spec = ModelSpec("ma2", (0.1, 0.2))
        assert spec.family is Family.MA2


class TestChangeSpec:
    def test_family_must_match(self):
        with pytest.raises(ValueError, match="family"):
            ChangeSpec(10, ModelSpec.ma2(0.1, 0.2), ModelSpec.arma11(0.1, 0.2))

    def test_index_positive(self):
        spec = ModelSpec.ma2(0.1, 0.2)
        with pytest.raises(ValueError, match="change_index"):
            ChangeSpec(0, spec, spec)

    def test_index_below_n(self):
        spec = ModelSpec.ma2(0.1, 0.2)
        with pytest.raises(ValueError, match="< n"):
            simulate_with_change(ChangeSpec(100, spec, spec), 100, seed=1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.arma11(0.2, 0.1),
            ModelSpec.ma2(0.3, 0.3),
            ModelSpec.product2dep(0.0, 1.0),
            ModelSpec.garch11(0.5, 0.1, 0.2),
        ],
        ids=lambda s: s.family.value,
    )
    def test_another_seed_gives_another_path(self, spec):
        # the same seed gives the same path: TestSimulatorOracles pins it to the scalar loop
        a = simulate(spec, 200, seed=99)
        assert len(a) == 200
        c = simulate(spec, 200, seed=100)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.arma11(0.2, 0.1),
            ModelSpec.ma2(0.3, 0.3),
            ModelSpec.product2dep(0.0, 1.0),
            ModelSpec.garch11(0.5, 0.1, 0.2),
        ],
        ids=lambda s: s.family.value,
    )
    def test_no_change_is_bitwise_identical_to_simulate(self, spec):
        cs = ChangeSpec(120, spec, spec)
        a = simulate(spec, 300, seed=77)
        b = simulate_with_change(cs, 300, seed=77)
        assert np.array_equal(a.values, b.values)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=20)
    def test_seed_determinism_property(self, seed):
        spec = ModelSpec.garch11(0.5, 0.1, 0.2)
        a = simulate(spec, 50, seed=seed, burn_in=10)
        b = simulate(spec, 50, seed=seed, burn_in=10)
        assert np.array_equal(a.values, b.values)


# (before, after) pairs whose every parameter changes at the break
BREAKS = {
    "arma11": (ModelSpec.arma11(0.2, 0.1), ModelSpec.arma11(-0.6, 0.7)),
    "ma2": (ModelSpec.ma2(0.3, 0.3), ModelSpec.ma2(-0.5, 0.8)),
    "product2dep": (ModelSpec.product2dep(0.0, 1.0), ModelSpec.product2dep(0.5, 0.6)),
    "garch11": (ModelSpec.garch11(0.5, 0.1, 0.2), ModelSpec.garch11(0.8, 0.4, 0.3)),
}


class TestSimulatorOracles:
    """Every simulator matches its literal scalar loop byte for byte."""

    @pytest.mark.parametrize("burn_in", [0, DEFAULT_BURN_IN])
    @pytest.mark.parametrize("k_star", [None, 20, 39], ids=["no-break", "mid", "last"])
    @pytest.mark.parametrize("family", list(BREAKS))
    def test_matches_scalar_loop(self, family, k_star, burn_in):
        before, after = BREAKS[family]
        n, seed = 40, 2024
        if k_star is None:
            got = simulate(before, n, seed, burn_in)
            want = simulate_reference(before, before, n, n, seed, burn_in)
        else:
            got = simulate_with_change(ChangeSpec(k_star, before, after), n, seed, burn_in)
            want = simulate_reference(before, after, k_star, n, seed, burn_in)
        assert got.values.tobytes() == want.tobytes()


class TestBatchedSimulators:
    """A seed sequence simulates one path per seed, each one byte-equal to its scalar loop."""

    @pytest.mark.parametrize("rows", [1, 2, 65])
    @pytest.mark.parametrize("burn_in", [0, DEFAULT_BURN_IN])
    @pytest.mark.parametrize("k_star", [None, 20], ids=["no-break", "mid"])
    @pytest.mark.parametrize("family", list(BREAKS))
    def test_rows_match_scalar_loop(self, family, k_star, burn_in, rows):
        before, after = BREAKS[family]
        n = 40
        seeds = [2024 + 7919 * r for r in range(rows)]
        if k_star is None:
            got = simulate(before, n, seeds, burn_in)
            after, k_star = before, n
        else:
            got = simulate_with_change(ChangeSpec(k_star, before, after), n, seeds, burn_in)
        assert got.shape == (rows, n) and got.dtype == np.float64
        assert not got.flags.writeable
        for row, seed in zip(got, seeds):
            want = simulate_reference(before, after, k_star, n, seed, burn_in)
            assert row.tobytes() == want.tobytes()

    def test_numpy_integer_seeds(self):
        spec = ModelSpec.garch11(0.5, 0.1, 0.2)
        got = simulate(spec, 30, np.array([3, 4]))
        assert got[1].tobytes() == simulate(spec, 30, 4).values.tobytes()

    # numpy's own errors do not name the seed, and a float seed raises TypeError there
    @pytest.mark.parametrize("seed", [[], -1, [5, -1], [[1, 2]], 1.5, [3, 2.0], np.float64(4),
                                      [[1, 2], [3]]],
                             ids=["empty", "negative", "negative-row", "2-d", "float",
                                  "float-row", "np.float64", "ragged"])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            simulate(ModelSpec.arma11(0.2, 0.1), 30, seed)

    @pytest.mark.parametrize("spec", [ModelSpec.garch11(1e308, 0.1, 0.2),
                                      ModelSpec.ma2(1e308, 1e308),
                                      ModelSpec.product2dep(1e200, 1e200)],
                             ids=lambda s: s.family.value)
    def test_overflow_raises_without_warning(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or infinite"):
                simulate(spec, 50, [1, 2, 3])
            with pytest.raises(ValueError, match="NaN or infinite"):
                simulate(spec, 50, 1)

    @pytest.mark.parametrize("seed", [1, [1, 2]], ids=["int", "list"])
    def test_non_finite_path_names_the_simulated_paths(self, seed):
        # one rule for both seed forms: the message names the simulation, not a
        # series the caller never passed
        with pytest.raises(ValueError, match="simulated paths must be finite"):
            simulate(ModelSpec.garch11(1e308, 0.1, 0.2), 10, seed)


class TestInPlaceSimulators:
    """Paths are written over their innovations, in one buffer row per seed."""

    @pytest.mark.parametrize("family", list(BREAKS))
    def test_rows_of_a_300_seed_stack_are_their_one_seed_paths(self, family):
        cs = ChangeSpec(150, *BREAKS[family])
        seeds = list(range(11, 311))
        stack = simulate_with_change(cs, 300, seeds)
        assert stack.shape == (300, 300)
        for row, seed in zip(stack, seeds):
            assert row.tobytes() == simulate_with_change(cs, 300, seed).values.tobytes()

    @pytest.mark.parametrize("family", list(BREAKS))
    def test_stack_peaks_below_one_and_three_quarter_buffers(self, family):
        # numpy reports its buffers to tracemalloc; the buffer is (burn_in + n) doubles a seed
        R, n = 256, 1000
        tracemalloc.start()
        try:
            simulate(BREAKS[family][0], n, list(range(R)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * (DEFAULT_BURN_IN + n) * R * 8


class TestStationaryMoments:
    def test_ma2_degenerates_to_white_noise(self):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 100_000, seed=12).values
        assert 0.98 <= x.var() <= 1.02

    def test_ma2_population_autocovariances(self):
        theta1, theta2 = 0.4, 0.3
        x = simulate(ModelSpec.ma2(theta1, theta2), 100_000, seed=13)
        want = [
            1 + theta1**2 + theta2**2,
            theta1 + theta1 * theta2,
            theta2,
        ]
        got = prefix_autocovs(x, 2)[-1]  # full-sample autocovariances at lags 0..2
        # 3 MC standard errors, SE roughly sqrt(c00 * kappa / n)
        for h, target in enumerate(want):
            se = 3.0 * np.sqrt(3.0 * want[0] ** 2 / 100_000)
            assert abs(got[h] - target) <= se

    def test_product2dep_is_white_with_unit_variance(self):
        x = simulate(ModelSpec.product2dep(0.0, 1.0), 100_000, seed=24)
        gamma0, gamma1, gamma2 = prefix_autocovs(x, 2)[-1]
        assert abs(gamma0 - 1.0) <= 0.02
        assert abs(gamma1) <= 0.02
        assert abs(gamma2) <= 0.02

    def test_garch_unconditional_variance(self):
        x = simulate(ModelSpec.garch11(0.5, 0.1, 0.2), 100_000, seed=15).values
        want = 0.5 / (1 - 0.1 - 0.2)
        assert abs(x.var() - want) / want <= 0.05

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.arma11(0.2, 0.1),
            ModelSpec.ma2(0.3, 0.3),
            ModelSpec.product2dep(0.0, 1.0),
            ModelSpec.garch11(0.5, 0.1, 0.2),
        ],
        ids=lambda s: s.family.value,
    )
    def test_half_sample_variances_agree(self, spec):
        x = simulate(spec, 100_000, seed=16).values
        v1, v2 = x[:50_000].var(), x[50_000:].var()
        assert abs(v1 - v2) / max(v1, v2) < 0.05


class TestChangeMechanics:
    def test_variance_break_levels(self):
        before = ModelSpec.product2dep(0.0, 1.0)
        after = ModelSpec.product2dep(0.0, 1.26)
        n, k = 200_000, 100_000
        x = simulate_with_change(ChangeSpec(k, before, after), n, seed=17).values
        pre = (x[:k] ** 2).mean()
        post = (x[k + 2:] ** 2).mean()
        assert abs(pre - 1.0) <= 0.1
        assert abs(post - 1.26**6) <= 0.3

    def test_state_carries_across_break(self):
        # identical parameters except far beyond the break: the pre-break
        # samples must coincide with the no-change path
        spec = ModelSpec.garch11(0.5, 0.1, 0.2)
        bumped = ModelSpec.garch11(0.8, 0.1, 0.2)
        base = simulate(spec, 400, seed=18).values
        broken = simulate_with_change(ChangeSpec(250, spec, bumped), 400, seed=18).values
        assert np.array_equal(base[:250], broken[:250])
        assert not np.array_equal(base[250:], broken[250:])

    def test_mean_break_in_innovations(self):
        before = ModelSpec.product2dep(0.0, 1.0)
        after = ModelSpec.product2dep(1.0, 1.0)
        x = simulate_with_change(ChangeSpec(5000, before, after), 10_000, seed=19).values
        # E X = mu^3 after the break
        assert abs(x[:5000].mean()) <= 0.1
        assert abs(x[5003:].mean() - 1.0) <= 0.2
