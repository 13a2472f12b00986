import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssm.cusum import CusumPath, cssm_test, cusum_path, inv_sqrt
from cssm.cusum import TestResult as _TestResult
from cssm.longrun import CovMatrix, estimate_longrun_cov, sigma_bar
from cssm.mc import rep_seed
from cssm.models import ChangeSpec, ModelSpec, simulate, simulate_with_change

from oracles import cusum_sq_l0_reference, longrun_matrix_reference

# each fails a CovMatrix check (asymmetric: eigh would read only the lower
# triangle; complex: conversion would drop the imaginary part), with its
# message rather than a LinAlgError, IndexError or ComplexWarning
NOT_A_COV_MATRIX = [
    pytest.param([[1.0, 5.0], [0.0, 1.0]], id="asymmetric"),
    pytest.param(np.ones((2, 3)), id="2x3"),
    pytest.param(np.ones(2), id="1-D"),
    pytest.param(np.zeros((0, 0)), id="0x0"),
    pytest.param(1.0, id="scalar"),
    pytest.param(np.eye(2) * (1 + 1j), id="complex"),
]
COV_MATRIX_CHECKS = (r"exactly symmetric|entries must be \dx\d for L=\d|L must be >= 0"
                     r"|must be real")


def identity_cov(L: int) -> CovMatrix:
    return CovMatrix(np.eye(L + 1), L=L)


class TestInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt(identity_cov(1)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        got = inv_sqrt(CovMatrix(np.diag([4.0, 9.0]), L=1))
        np.testing.assert_allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_defining_property(self):
        C = CovMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]), L=1)
        S = inv_sqrt(C)
        np.testing.assert_allclose(S @ C.entries @ S, np.eye(2), atol=1e-10)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=25)
    def test_random_spd_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3))
        M = A @ A.T + 0.5 * np.eye(3)
        M = (M + M.T) / 2
        S = inv_sqrt(M)
        np.testing.assert_allclose(S @ M @ S, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(S, S.T, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            inv_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="positive definite"):
            inv_sqrt(np.zeros((2, 2)))

    @pytest.mark.parametrize("C", NOT_A_COV_MATRIX)
    def test_plain_array_gets_the_cov_matrix_checks(self, C):
        with pytest.raises(ValueError, match=COV_MATRIX_CHECKS):
            inv_sqrt(C)


class TestCusumPath:
    def test_hand_example_two_points(self):
        # k range is {1}; d_1 = 4 - 2 = 2; value = (1/sqrt(2) * 2)^2 = 2
        path = cusum_path([2.0, 0.0], identity_cov(0), 0)
        assert path.k_min == 1 and path.k_max == 1
        np.testing.assert_allclose(path.values, [2.0])

    def test_constant_magnitude_series_is_flat_zero(self):
        path = cusum_path([1.0, -1.0], identity_cov(0), 0)
        np.testing.assert_allclose(path.values, [0.0])

    def test_full_sample_value_would_be_zero(self):
        # the excluded endpoint k = n carries d_n = 0, so its path value
        # computed through the same arithmetic is exactly zero
        x = np.random.default_rng(2).standard_normal(50)
        from cssm.autocov import prefix_autocovs

        mat = prefix_autocovs(x, 1)
        d_n = mat[-1] - mat[-1]
        v = (50.0 / np.sqrt(50.0)) * (inv_sqrt(identity_cov(1)) @ d_n)
        assert float(v @ v) == 0.0

    def test_path_length_and_range(self):
        x = np.random.default_rng(3).standard_normal(40)
        path = cusum_path(x, identity_cov(2), 2)
        assert path.k_min == 3
        assert path.k_max == 39
        assert len(path.values) == 37

    def test_nonnegative_on_random_series(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal(int(rng.integers(10, 200)))
            path = cusum_path(x, identity_cov(1), 1)
            assert (path.values >= 0.0).all()

    def test_matches_classic_cusum_of_squares_at_L0(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(5, 80)))
            path = cusum_path(x, identity_cov(0), 0)
            want_stat, want_k = cusum_sq_l0_reference(x)
            got_k = path.k_min + int(np.argmax(path.values))
            assert path.values.max() == pytest.approx(want_stat, rel=1e-10)
            assert got_k == want_k

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="L="):
            cusum_path([1.0, 2.0, 3.0], identity_cov(1), 0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="nonempty path"):
            cusum_path([1.0], identity_cov(0), 0)

    def test_plain_array_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"must be 1x1 for L=0, got \(2, 2\)"):
            cusum_path([1.0, 2.0, 3.0], np.eye(2), 0)

    @pytest.mark.parametrize("C", NOT_A_COV_MATRIX)
    @pytest.mark.parametrize("L", [0, 1])
    def test_plain_array_gets_the_cov_matrix_checks(self, C, L):
        with pytest.raises(ValueError, match=COV_MATRIX_CHECKS):
            cusum_path(np.random.default_rng(6).standard_normal(30), C, L)

    def test_plain_array_matches_cov_matrix(self):
        x = np.random.default_rng(7).standard_normal(40)
        C = np.array([[2.0, 0.3], [0.3, 1.0]])
        want = cusum_path(x, CovMatrix(C, L=1), 1).values
        assert cusum_path(x, C, 1).values.tobytes() == want.tobytes()


class TestCusumPathType:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CusumPath(np.array([0.5, -0.1]), k_min=2, k_max=3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            CusumPath(np.array([0.5]), k_min=2, k_max=3)


class TestCssmTest:
    def test_zero_series_never_rejects(self):
        res = cssm_test([0.0] * 200, 1)
        assert res.statistic == 0.0
        assert not res.reject
        assert res.critical_value == 2.408
        assert res.change_index == res.L + 1

    def test_result_invariants(self):
        x = simulate(ModelSpec.arma11(0.2, 0.1), 400, seed=8)
        res = cssm_test(x, 1)
        assert isinstance(res, _TestResult)
        assert res.statistic >= 0.0
        assert res.reject == (res.statistic >= res.critical_value)
        assert res.L + 1 <= res.change_index <= res.n - 1
        assert res.n == 400
        want = cusum_path(x, estimate_longrun_cov(x, 1), 1)
        np.testing.assert_array_equal(res.path.values, want.values)
        assert (res.path.k_min, res.path.k_max) == (want.k_min, want.k_max)
        assert res.statistic == res.path.values.max()
        assert res.change_index == res.path.k_min + int(np.argmax(res.path.values))

    def test_scale_invariance_of_statistic(self):
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42)
        base = cssm_test(x, 1, critical_value=2.408)
        for c in (3.7, 0.02, 250.0):
            scaled = cssm_test(c * x.values, 1, critical_value=2.408)
            assert scaled.statistic == pytest.approx(base.statistic, rel=1e-6)
            assert scaled.change_index == base.change_index

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-90, 1e-40, 1e-4,
                                       1e60, 1e77, 1e150, 1e300])
    @pytest.mark.parametrize("family", ["arma11", "garch11"])
    @pytest.mark.parametrize("L", [1, 3])
    def test_scale_invariance_across_double_range(self, scale, family, L):
        # fourth-order terms of the raw series underflow below about 1e-78
        # and overflow near 1e77; the test must not see either
        spec = {"arma11": ModelSpec.arma11(0.2, 0.1),
                "garch11": ModelSpec.garch11(0.5, 0.1, 0.2)}[family]
        x = simulate(spec, 600, seed=42)
        base = cssm_test(x, L, critical_value=2.408)
        scaled = cssm_test(scale * x.values, L, critical_value=2.408)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert scaled.change_index == base.change_index

    def test_scale_invariance_when_raw_trace_is_not_positive(self):
        # the fallback floor must follow the scale of the data too
        x = np.random.default_rng(188).standard_normal(20)
        assert np.trace(longrun_matrix_reference(x, 1)) <= 0.0
        base = cssm_test(x, 1, critical_value=2.408)
        for scale in (1e-4, 1e-40, 1e60):
            scaled = cssm_test(scale * x, 1, critical_value=2.408)
            assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
            assert scaled.change_index == base.change_index

    def test_power_of_two_scaling_is_bit_exact(self):
        # at n = 60 the unnormalised arithmetic already changes bits at 2**200
        x = simulate(ModelSpec.arma11(0.2, 0.1), 60, seed=42).values
        base = cssm_test(x, 3, critical_value=2.408)
        for k in (-900, -200, 200, 900):
            scaled = cssm_test(np.ldexp(x, k), 3, critical_value=2.408)
            assert scaled.path.values.tobytes() == base.path.values.tobytes()

    @pytest.mark.parametrize("scale", [1e77, 1e150, 1e300])
    def test_overflowing_scale_raises_without_warnings(self, scale):
        # the estimator works in data units; cssm_test rescales before it
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow.*rescale"):
                estimate_longrun_cov(scale * x.values, 1)
            with pytest.raises(ValueError, match="overflow.*rescale"):
                sigma_bar(scale * x.values, 0, 1, 2)

    def test_smallest_argmax_wins_ties(self):
        # an exactly tied path is easiest to force through the path type
        path = CusumPath(np.array([1.0, 3.0, 3.0, 0.5]), k_min=2, k_max=5)
        best = int(np.argmax(path.values))
        assert path.k_min + best == 3

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -3.0, 7.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="alpha"):
            cssm_test(x, 1, alpha=alpha, critical_value=2.408)
        with pytest.raises(ValueError, match="alpha"):  # checked before the data
            cssm_test(x.values[:3], 1, alpha=alpha, critical_value=2.408)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
    def test_critical_value_must_be_a_finite_threshold(self, c):
        # a NaN threshold never rejects; none of these is a quantile of the law
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="critical value must be finite"):
            cssm_test(x, 1, critical_value=c)

    def test_zero_and_huge_critical_values_stay_valid(self):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        assert cssm_test(x, 1, critical_value=0.0).reject
        assert not cssm_test(x, 1, critical_value=1e12).reject

    def test_unknown_alpha_without_bridge_config(self):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="BridgeConfig"):
            cssm_test(x, 1, alpha=0.01)

    def test_threshold_is_the_only_critical_value_argument(self):
        params = inspect.signature(cssm_test).parameters
        assert list(params) == ["x", "L", "beta", "alpha", "critical_value"]
        assert params["critical_value"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_no_table_entry_names_critical_value_without_simulating(self, no_bridges):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="critical_value="):
            cssm_test(x, 2)
        assert cssm_test(x, 2, critical_value=3.0).critical_value == 3.0

    def test_iid_gaussian_level_near_nominal(self):
        # size calibration under the null at the 5% level
        spec = ModelSpec.ma2(0.0, 0.0)
        rejections = 0
        for r in range(1, 1001):
            x = simulate(spec, 1000, seed=rep_seed(12345, r))
            rejections += cssm_test(x, 1, critical_value=2.408).reject
        assert 0.02 <= rejections / 1000 <= 0.08

    def test_variance_change_detected_and_located(self):
        before = ModelSpec.product2dep(0.0, 1.0)
        after = ModelSpec.product2dep(0.0, 1.26)
        x = simulate_with_change(ChangeSpec(500, before, after), 1000,
                                 seed=rep_seed(12345, 1))
        res = cssm_test(x, 1)
        assert res.reject
        assert abs(res.change_index - 500) <= 60
