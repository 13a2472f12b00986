import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssm.critval import BridgeConfig
from cssm.cusum import CusumPath, cssm_test, cusum_path, inv_sqrt
from cssm.cusum import TestResult as _TestResult
from cssm.longrun import CovMatrix, EstimatorConfig, estimate_longrun_cov
from cssm.mc import rep_seed
from cssm.models import ChangeSpec, ModelSpec, simulate, simulate_with_change

from oracles import cusum_sq_l0_reference


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
        from cssm.autocov import _prefix_autocov_matrix

        mat = _prefix_autocov_matrix(x, 1)
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


class TestCusumPathType:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CusumPath(np.array([0.5, -0.1]), k_min=2, k_max=3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            CusumPath(np.array([0.5]), k_min=2, k_max=3)


class TestCssmTest:
    def test_zero_series_never_rejects(self):
        res = cssm_test([0.0] * 200, 1, EstimatorConfig(eps_floor=1e-8))
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

    @pytest.mark.parametrize("scale", [1e-4, 1e-40, 1e60])
    @pytest.mark.parametrize("family", ["arma11", "garch11"])
    @pytest.mark.parametrize("L", [1, 3])
    def test_scale_invariance_across_double_range(self, scale, family, L):
        # the automatic eigenvalue floor must follow the scale of the data
        spec = {"arma11": ModelSpec.arma11(0.2, 0.1),
                "garch11": ModelSpec.garch11(0.5, 0.1, 0.2)}[family]
        x = simulate(spec, 600, seed=42)
        base = cssm_test(x, L, critical_value=2.408)
        scaled = cssm_test(scale * x.values, L, critical_value=2.408)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert scaled.change_index == base.change_index

    @pytest.mark.parametrize("scale", [1e77, 1e150, 1e300])
    def test_overflowing_scale_raises_without_warnings(self, scale):
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow.*rescale"):
                cssm_test(scale * x.values, 1)

    def test_smallest_argmax_wins_ties(self):
        # an exactly tied path is easiest to force through the path type
        path = CusumPath(np.array([1.0, 3.0, 3.0, 0.5]), k_min=2, k_max=5)
        best = int(np.argmax(path.values))
        assert path.k_min + best == 3

    def test_unknown_alpha_without_bridge_config(self):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="BridgeConfig"):
            cssm_test(x, 1, alpha=0.01)

    def test_alpha_resolved_by_simulation(self):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        cfg = BridgeConfig(grid_points=200, replications=2000, seed=9)
        res = cssm_test(x, 1, alpha=0.01, bridge_cfg=cfg)
        assert res.critical_value > 2.408  # 1% quantile tops the 5% one

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
