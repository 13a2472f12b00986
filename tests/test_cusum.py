import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssm import cusum
from cssm.autocov import TimeSeries, _as_stack, prefix_autocovs
from cssm.cusum import CusumPath, cssm_test, cusum_path, inv_sqrt
from cssm.cusum import TestResult as _TestResult
from cssm.longrun import CovMatrix, _min_usable_n, estimate_longrun_cov, sigma_bar
from cssm.mc import rep_seed
from cssm.models import ChangeSpec, ModelSpec, simulate, simulate_with_change

from oracles import cusum_sq_l0_reference, longrun_matrix_reference

# each fails a CovMatrix check (asymmetric: eigh would read only the lower
# triangle; complex: conversion would drop the imaginary part; empty stack:
# the smallest eigenvalue of no matrix has no value), with its message rather
# than a LinAlgError, IndexError, ComplexWarning or numpy's zero-size error
NOT_A_COV_MATRIX = [
    pytest.param([[1.0, 5.0], [0.0, 1.0]], id="asymmetric"),
    pytest.param(np.ones((2, 3)), id="2x3"),
    pytest.param(np.ones(2), id="1-D"),
    pytest.param(np.zeros((0, 0)), id="0x0"),
    pytest.param(1.0, id="scalar"),
    pytest.param(np.eye(2) * (1 + 1j), id="complex"),
    pytest.param(np.zeros((0, 2, 2)), id="empty stack"),
    pytest.param([[1.0, 0.0], [0.0]], id="ragged"),
]
COV_MATRIX_CHECKS = (r"exactly symmetric|entries must be \dx\d for L=\d|L must be >= 0"
                     r"|must be real|must contain at least one value")


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

    @pytest.mark.parametrize("scale", [1e77, 1e150, 1e160, 1e200, 1e300])
    def test_overflowing_scale_raises_without_warnings(self, scale):
        # each of these works in data units; cssm_test rescales before them.  Fourth-order
        # products overflow from about 1e77, second-order ones from about 1e155
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow.*rescale"):
                sigma_bar(scale * x, 0, 1, 2)
            for L in (0, 1, 3):
                with pytest.raises(ValueError, match="overflow.*rescale"):
                    estimate_longrun_cov(scale * x, L)
                with pytest.raises(ValueError, match="overflow.*rescale"):
                    cusum_path(scale * x, np.eye(L + 1), L)
                if scale < 1e155:
                    assert np.isfinite(prefix_autocovs(scale * x, L)).all()
                else:
                    with pytest.raises(ValueError, match="overflow.*rescale"):
                        prefix_autocovs(scale * x, L)
            with pytest.raises(ValueError):  # a path of inf, not a rejection
                cusum_path(x, 1e-320 * np.eye(2), 1)
        v = np.array([1.0, 3.0])
        assert CusumPath(v, 2, 3).values is v
        assert not cssm_test(x, 1).path.values.flags.writeable

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-170])
    def test_underflowing_scale_raises_without_warnings(self, scale):
        # gamma_hat(0) of the scaled series is 1.1e-300 at 1e-150 (normal), subnormal at
        # 1e-160 and zero at 1e-170; the path, fourth order in x, is zero at all three
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for L in (0, 1, 3):
                with pytest.raises(ValueError, match="underflow.*rescale"):
                    cusum_path(scale * x, np.eye(L + 1), L)
                if scale > 1e-155:
                    assert prefix_autocovs(scale * x, L)[-1, 0] >= np.finfo(np.float64).tiny
                else:
                    with pytest.raises(ValueError, match="underflow.*rescale"):
                        prefix_autocovs(scale * x, L)
                # an all-zero series has no scale to lose: zeros, not an error
                assert not prefix_autocovs(np.zeros(50), L).any()
                assert not cusum_path(np.zeros(50), np.eye(L + 1), L).values.any()
        with pytest.raises(ValueError, match="underflows.*C's scale"):
            cusum_path(1e-10 * x, 1e300 * np.eye(2), 1)
        # cssm_test normalises first, so it gives the unscaled answer up to rounding
        scaled, base = cssm_test(scale * x, 1), cssm_test(x, 1)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-12)
        assert scaled.change_index == base.change_index

    def test_smallest_argmax_wins_ties(self):
        # an exactly tied path is easiest to force through the path type
        path = CusumPath(np.array([1.0, 3.0, 3.0, 0.5]), k_min=2, k_max=5)
        best = int(np.argmax(path.values))
        assert path.k_min + best == 3

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -3.0, 7.0, "0.05", np.array([0.05]),
                                       np.array(0.05), None, 0.05j])
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

    @pytest.mark.parametrize("c", ["2.4", np.array([2.4]), np.array(2.4), 2.4j])
    def test_critical_value_must_be_a_real_number(self, c):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="critical value must be a real number"):
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

    def test_no_table_entry_names_critical_value_without_simulating(self, no_bridges,
                                                                    monkeypatch):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 300, seed=1)
        with pytest.raises(ValueError, match="critical_value="):
            cssm_test(x, 2)
        assert cssm_test(x, 2, critical_value=3.0).critical_value == 3.0

        def forbidden(*args, **kwargs):
            raise AssertionError("estimated the covariance before checking the threshold")

        monkeypatch.setattr(cusum, "estimate_longrun_cov", forbidden)
        with pytest.raises(ValueError, match="critical_value="):
            cssm_test(x, 2)

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


FAMILIES = {"arma11": ModelSpec.arma11(0.2, 0.1), "ma2": ModelSpec.ma2(0.1, 0.2),
            "product2dep": ModelSpec.product2dep(0.0, 1.0),
            "garch11": ModelSpec.garch11(0.5, 0.1, 0.2)}


class TestStacks:
    """A stack of series is tested, weighted and rooted as a loop over its rows would be."""

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("L", [0, 1, 3])
    @pytest.mark.parametrize("size", ["minimum", 60, 500, 1000])
    def test_cssm_test_of_a_stack_is_the_test_of_each_row(self, family, L, size):
        n = _min_usable_n(L, 0.3) if size == "minimum" else size
        # rows of ordinary, tiny and huge scale, contiguous and (Fortran order) strided
        X = simulate(FAMILIES[family], n, list(range(1, 7))) * np.array([[1.0], [1e-200],
                                                                          [1e200], [3.0],
                                                                          [0.5], [1.0]])
        got = cssm_test(X, L, critical_value=2.5)
        strided = cssm_test(np.asfortranarray(X), L, critical_value=2.5)
        assert isinstance(got, list) and len(got) == len(strided) == len(X)
        for row, *results in zip(X, got, strided):
            want = cssm_test(row, L, critical_value=2.5)
            for res in results:
                assert res == want
                assert np.array_equal(res.path.values, want.path.values)
                assert res.path.values.tobytes() == want.path.values.tobytes()
                assert not res.path.values.flags.writeable

    @pytest.mark.parametrize("L", [0, 1, 3])
    def test_cusum_path_and_inv_sqrt_of_a_stack_loop_over_the_rows(self, L):
        for R, n in ((3, 200), (70, 1000)):  # 70 rows at n = 1000 span 3 to 9 blocks of 256 KB
            X = simulate(FAMILIES["garch11"], n, list(range(4, 4 + R)))
            covs = [estimate_longrun_cov(x, L) for x in X]
            stack = CovMatrix(np.array([c.entries for c in covs]), L)
            roots = inv_sqrt(stack)
            assert roots.shape == (R, L + 1, L + 1)
            for root, c in zip(roots, covs):
                assert root.tobytes() == inv_sqrt(c).tobytes()
            paths = cusum_path(X, stack, L)
            assert paths.values.shape == (R, n - L - 1) and not paths.values.flags.writeable
            shared = cusum_path(X, covs[0], L)  # one matrix weights every row
            for x, c, vals, vals0 in zip(X, covs, paths.values, shared.values):
                assert vals.tobytes() == cusum_path(x, c, L).values.tobytes()
                assert vals0.tobytes() == cusum_path(x, covs[0], L).values.tobytes()

    def test_one_check_reads_a_float64_series_in_place(self):
        X = simulate(FAMILIES["arma11"], 300, [2, 3])
        x = simulate(FAMILIES["arma11"], 300, 2).values  # read-only, 1-D
        for arr in (X, x):
            assert np.shares_memory(_as_stack(arr)[0], arr)
        C = estimate_longrun_cov(x, 2)
        calls = (lambda v: cssm_test(v, 2, critical_value=2.5).path.values,
                 lambda v: cusum_path(v, C, 2).values, lambda v: prefix_autocovs(v, 2))
        for call in calls:
            want = call(x).tobytes()
            assert call(TimeSeries(x)).tobytes() == want
            assert call(x.tolist()).tobytes() == want
        res = [cssm_test(v, 2, critical_value=2.5) for v in (x, TimeSeries(x), x.tolist())]
        assert res[0] == res[1] == res[2]

    def test_stack_checks(self):
        X = np.random.default_rng(9).standard_normal((3, 50))
        with pytest.raises(ValueError, match="2 covariance matrices for 3 series"):
            cusum_path(X, np.stack([np.eye(2)] * 2), 1)
        with pytest.raises(ValueError, match="exactly symmetric"):
            CovMatrix(np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]), 1)
        with pytest.raises(ValueError, match=r"entries must be 2x2 for L=1"):
            CovMatrix(np.ones((1, 1, 2, 2)), 1)
        with pytest.raises(ValueError, match="positive definite"):
            inv_sqrt(np.stack([np.eye(2), np.zeros((2, 2))]))
        bad = X.copy()
        bad[1, 7] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            cssm_test(bad, 1)
        with pytest.raises(ValueError, match="at least one observation"):
            cssm_test(np.empty((0, 50)), 1)
        cube = np.zeros((2, 2, 400))
        for call in (lambda v: cssm_test(v, 1), lambda v: cusum_path(v, np.eye(2), 1),
                     lambda v: prefix_autocovs(v, 1)):
            with pytest.raises(ValueError, match=r"series must be one series \(1-D\) or a "
                                                 r"stack of series \(2-D\), got shape \(2, 2, 400\)"):
                call(cube)
        with pytest.raises(ValueError, match="must be real"):
            cssm_test(X * 1j, 1)
        for call in (lambda v: cssm_test(v, 1), lambda v: cusum_path(v, np.eye(2), 1),
                     lambda v: prefix_autocovs(v, 1)):
            with pytest.raises(ValueError, match="series must be real: "):
                call([X[0], X[1, :30]])
        # an integer stack is converted, not read in place
        ints = np.arange(1, 61).reshape(2, 30) % 7
        assert cssm_test(ints, 1) == [cssm_test(row, 1) for row in ints]
