import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssm.longrun import (
    CovMatrix,
    _longrun_terms,
    _min_usable_n,
    bartlett_linear,
    estimate_longrun_cov,
    sigma_bar,
    truncation_lag,
)
from cssm.cusum import cssm_test
from cssm.mc import Scenario
from cssm.models import ChangeSpec, ModelSpec, simulate

from oracles import longrun_matrix_reference, ma1_longrun_matrix, sigma_bar_reference


class TestTruncationLag:
    @pytest.mark.parametrize(
        "n,beta,want",
        [(1000, 0.3, 7), (500, 0.3, 6), (2, 0.3, 1), (20000, 0.3, 19)],
    )
    def test_values(self, n, beta, want):
        assert truncation_lag(n, beta) == want

    def test_beta_bounds(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError, match="beta"):
                truncation_lag(100, bad)

    def test_clamped_to_n_minus_1(self):
        # beta close to 1/2 with tiny n exercises the upper clamp
        assert truncation_lag(2, 0.49) == 1


class TestBeta:
    def test_out_of_range_rejected_by_every_entry_point(self):
        x = simulate(ModelSpec.arma11(0.2, 0.1), 300, seed=1)
        spec = ModelSpec.arma11(0.2, 0.1)
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError, match="beta"):
                estimate_longrun_cov(x, 1, bad)
            with pytest.raises(ValueError, match="beta"):
                cssm_test(x, 1, bad, critical_value=2.408)
            with pytest.raises(ValueError, match="beta"):
                Scenario("bad beta", ChangeSpec(150, spec, spec), 300, beta=bad)


class TestSigmaBar:
    def test_zero_series(self):
        assert sigma_bar([0.0] * 8, 0, 1, 2) == 0.0

    def test_constant_ones_lag0(self):
        assert sigma_bar([1.0, 1.0, 1.0, 1.0], 0, 0, 0) == 0.0

    def test_hand_checked_displacement(self):
        # frozen from the loop reference: n=4, gamma(0)=2.5, inner mean 8,
        # so (n-1) * (8 - 2*2.5^2) = -13.5
        assert sigma_bar_reference([1, 2, 1, 2], 0, 0, 1) == pytest.approx(-13.5)
        assert sigma_bar([1, 2, 1, 2], 0, 0, 1) == pytest.approx(-13.5)

    def test_rejects_h_above_k(self):
        with pytest.raises(ValueError, match="h <= k"):
            sigma_bar([1.0] * 10, 2, 1, 0)

    def test_rejects_displacement_without_products(self):
        with pytest.raises(ValueError, match="displacement"):
            sigma_bar([1.0] * 6, 0, 2, 5)

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=6,
            max_size=50,
        ),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80)
    def test_matches_loop_reference(self, xs, h, k, lag):
        h, k = min(h, k), max(h, k)
        if len(xs) - lag - k < 1:
            lag = 0
        m = max(map(abs, xs))
        try:
            got = sigma_bar(xs, h, k, lag)
        except ValueError as exc:
            # only a nonzero series of tiny values (fourth-order products below
            # the double range) may raise, and only the rescale error
            assert "underflow" in str(exc) and m < 1e-60
            return
        assert not 0.0 < m < 1e-80, "an underflowing series must raise, not return"
        want = sigma_bar_reference(xs, h, k, lag)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


class TestThetaBar:
    """The paper's theta_bar_{h,k}, read as entries of the estimated matrix."""

    def test_zero_series(self):
        # all raw entries are zero, so only the all-zero series' floor remains
        assert not longrun_matrix_reference([0.0] * 20, 2).any()
        cov = estimate_longrun_cov([0.0] * 20, 2)
        np.testing.assert_allclose(cov.entries, 1e-12 * np.eye(3), rtol=1e-12)

    def test_symmetric_in_lags(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(60)
        cov = estimate_longrun_cov(x, 2)
        assert cov.entries[0, 1] == cov.entries[1, 0]
        assert cov.entries[0, 2] == cov.entries[2, 0]
        raw = longrun_matrix_reference(x, 2)
        assert np.linalg.eigvalsh(raw)[0] > cov.eps_floor
        np.testing.assert_allclose(cov.entries, raw, rtol=0, atol=1e-9 * np.abs(x).max() ** 4)

    def test_ma1_converges_to_closed_form(self):
        # c_00 for theta=0.5, sigma=1 is 2(1 + 4 theta^2 + theta^4) = 4.125
        x = simulate(ModelSpec.ma2(0.5, 0.0), 20000, seed=1000)
        assert estimate_longrun_cov(x, 0).entries[0, 0] == pytest.approx(4.125, rel=0.10)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            estimate_longrun_cov([1.0, 2.0, 3.0], 2)


class TestEstimateLongrunCov:
    def test_iid_gaussian_matches_diag_2_1(self):
        x = simulate(ModelSpec.ma2(0.0, 0.0), 20000, seed=101)
        got = estimate_longrun_cov(x, 1).entries
        assert abs(got[0, 0] - 2.0) <= 0.3
        assert abs(got[1, 1] - 1.0) <= 0.15
        assert abs(got[0, 1]) <= 0.15

    def test_always_positive_definite(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(30, 200)))
            cov = estimate_longrun_cov(x, 2)
            assert np.linalg.eigvalsh(cov.entries)[0] >= cov.eps_floor * (1 - 1e-9)

    def test_zero_series_gives_floor_identity(self):
        cov = estimate_longrun_cov([0.0] * 50, 1)
        assert cov.eps_floor == 1e-12
        np.testing.assert_allclose(cov.entries, 1e-12 * np.eye(2), rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-76, 1e-80, 1e-90, 1e-150, 1e-300])
    def test_underflowing_scale_raises(self, scale):
        # the floor of a nonzero series must not underflow to 0, a subnormal
        # value, or the all-zero series' absolute 1e-12
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42).values
        for L in (1, 3):
            with pytest.raises(ValueError, match="underflow.*rescale"):
                estimate_longrun_cov(scale * x, L)

    def test_theta_bar_and_sigma_bar_raise_where_the_matrix_underflows(self):
        # one guard for the matrix and its sigma_bar terms: no silent 0.0 or
        # subnormal entries
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42).values
        for scale in (1e-80, 1e-90):
            with pytest.raises(ValueError, match="underflow.*rescale"):
                estimate_longrun_cov(scale * x, 1)
            with pytest.raises(ValueError, match="underflow.*rescale"):
                sigma_bar(scale * x, 0, 1, 2)
        assert estimate_longrun_cov(1e-74 * x, 1).entries[0, 1] == pytest.approx(
            1e-296 * estimate_longrun_cov(x, 1).entries[0, 1], rel=1e-9)
        assert sigma_bar(1e-74 * x, 0, 1, 2) == pytest.approx(1e-296 * sigma_bar(x, 0, 1, 2),
                                                              rel=1e-9)

    def test_smallest_normal_floor_still_works(self):
        x = simulate(ModelSpec.arma11(0.2, 0.1), 600, seed=42).values
        base = estimate_longrun_cov(x, 1)
        cov = estimate_longrun_cov(1e-74 * x, 1)
        assert cov.eps_floor >= np.finfo(np.float64).tiny
        np.testing.assert_allclose(cov.entries, 1e-296 * base.entries, rtol=1e-9)

    def test_zero_series_auto_floor_still_positive(self):
        cov = estimate_longrun_cov([0.0] * 50, 1)
        assert np.linalg.eigvalsh(cov.entries)[0] > 0.0

    def test_symmetry_is_exact(self):
        x = simulate(ModelSpec.arma11(0.3, 0.2), 400, seed=5)
        cov = estimate_longrun_cov(x, 2)
        assert np.array_equal(cov.entries, cov.entries.T)

    def test_insufficient_data_names_minimum(self):
        with pytest.raises(ValueError, match="minimum usable n"):
            estimate_longrun_cov([1.0, -1.0, 0.5], 2)

    def test_fewer_points_than_lags_names_minimum(self):
        with pytest.raises(ValueError, match=f"minimum usable n is {_min_usable_n(10, 0.3)}"):
            estimate_longrun_cov(np.ones(5), 10)

    def test_matches_sum_of_theta_bars(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(300)
        cov = estimate_longrun_cov(x, 1)
        raw = longrun_matrix_reference(x, 1)
        # raw entries survive regularization when well-conditioned
        assert np.linalg.eigvalsh(raw)[0] > cov.eps_floor
        np.testing.assert_allclose(cov.entries, raw, rtol=0, atol=1e-10)


class TestEstimatorMatchesLoopOracle:
    """The product-matrix estimator against the literal displacement loops.

    The y2 edge correction has min(lag, k - h) rows: at the minimum usable n
    (h_n = 1) lag < k - h for the wider pairs, at n = 60 (h_n = 3) lag >= k - h
    for the narrower ones, so both limits are exercised.
    """

    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    @pytest.mark.parametrize("at_minimum", [True, False])
    def test_matrix_and_theta_bar_match_loops(self, L, at_minimum):
        n = _min_usable_n(L, 0.3) if at_minimum else 60
        x = np.random.default_rng(1000 + 10 * L + n).standard_normal(n)
        raw = longrun_matrix_reference(x, L)
        tol = 1e-9 * np.abs(x).max() ** 4  # rounding scales with the summands
        # flooring every eigenvalue at the estimator's automatic floor is the
        # reference regularization; on well-conditioned input it leaves the
        # raw matrix unchanged
        cov = estimate_longrun_cov(x, L)
        w, v = np.linalg.eigh(raw)
        want = (v * np.maximum(w, cov.eps_floor)) @ v.T
        got = cov.entries
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        if w[0] > cov.eps_floor:  # the floor did not fire: the raw entries remain
            np.testing.assert_allclose(got, raw, rtol=0, atol=tol)
        # the raw sums themselves, also at the minimum n, where the floor fires
        unfloored = _longrun_terms(x, L, truncation_lag(n, 0.3))[1]
        np.testing.assert_allclose(unfloored, raw, rtol=0, atol=tol)

    def test_well_conditioned_case_is_covered(self):
        x = np.random.default_rng(1000 + 10 * 4 + 60).standard_normal(60)
        floor = estimate_longrun_cov(x, 4).eps_floor
        assert np.linalg.eigvalsh(longrun_matrix_reference(x, 4))[0] > floor


class TestBartlettLinear:
    def test_ma1_closed_form(self):
        theta, sigma = 0.5, 1.0
        gamma = [(1 + theta**2) * sigma**2, theta * sigma**2]
        got = bartlett_linear(gamma, eta=3.0, L=1).entries
        np.testing.assert_allclose(got, ma1_longrun_matrix(theta, sigma), rtol=1e-12)
        np.testing.assert_allclose(got, [[4.125, 2.5], [2.5, 2.3125]], rtol=1e-12)

    def test_white_noise(self):
        got = bartlett_linear([1.0], eta=3.0, L=1).entries
        np.testing.assert_allclose(got, [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_c00_identity_for_ma1(self):
        theta = 0.7
        g0, g1 = 1 + theta**2, theta
        got = bartlett_linear([g0, g1], eta=3.0, L=1).entries
        assert got[0, 0] == pytest.approx(2 * g0**2 + 4 * g1**2, rel=1e-12)

    def test_scales_with_fourth_power_of_noise(self):
        theta = 0.5
        base = bartlett_linear([1.25, 0.5], eta=3.0, L=1).entries
        sigma = 2.0
        gamma = [(1 + theta**2) * sigma**2, theta * sigma**2]
        scaled = bartlett_linear(gamma, eta=3.0, L=1).entries
        np.testing.assert_allclose(scaled, sigma**4 * base, rtol=1e-12)

    def test_rejects_complex_gamma(self):
        with pytest.raises(ValueError, match="gamma must be real"):
            bartlett_linear([1.25 + 1j, 0.5], eta=3.0, L=1)

    def test_non_gaussian_eta_term(self):
        # eta != 3 shifts entry (i, j) by (eta - 3) g(i) g(j)
        gamma = [2.0, 0.5]
        base = bartlett_linear(gamma, eta=3.0, L=1).entries
        bumped = bartlett_linear(gamma, eta=4.0, L=1).entries
        expected = base + np.outer(gamma, gamma)
        np.testing.assert_allclose(bumped, expected, rtol=1e-12)


class TestCovMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]), L=1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            CovMatrix(np.eye(3), L=1)

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            CovMatrix(bad, L=1)

    def test_rejects_negative_L(self):
        with pytest.raises(ValueError, match="L must be >= 0"):
            CovMatrix(np.zeros((0, 0)), L=-1)

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="covariance matrix must be real"):
            CovMatrix(np.eye(2) * (1 + 1j), L=1)
