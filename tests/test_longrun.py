import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cssm
from cssm.autocov import _block_rows
from cssm.longrun import (
    CovMatrix,
    _check_usable_n,
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

from oracles import (bartlett_reference, longrun_matrix_reference, longrun_terms_reference,
                     ma1_longrun_matrix, sigma_bar_reference)


class TestTruncationLag:
    @pytest.mark.parametrize(
        "n,beta,want",
        [(1000, 0.3, 7), (500, 0.3, 6), (2, 0.3, 1), (20000, 0.3, 19)],
    )
    def test_values(self, n, beta, want):
        assert truncation_lag(n, beta) == want

    def test_beta_bounds(self):
        for bad in (0.0, 0.5, -0.1, 0.7, "0.3", np.array(0.3), 0.3j, None):
            with pytest.raises(ValueError, match="beta"):
                truncation_lag(100, bad)

    def test_least_n_at_largest_beta_gives_one(self):
        # floor(2**0.49) = 1, the least cutoff
        assert truncation_lag(2, 0.49) == 1

    def test_minimum_for_a_huge_L_is_found_at_once(self):
        # a fixed point, not a walk of about L**beta steps
        L, start = 10**15, time.perf_counter()
        n = _min_usable_n(L, 0.49)
        assert time.perf_counter() - start < 1.0
        assert truncation_lag(n, 0.49) + L < n and truncation_lag(n - 1, 0.49) + L >= n - 1

    def test_n_past_the_double_range(self):
        # n**beta is taken through log2(n); a cutoff past the double range raises
        assert truncation_lag(10**400, 0.3) == pytest.approx(1e120, rel=1e-12)
        with pytest.raises(ValueError, match=r"^n must be below 2\*\*2089.8 at beta=0.49"):
            truncation_lag(2**3000, 0.49)
        L = 10**400
        with pytest.raises(ValueError, match=f"minimum usable n is {_min_usable_n(L, 0.3)}$"):
            estimate_longrun_cov(np.ones(50), L)
        # the climb to the minimum passes n**beta's range: the refusal still names the minimum
        with pytest.raises(ValueError, match=r"minimum usable n is above 2\*\*2089.8$"):
            estimate_longrun_cov(np.ones(50), 10**700, 0.49)

    def test_usable_n_check_matches_the_minimum_search(self):
        # the direct test h_n + L < n refuses exactly the n below the searched minimum
        for beta in (1e-9, 0.01, 0.1, 0.25, 0.3, 0.4, 0.49, 0.4999999):
            lags = [truncation_lag(n, beta) for n in range(2, 601)]
            assert all(h < n for n, h in enumerate(lags, start=2))
            for L in range(21):
                n_min = _min_usable_n(L, beta)
                for n in range(2, 601):
                    try:
                        got = _check_usable_n(n, L, beta)
                    except ValueError as exc:
                        assert n < n_min, (n, L, beta, exc)
                        assert str(exc).endswith(f"minimum usable n is {n_min}")
                    else:
                        assert n >= n_min and got == (n, L, beta, lags[n - 2]), (n, L, beta)


class TestBeta:
    def test_out_of_range_rejected_by_every_entry_point(self):
        x = simulate(ModelSpec.arma11(0.2, 0.1), 300, seed=1)
        spec = ModelSpec.arma11(0.2, 0.1)
        for bad in (0.0, 0.5, -0.1, 0.7, np.array([0.3, 0.2]), None):
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


class TestBlockedSumsMatchPerLagLoop:
    """The row-blocked y1 sums against the one product per lag that they replaced.

    Up to one block of rows the kernel makes exactly the loop's calls.  Past
    it the partial sums round differently; at 3 blocks + 5 rows the last
    block is shorter than the larger lags, which skip it.  At one block of 4
    columns + 2 rows and L = 3 the last block starts inside the last L rows, so
    the lags from 2 up skip it, those of g as well as those of the y1 sums.
    """

    @pytest.mark.parametrize("L", [0, 1, 3])
    @pytest.mark.parametrize("size", ["minimum", 60, 1000, "block"])
    def test_one_block_is_bit_identical(self, L, size):
        n = {"minimum": _min_usable_n(L, 0.3), "block": _block_rows(L + 1)}.get(size, size)
        h_n = truncation_lag(n, 0.3)
        if size == "minimum":
            assert n == L + h_n + 1
        x = np.random.default_rng(n + L).standard_normal(n)
        terms, raw, _ = _longrun_terms(x, L, h_n)
        want_terms, want_raw = longrun_terms_reference(x, L, h_n)
        assert np.array_equal(terms, want_terms)
        assert np.array_equal(raw, want_raw)

    @pytest.mark.parametrize("L", [0, 1, 3])
    def test_several_blocks_agree_to_rounding(self, L):
        for n in (3 * _block_rows(L + 1) + 5, _block_rows(4) + 2):
            h_n = truncation_lag(n, 0.3)
            assert h_n > 5  # so some lags skip the last block
            x = np.random.default_rng(n + L).standard_normal(n)
            for got, want in zip(_longrun_terms(x, L, h_n), longrun_terms_reference(x, L, h_n)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestThreadCountInvariance:
    """OpenBLAS splits a dot product of over 10,000 terms across its threads, and the
    partial sums then round by thread count; the estimator's blocks stay below that."""

    SCRIPT = (
        "from cssm.longrun import estimate_longrun_cov\n"
        "from cssm.models import ModelSpec, simulate\n"
        "x = simulate(ModelSpec.garch11(0.1, 0.1, 0.8), 100000, seed=3).values\n"
        "for n in (12000, 100000):\n"
        "    for L in range(4):\n"
        "        print(n, L, estimate_longrun_cov(x[:n], L).entries.tobytes().hex())\n"
    )

    def test_estimate_does_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(cssm.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = [subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True,
                               text=True, check=True,
                               env={**os.environ, "PYTHONPATH": path,
                                    "OPENBLAS_NUM_THREADS": threads}).stdout.splitlines()
                for threads in ("1", "2")]
        assert len(outs[0]) == 8
        assert outs[0] == outs[1]


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

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("inf"), float("nan"), "3",
                                     np.array([3.0]), 3j])
    def test_rejects_eta_that_is_not_a_positive_number(self, eta):
        with pytest.raises(ValueError, match="^eta must be "):
            bartlett_linear([1.0, 0.5], eta, 1)

    def test_non_gaussian_eta_term(self):
        # eta != 3 shifts entry (i, j) by (eta - 3) g(i) g(j)
        gamma = [2.0, 0.5]
        base = bartlett_linear(gamma, eta=3.0, L=1).entries
        bumped = bartlett_linear(gamma, eta=4.0, L=1).entries
        expected = base + np.outer(gamma, gamma)
        np.testing.assert_allclose(bumped, expected, rtol=1e-12)

    def test_matches_loop_reference(self):
        # random gamma at lags 0..M, M <= 12, eta in (0, 10), L <= 8, and the M = 0, L = 0 edges
        rng = np.random.default_rng(18)
        cases = [([2.0], 3.0, 0), ([2.0], 0.5, 5), ([1.25, 0.5, -0.3], 7.0, 0)]
        for _ in range(300):
            gamma = rng.standard_normal(int(rng.integers(1, 14))) * 10.0 ** rng.uniform(-3, 3)
            cases.append((gamma, float(rng.uniform(0.0, 10.0)), int(rng.integers(0, 9))))
        for gamma, eta, L in cases:
            got = bartlett_linear(gamma, eta, L).entries
            want = bartlett_reference(gamma, eta, L)
            # entries may cancel, so rounding is judged against the largest one
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("L", [0, 1, 3])
    def test_overflow_raises_without_warnings(self, L):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                bartlett_linear([1e200, -1e200, 3e200], 3.0, L)


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
