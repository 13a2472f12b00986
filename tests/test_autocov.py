import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cssm.autocov import (TimeSeries, _check_count, _check_real, as_timeseries,
                           prefix_autocovs)
from cssm.critval import sup_quantile
from cssm.cusum import cssm_test
from cssm.longrun import CovMatrix, bartlett_linear

from oracles import autocov_reference, prefix_autocovs_reference

series_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.array(3)])
    def test_integers_pass_as_int(self, value):
        got = _check_count("n", value, 3)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [2.0, 1.5, np.float64(2), "2", None, [2]])
    def test_non_integers_fail_naming_the_argument(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            _check_count("n", value)

    def test_below_low_fails_naming_the_argument(self):
        with pytest.raises(ValueError, match=r"^replications must be >= 1, got 0$"):
            _check_count("replications", 0, 1)
        with pytest.raises(ValueError, match=r"^L must be >= 0, got -1$"):
            _check_count("L", np.int32(-1))


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.25, 1, np.float32(0.25), np.float64(0.25), np.int8(1),
                                       True])
    def test_reals_pass_as_float(self, value):
        got = _check_real("x", value, 0.0, 2.0)
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize("value", ["0.3", None, 0.3j, np.complex128(0.3), np.array(0.3),
                                       np.array([0.3]), [0.3], (0.3,)])
    def test_non_reals_fail_naming_the_argument(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^beta must be a real number, got "):
                _check_real("beta", value, 0.0, 0.5)

    @pytest.mark.parametrize("low, high, closed, value, message", [
        (0.0, 1.0, False, 0.0, "alpha must be finite and in (0, 1), got 0.0"),
        (0.0, 1.0, False, 1.0, "alpha must be finite and in (0, 1), got 1.0"),
        (0.0, 1.0, False, np.float64("nan"), "alpha must be finite and in (0, 1), got nan"),
        (0.0, 1.0, True, -0.5, "alpha must be finite and in [0, 1), got -0.5"),
        (0.0, np.inf, False, 0, "alpha must be finite and positive (alpha > 0), got 0"),
        (0.0, np.inf, True, -1e-300,
         "alpha must be finite and nonnegative (alpha >= 0), got -1e-300"),
        (0.0, np.inf, True, np.inf, "alpha must be finite and nonnegative (alpha >= 0), got inf"),
        (-np.inf, np.inf, False, -np.inf, "alpha must be finite, got -inf"),
        (-np.inf, np.inf, False, 10 ** 400, "alpha must be finite, got 1" + "0" * 400),
    ])
    def test_out_of_range_fails_naming_the_argument(self, low, high, closed, value, message):
        with pytest.raises(ValueError) as info:
            _check_real("alpha", value, low, high, closed)
        assert str(info.value) == message

    def test_bounds(self):
        assert _check_real("c", 0.0, 0.0, closed=True) == 0.0
        assert _check_real("c", 1e308, 0.0, closed=True) == 1e308
        assert _check_real("phi", -0.999, -1.0, 1.0) == -0.999
        assert _check_real("theta", -1e308) == -1e308


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeSeries([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries(np.zeros((2, 2)))
        # a matrix of lags or of suprema is refused, not flattened; a scalar is one value
        with pytest.raises(ValueError, match=r"gamma must be a scalar or one-dimensional, "
                                             r"got shape \(2, 2\)"):
            bartlett_linear(np.eye(2), 3.0, 1)
        with pytest.raises(ValueError, match=r"suprema must be a scalar or one-dimensional, "
                                             r"got shape \(3, 3\)"):
            sup_quantile(np.arange(9.0).reshape(3, 3), 0.05)
        assert bartlett_linear(1.0, 3.0, 1).entries.tolist() == [[2.0, 0.0], [0.0, 1.0]]
        assert sup_quantile(2.5, 0.05) == 2.5

    def test_rejects_unconvertible_input(self):
        # numpy's own error would not name the argument
        for bad in (["a"], [[1.0, 2.0], [3.0]]):
            with pytest.raises(ValueError, match="series must be real: "):
                TimeSeries(bad)

    def test_values_are_immutable(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_input_copy_is_taken(self):
        raw = np.array([1.0, 2.0])
        ts = TimeSeries(raw)
        raw[0] = 99.0
        assert ts.values[0] == 1.0

    def test_as_timeseries_passthrough(self):
        ts = TimeSeries([1.0])
        assert as_timeseries(ts) is ts

    def test_rejects_complex_without_warning(self):
        # converting would drop the imaginary part behind a ComplexWarning
        x = np.random.default_rng(3).standard_normal(300) + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, what in ((TimeSeries, "series"), (as_timeseries, "series"),
                               (lambda v: prefix_autocovs(v, 1), "series"),
                               (lambda v: cssm_test(v, 1, critical_value=2.408), "series"),
                               (lambda v: sup_quantile(v, 0.05), "suprema"),
                               (lambda v: bartlett_linear(v, 3.0, 1), "gamma"),
                               (lambda v: CovMatrix(np.diag(v[:2]), 1), "covariance matrix")):
                with pytest.raises(ValueError, match=f"{what} must be real"):
                    call(x)
            with pytest.raises(ValueError, match="series must be real"):
                TimeSeries([1.0, 2j])

    def test_rejects_complex_in_object_array(self):
        # np.iscomplexobj sees only the object dtype, not the complex element
        x = np.array([1, 2j], dtype=object)
        for call in (TimeSeries, lambda v: CovMatrix(np.diag(v), L=1),
                     lambda v: bartlett_linear(v, 3.0, 1)):
            with pytest.raises(ValueError, match="must be real"):
                call(x)


def full_sample_autocov(xs, h: int) -> float | None:
    """gamma_hat_n(h) of the whole series: the last row of its prefix autocovariances.

    None for a nonzero series whose gamma_hat_n(0) is below the normal double
    range (values up to about 1e-154), after checking that it, and only it,
    raises the rescale error.
    """
    underflows = any(xs) and autocov_reference(xs, 0) < np.finfo(np.float64).tiny
    try:
        got = prefix_autocovs(xs, h)[-1, h]
    except ValueError as exc:
        assert underflows and "underflow double precision; rescale" in str(exc)
        return None
    assert not underflows, "an underflowing series must raise, not return"
    return got


class TestSampleAutocov:
    def test_alternating_lag0(self):
        assert full_sample_autocov([1, -1, 1, -1], 0) == 1.0
        assert full_sample_autocov([2, 0, 2, 0], 0) == 2.0

    def test_alternating_lag1(self):
        assert full_sample_autocov([1, -1, 1, -1], 1) == -0.75

    def test_zero_series(self):
        assert full_sample_autocov([0, 0, 0, 0, 0], 2) == 0.0

    @given(series_lists, st.integers(min_value=0, max_value=10))
    @example(xs=[5e-324, 1e-200], h=1)  # gamma_hat(0) underflows to 0
    def test_matches_direct_summation(self, xs, h):
        if h >= len(xs):
            h = len(xs) - 1
        got = full_sample_autocov(xs, h)
        if got is None:
            return
        want = autocov_reference(xs, h)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestAutocovProperties:
    @given(series_lists)
    @example(xs=[1e-160, -3e-170])  # gamma_hat(0) is subnormal
    def test_lag0_nonnegative(self, xs):
        got = full_sample_autocov(xs, 0)
        assert got is None or got >= 0.0

    @given(
        series_lists,
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.integers(min_value=0, max_value=5),
    )
    @example(xs=[1.0, 1.0, -1.0], c=1.168825304769058, h=1)  # lag-1 sum cancels to 0
    @example(xs=[1e-152, 0.0], c=1e-3, h=0)  # only the scaled series underflows
    @settings(max_examples=50)
    def test_scale_equivariance(self, xs, c, h):
        if h >= len(xs):
            h = len(xs) - 1
        base = full_sample_autocov(xs, h)
        scaled = full_sample_autocov([c * v for v in xs], h)
        if base is None or scaled is None:
            return
        # A floating-point sum of products is accurate relative to sum |x_i x_{i+h}|,
        # not to a sum that cancels (Higham 2002, Accuracy and Stability of
        # Numerical Algorithms, sec. 3.1); with products of one sign the two agree.
        magnitude = sum(abs(a * b) for a, b in zip(xs, xs[h:])) / len(xs)
        assert abs(scaled - c * c * base) <= max(1e-12 * c * c * magnitude, 1e-300)


class TestPrefixAutocovs:
    def test_alternating_lag0_prefixes(self):
        out = prefix_autocovs([1, -1, 1, -1], 0)
        assert out.shape == (4, 1)
        for row in out:
            assert row[0] == 1.0

    def test_two_point_series(self):
        out = prefix_autocovs([1, 2], 1)
        assert len(out) == 1
        assert out[0] == pytest.approx([2.5, 1.0])

    def test_requires_L_below_n(self):
        with pytest.raises(ValueError, match="L"):
            prefix_autocovs([1.0, 2.0], 2)

    def test_last_element_is_full_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(6, 200))
            L = int(rng.integers(0, min(6, n - 1)))
            x = rng.standard_normal(n)
            out = prefix_autocovs(x, L)
            assert len(out) == n - L
            direct = [autocov_reference(x, h) for h in range(L + 1)]
            np.testing.assert_allclose(out[-1], direct, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("L", [0, 1, 3])
    @pytest.mark.parametrize("n", [4, 60, 1000, 100_000])
    def test_one_cumsum_matches_one_cumsum_per_lag(self, L, n):
        x = np.random.default_rng(n + L).standard_normal(n)
        want = prefix_autocovs_reference(x, L)
        assert np.array_equal(prefix_autocovs(x, L), want)
        stack = np.stack([x, -2.0 * x, np.zeros(n)])
        got = prefix_autocovs(stack, L)
        assert got.shape == (3, n - L, L + 1) and not got.flags.writeable
        for row, got_row in zip(stack, got):
            assert np.array_equal(got_row, prefix_autocovs_reference(row, L))

    def test_every_prefix_matches_direct(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        out = prefix_autocovs(x, 3)
        for j, row in enumerate(out):
            direct = [autocov_reference(x[: 4 + j], h) for h in range(4)]
            np.testing.assert_allclose(row, direct, atol=1e-12, rtol=0)
