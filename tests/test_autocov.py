import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cssm.autocov import TimeSeries, _check_count, as_timeseries, prefix_autocovs
from cssm.cusum import cssm_test
from cssm.longrun import CovMatrix, bartlett_linear

from oracles import autocov_reference

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
            for call in (TimeSeries, as_timeseries, lambda v: prefix_autocovs(v, 1),
                         lambda v: cssm_test(v, 1, critical_value=2.408)):
                with pytest.raises(ValueError, match="series must be real"):
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


def full_sample_autocov(xs, h: int) -> float:
    """gamma_hat_n(h) of the whole series: the last row of its prefix autocovariances."""
    return prefix_autocovs(xs, h)[-1, h]


class TestSampleAutocov:
    def test_alternating_lag0(self):
        assert full_sample_autocov([1, -1, 1, -1], 0) == 1.0
        assert full_sample_autocov([2, 0, 2, 0], 0) == 2.0

    def test_alternating_lag1(self):
        assert full_sample_autocov([1, -1, 1, -1], 1) == -0.75

    def test_zero_series(self):
        assert full_sample_autocov([0, 0, 0, 0, 0], 2) == 0.0

    @given(series_lists, st.integers(min_value=0, max_value=10))
    def test_matches_direct_summation(self, xs, h):
        if h >= len(xs):
            h = len(xs) - 1
        got = full_sample_autocov(xs, h)
        want = autocov_reference(xs, h)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestAutocovProperties:
    @given(series_lists)
    def test_lag0_nonnegative(self, xs):
        assert full_sample_autocov(xs, 0) >= 0.0

    @given(
        series_lists,
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.integers(min_value=0, max_value=5),
    )
    @example(xs=[1.0, 1.0, -1.0], c=1.168825304769058, h=1)  # lag-1 sum cancels to 0
    @settings(max_examples=50)
    def test_scale_equivariance(self, xs, c, h):
        if h >= len(xs):
            h = len(xs) - 1
        base = full_sample_autocov(xs, h)
        scaled = full_sample_autocov([c * v for v in xs], h)
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

    def test_every_prefix_matches_direct(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        out = prefix_autocovs(x, 3)
        for j, row in enumerate(out):
            direct = [autocov_reference(x[: 4 + j], h) for h in range(4)]
            np.testing.assert_allclose(row, direct, atol=1e-12, rtol=0)
