import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdp_ifs.preprocess import PreprocessConfig, log_filter, preprocess_matrix, zscore


class TestLogFilter:
    def test_hand_values(self):
        matrix = np.array([[0.0, math.e - 1.0], [math.e**2 - 1.0, 0.0]])
        out = log_filter(matrix)
        assert np.allclose(out, [[0.0, 1.0], [2.0, 0.0]], atol=1e-12)

    def test_zero_maps_to_zero(self):
        assert log_filter(np.array([[0.0]]))[0, 0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="log filter undefined for negative values"):
            log_filter(np.array([[1.0, -0.5]]))

    def test_input_not_mutated(self):
        matrix = np.array([[1.0, 2.0]])
        log_filter(matrix)
        assert np.array_equal(matrix, [[1.0, 2.0]])


class TestZscore:
    def test_hand_column(self):
        out = zscore(np.array([[1.0], [2.0], [3.0]]))
        assert isinstance(out, np.ndarray)
        assert np.allclose(out.ravel(), [-1.0, 0.0, 1.0], atol=1e-12)

    def test_constant_column_becomes_zero(self):
        out = zscore(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]]))
        assert np.array_equal(out[:, 0], np.zeros(4))

    def test_inexact_constant_column(self):
        # 0.1 is not exactly representable; the mean can differ from the
        # values in the last bit, which must still count as constant.
        out = zscore(np.array([[0.1], [0.1], [0.1]]))
        assert np.array_equal(out.ravel(), np.zeros(3))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="insufficient rows for normalization"):
            zscore(np.array([[1.0, 2.0]]))

    def test_standardized_input_unchanged(self):
        column = np.array([[-1.0], [0.0], [1.0]])
        out = zscore(column)
        assert np.allclose(out, column, atol=1e-12)

    # Integer-valued entries keep column spreads either exactly zero or at
    # least 1, so the assertions are not defeated by cancellation noise.
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 5)),
            elements=st.integers(-10**6, 10**6).map(float),
        )
    )
    def test_output_is_standardized(self, matrix):
        out = zscore(matrix)
        for j in range(matrix.shape[1]):
            column = out[:, j]
            if matrix[:, j].max() == matrix[:, j].min():
                assert np.array_equal(column, np.zeros_like(column))
            else:
                assert abs(column.mean()) < 1e-6
                assert abs(column.std(ddof=1) - 1.0) < 1e-6

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 10), st.integers(1, 4)),
               elements=st.integers(-1000, 1000).map(float)),
        st.floats(0.1, 50.0),
        st.floats(-100.0, 100.0),
    )
    def test_affine_invariance(self, matrix, scale, offset):
        base = zscore(matrix)
        shifted = zscore(scale * matrix + offset)
        assert np.allclose(base, shifted, atol=1e-8)

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(40, 6))
        once = zscore(matrix)
        twice = zscore(once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_roundtrip_recovers_input(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(3.0, 2.5, size=(25, 3))
        out = zscore(matrix)
        restored = out * matrix.std(axis=0, ddof=1) + matrix.mean(axis=0)
        assert np.allclose(restored, matrix, atol=1e-9)


class TestPreprocessMatrix:
    def test_defaults_normalize_only(self):
        matrix = np.array([[1.0], [2.0], [3.0]])
        out = preprocess_matrix(matrix, PreprocessConfig())
        assert isinstance(out, np.ndarray)
        assert np.allclose(out.ravel(), [-1.0, 0.0, 1.0])

    def test_log_then_normalize(self):
        matrix = np.array([[0.0], [math.e - 1.0], [math.e**2 - 1.0]])
        out = preprocess_matrix(matrix, PreprocessConfig(log_filter=True, normalize=True))
        expected = zscore(np.array([[0.0], [1.0], [2.0]]))
        assert np.allclose(out, expected, atol=1e-12)

    def test_disabled_normalization_returns_copy(self):
        matrix = np.array([[1.0, 2.0]])
        out = preprocess_matrix(matrix, PreprocessConfig(normalize=False))
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, matrix)
        out[0, 0] = 99.0
        assert matrix[0, 0] == 1.0

    def test_log_filter_default_off(self):
        assert PreprocessConfig().log_filter is False
        assert PreprocessConfig().normalize is True
