"""Dense-kernel tests: least squares, standardization, vec."""

import numpy as np
import pytest

from morphkit.errors import NotFiniteError, ShapeError, SingularMatrixError
from morphkit.linalg import (
    constant_columns,
    least_squares,
    least_squares_with_fallback,
    ridge_fallback,
    standardize_columns,
    vectorize,
)
from morphkit.verify import (
    check_least_squares_stationarity,
    check_standardize_roundtrip,
    check_vectorize_frobenius,
)


def gauss_solve(a, b):
    """Independent linear solver: Gaussian elimination with partial pivoting."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


class TestLeastSquares:
    def test_identity_design(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, 2))
        np.testing.assert_allclose(least_squares(np.eye(4), y), y, atol=1e-12)

    def test_recovers_exact_system(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 6))
        w0 = rng.normal(size=(6, 3))
        w = least_squares(x, x @ w0)
        np.testing.assert_allclose(w, w0, atol=1e-8)

    def test_consistent_residual_small(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        y = x @ rng.normal(size=(5, 4))
        w = least_squares(x, y)
        assert np.linalg.norm(y - x @ w) <= 1e-8 * np.linalg.norm(y)

    def test_against_gaussian_elimination(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 6))
        y = rng.normal(size=(40, 3))
        expected = gauss_solve(x.T @ x, x.T @ y)
        assert np.abs(least_squares(x, y) - expected).max() <= 1e-9

    def test_stationarity(self):
        check_least_squares_stationarity(7)

    def test_singular_raises_with_hint(self):
        x = np.ones((10, 3))  # duplicate columns
        with pytest.raises(SingularMatrixError, match="ridge"):
            least_squares(x, np.ones((10, 1)))

    def test_ridge_rescues_singular(self):
        x = np.ones((10, 3))
        w = least_squares(x, np.ones((10, 1)), ridge_fallback(x))
        assert np.isfinite(w).all()

    def test_ridge_fallback_value(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 4))
        expected = 1e-8 * np.trace(x.T @ x) / 4
        np.testing.assert_allclose(ridge_fallback(x), expected, rtol=1e-12)

    def test_fallback_not_needed_matches_plain_solve(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=(30, 2))
        w, fell_back = least_squares_with_fallback(x, y)
        assert not fell_back
        assert w.tobytes() == least_squares(x, y).tobytes()

    def test_fallback_retries_once_at_the_same_ridge(self):
        x = np.ones((10, 3))
        y = np.arange(10.0)[:, None]
        w, fell_back = least_squares_with_fallback(x, y)
        assert fell_back
        assert w.tobytes() == least_squares(x, y, ridge_fallback(x)).tobytes()
        with pytest.raises(SingularMatrixError):
            least_squares(x, y)  # the plain solve still refuses at ridge 0

    def test_underdetermined_design_ridged_with_warning(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 5))
        y = rng.normal(size=(3, 2))
        with pytest.warns(RuntimeWarning, match="3 rows but 5 unknowns"):
            w, fell_back = least_squares_with_fallback(x, y)
        assert fell_back
        assert w.tobytes() == least_squares(x, y, ridge_fallback(x)).tobytes()

    def test_fallback_impossible_for_zero_design(self):
        with pytest.raises(SingularMatrixError, match="ridge"):
            least_squares_with_fallback(np.zeros((5, 2)), np.ones((5, 1)))

    def test_row_mismatch_names_counts(self):
        with pytest.raises(ShapeError, match=r"7 rows.*3"):
            least_squares(np.ones((7, 5)), np.ones((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(NotFiniteError):
            least_squares([[np.nan, 1.0]], [[1.0]])

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.eye(3), np.eye(3), ridge=-1.0)


class TestStandardize:
    def test_center_and_scale_example(self):
        out, _ = standardize_columns(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0], atol=1e-15)
        assert out[:, 0] @ out[:, 0] == pytest.approx(2.0)

    def test_random_matrix_normalization(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(20, 4)) * [1.0, 5.0, 0.1, 2.0]
        out, _ = standardize_columns(m)
        assert np.abs(out.mean(axis=0)).max() <= 1e-12
        norms = np.einsum("ij,ij->j", out, out)
        np.testing.assert_allclose(norms, 20.0, atol=1e-9)

    def test_roundtrip(self):
        check_standardize_roundtrip(10)

    def test_constant_column_flagged_not_rejected(self):
        m = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        out, info = standardize_columns(m)
        assert info.constant_mask.tolist() == [True, False]
        assert info.scales[0] == 1.0
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-15)

    def test_too_few_rows(self):
        with pytest.raises(ShapeError):
            standardize_columns(np.ones((1, 2)))

    def test_constant_rule_reads_rounded_negative_variance_as_zero(self):
        # a covariance product can round a zero variance to a tiny negative
        mask = constant_columns(np.array([3.0, 0.0, 0.0]), np.array([-1e-30, 0.0, 1e-6]))
        assert mask.tolist() == [True, True, False]


class TestVectorize:
    def test_column_stacking(self):
        np.testing.assert_array_equal(
            vectorize([[1.0, 2.0], [3.0, 4.0]]), [1.0, 3.0, 2.0, 4.0]
        )

    def test_zero_matrix(self):
        np.testing.assert_array_equal(vectorize(np.zeros((2, 3))), np.zeros(6))

    def test_frobenius_identity(self):
        check_vectorize_frobenius(11)
