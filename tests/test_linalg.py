"""Dense-kernel tests: the one-pass checks, least squares, standardization,
vec."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from morphkit.errors import NotFiniteError, OutOfRangeError, ShapeError, SingularMatrixError
from morphkit.linalg import (
    all_finite,
    as_matrix,
    constant_columns,
    least_squares,
    least_squares_with_fallback,
    ridge_fallback,
    standardize_columns,
    vectorize,
)
from morphkit.network import FLOAT32_MAX, _check_float32_range
from morphkit.verify import (
    check_least_squares_stationarity,
    check_standardize_roundtrip,
    check_vectorize_frobenius,
)

# finite magnitudes whose squares, or their sum, overflow float64
HUGE = st.floats(1e150, 1.7e308)
SUBNORMAL = st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True)
ORDINARY = st.floats(-1e6, 1e6)


@st.composite
def laid_out(draw, values: np.ndarray) -> np.ndarray:
    """`values` copied into a C-ordered, F-ordered or strided array."""
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout != "strided":
        return np.array(values, order=layout)
    # every other row and column of a larger zeroed array
    big = np.zeros(tuple(2 * n + 1 for n in values.shape), dtype=values.dtype)
    view = big[tuple(slice(0, 2 * n, 2) for n in values.shape)]
    view[...] = values
    return view


@st.composite
def finite_arrays(draw, elements) -> np.ndarray:
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@st.composite
def checked_arrays(draw) -> np.ndarray:
    """A 1-D or 2-D array, possibly empty, of ordinary, huge, subnormal or
    zero values, with NaN and +-inf at random positions, in any layout and
    as float64 or float32."""
    values = draw(finite_arrays(st.one_of(ORDINARY, HUGE, SUBNORMAL, st.just(0.0))))
    if values.size:
        flat = values.reshape(-1)
        bad = draw(st.lists(st.integers(0, values.size - 1), max_size=3))
        flat[bad] = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                                  min_size=len(bad), max_size=len(bad)))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # a huge value casts to inf
            values = values.astype(np.float32)
    return draw(laid_out(values))


class TestOnePassChecks:
    """`all_finite` and the float32 range rule decide from one sum of squares
    where it settles the answer; they must agree with the exact rules."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(arr=checked_arrays())
    def test_all_finite_agrees_with_isfinite(self, arr):
        assert all_finite(arr) == bool(np.isfinite(arr).all())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arr=finite_arrays(st.one_of(
        ORDINARY, HUGE, SUBNORMAL, st.floats(-1e39, 1e39),
        st.sampled_from([FLOAT32_MAX, np.nextafter(FLOAT32_MAX, np.inf),
                         np.nextafter(FLOAT32_MAX, 0.0), 3.4028235e38, 3.4028236e38,
                         2.5e38, -2.5e38, -FLOAT32_MAX, -np.nextafter(FLOAT32_MAX, np.inf)]),
    )).flatmap(laid_out))
    def test_float32_range_rule_agrees_with_exact_max(self, arr):
        beyond = arr.size > 0 and float(np.abs(arr).max()) > FLOAT32_MAX
        if beyond:
            with pytest.raises(OutOfRangeError, match="^x: an entry of magnitude"):
                _check_float32_range(arr, "x")
        else:
            _check_float32_range(arr, "x")

    def test_as_matrix_takes_no_temporary_the_size_of_its_input(self):
        # a boolean mask of this 6000x784 split would take 4.7 MB
        arr = np.random.default_rng(0).normal(size=(6000, 784))
        tracemalloc.start()
        try:
            as_matrix(arr, "split")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak / 1024:.1f} KiB"


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
