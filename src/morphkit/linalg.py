"""Dense matrix kernel: normal-equation least squares, the constant-column
rule, column standardization, and column-stacking vectorization.

Matrices are plain 2-D float64 numpy arrays, validated at API boundaries:
every operation checks that its inputs and outputs are finite. All
functions are pure; arrays are never modified in place.

The normal equations are solved with numpy alone. A Cholesky factorization
of the Gram matrix is the positive-definiteness test that decides whether a
fit needs the ridge fallback: it fails exactly when the matrix is not
numerically positive definite. The solve itself is one LU solve of the Gram
matrix. numpy has no triangular solve, and two general solves on the
Cholesky factor and its transpose are slower than one on the Gram matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotFiniteError, ShapeError, SingularMatrixError

# Columns whose centered standard deviation falls below this (relative to
# the column mean magnitude) are flagged constant rather than rescaled.
CONSTANT_COLUMN_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate `a` as a finite 2-D float64 array and return it."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NotFiniteError(f"{name}: contains non-finite entries")
    return arr


def ensure_finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NotFiniteError(f"{name}: produced non-finite entries")
    return arr


def check_finite_fields(config) -> None:
    """Raise ValueError naming the first float field of a config dataclass
    that is NaN or infinite; comparisons such as `x < 0` let both through."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _checked_design(x, y, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(
            f"design has {x.shape[0]} rows but response has {y.shape[0]}"
        )
    if x.shape[0] < 1:
        raise ShapeError("least_squares requires at least one row")
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    return x, y


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray | None:
    """Solve (gram + ridge*I) w = rhs; None when the matrix is not positive
    definite."""
    if ridge > 0:
        gram = gram + ridge * np.eye(gram.shape[0])
    try:
        np.linalg.cholesky(gram)  # the positive-definiteness test; the factor is unused
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    return ensure_finite(w, "least_squares solution")


def _singular(x: np.ndarray, ridge: float) -> SingularMatrixError:
    return SingularMatrixError(
        f"normal equations for a {x.shape[0]}x{x.shape[1]} design are "
        f"singular at ridge {ridge:.3e}; retry with a larger ridge "
        f"(ridge_fallback(x) suggests {ridge_fallback(x):.3e})"
    )


def least_squares(x, y, ridge: float = 0.0) -> np.ndarray:
    """Solve argmin_W ||y - xW||_F^2 + ridge*||W||_F^2 via normal equations.

    Solves with x.T x + ridge*I once a Cholesky factorization has shown it
    positive definite. With ridge == 0 a rank-deficient system raises
    SingularMatrixError; callers can retry with `ridge_fallback(x)`, or
    call `least_squares_with_fallback`.
    """
    x, y = _checked_design(x, y, ridge)
    w = _cholesky_solve(x.T @ x, x.T @ y, ridge)
    if w is None:
        raise _singular(x, ridge)
    return w


def least_squares_with_fallback(x, y, ridge: float = 0.0) -> tuple[np.ndarray, bool]:
    """`least_squares` that falls back to ridge + ridge_fallback(x), reusing
    the Gram matrix and right-hand side. A design with fewer rows than
    columns is underdetermined: it goes straight to the fallback with a
    RuntimeWarning. Any other design falls back only when its system is
    singular.

    Returns (w, fell_back). Raises SingularMatrixError if the fallback
    fails too, as it does for an all-zero x, whose fallback ridge is 0.
    """
    x, y = _checked_design(x, y, ridge)
    gram = x.T @ x
    rhs = x.T @ y
    underdetermined = x.shape[0] < x.shape[1]
    if underdetermined:
        warnings.warn(f"a least-squares design has {x.shape[0]} rows but {x.shape[1]} "
                      f"unknowns; applying an automatic ridge", RuntimeWarning, stacklevel=2)
    w = None if underdetermined else _cholesky_solve(gram, rhs, ridge)
    if w is not None:
        return w, False
    ridge += ridge_fallback(x)
    w = _cholesky_solve(gram, rhs, ridge)
    if w is None:
        raise _singular(x, ridge)
    return w, True


def ridge_fallback(x) -> float:
    """Default ridge for a rank-deficient design: 1e-8 * trace(x.T x) / cols."""
    x = as_matrix(x, "x")
    return 1e-8 * float(np.einsum("ij,ij->", x, x)) / x.shape[1]


def constant_columns(means, variances) -> np.ndarray:
    """Mask of the columns whose standard deviation is at most
    CONSTANT_COLUMN_TOL * max(1, |mean|); rounded negative variances count as 0."""
    spread = np.sqrt(np.maximum(np.asarray(variances, dtype=np.float64), 0.0))
    return spread <= CONSTANT_COLUMN_TOL * np.maximum(1.0, np.abs(means))


@dataclass(frozen=True)
class StandardizeInfo:
    """Per-column centering/scaling parameters and constant-column flags.

    Scales are strictly positive; flagged constant columns keep scale 1 so
    the transform stays invertible and the caller decides their fate.
    """

    means: np.ndarray
    scales: np.ndarray
    constant_mask: np.ndarray


def standardize_columns(m) -> tuple[np.ndarray, StandardizeInfo]:
    """Center each column and rescale it so that col.T col equals the row
    count; invert with out * info.scales + info.means. Zero-variance columns
    are flagged in the returned info and left at scale 1 rather than
    rejected.
    """
    m = as_matrix(m, "m")
    n = m.shape[0]
    if n < 2:
        raise ShapeError(f"standardize_columns requires >= 2 rows, got {n}")
    means = m.mean(axis=0)
    centered = m - means
    # col.T col / n after centering; sqrt gives the scale that maps to col.T col == n
    meansq = np.einsum("ij,ij->j", centered, centered) / n
    constant = constant_columns(means, meansq)
    scales = np.where(constant, 1.0, np.sqrt(np.where(constant, 1.0, meansq)))
    return centered / scales, StandardizeInfo(means=means, scales=scales, constant_mask=constant)


def vectorize(m) -> np.ndarray:
    """Column-stacking vectorization: stacks columns top to bottom."""
    m = as_matrix(m, "m")
    return m.flatten(order="F")
