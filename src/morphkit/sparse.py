"""Similarity-penalized sparse solvers for neuron selection.

Both solvers minimize a least-squares data term plus
lambda * (||beta||_1 + (alpha/2) |beta|^T R |beta|), where R is a pairwise
similarity penalty built from column correlations. The penalty discourages
keeping groups of near-duplicate neurons: as two columns approach
collinearity their R entry blows up and one of the pair is driven to
zero. alpha = 0 recovers plain Lasso.

One coordinate-descent kernel serves both solvers. In covariance form
(glmnet's "covariance updates") the data term is const - c^T beta +
(1/2) beta^T G beta with a unit-diagonal Gram matrix G. `iilasso_diag`
solves alg1's problem, each standardized candidate scored against itself:
G = I and c = 1, so the data term is (1/2)||1 - beta||^2 and only R, built
from the candidates' covariance (`similarity_matrix`), tells them apart.
`iilasso_residual` takes G and c of a shared response reconstructed by a
weighted sum of rank-one contribution matrices, which the caller forms
from their factors without stacking them.

R is defined off the diagonal only, so its diagonal is zero, and every
solve refuses any other R. The closed-form update of beta_j is then the
soft threshold S(c_j - G_j.beta + beta_j, lam * (1 + alpha * R_j.|beta|)),
which the sweep inlines: one dot product (two in Gram form) and a few float
operations. `morphkit.verify` holds the update itself (`coordinate_update`)
and a reference loop of it; its `solver-reference` check keeps the two
solvers byte-identical to that loop.

Scope. A solve stops as `converged` (no coefficient moved by tol in the
last sweep) or `max_itr` (the sweep budget ran out), as glmnet's does. KKT
holds at every `converged` stop; only a `max_itr` stop is mid-descent. With
beta >= 0, alg1's problem is a quadratic program that is non-convex
wherever I + lambda*alpha*R is not PSD (on the desk instance its smallest
eigenvalue is -0.069, -1.14 and -5.42 at lambda 0.05, 0.1 and 0.3), so
coordinate descent finds a stationary point that depends on the fixed
cyclic order j = 0..D-1 of every sweep. That order is part of the
bit-identity claim; another order gives a different, equally valid
stationary point. A non-finite objective at the start raises before the
first sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotFiniteError, ShapeError, StandardizationError
from .linalg import all_finite, as_matrix, check_finite_fields, least_squares_with_fallback

# Cap of every similarity penalty. r / (1 - r) is unbounded as r -> 1; the
# cap only keeps an exact duplicate pair (r = 1) finite, it is no setting.
R_CAP = 1e6


@dataclass(frozen=True)
class SparseConfig:
    """Penalty weights and termination knobs shared by both solvers.

    lam scales the whole penalty, alpha the similarity part. A sweep loop
    stops once the largest single-coefficient change of a sweep falls below
    tol, or once sweeps reach max_itr.
    """

    lam: float = 0.1
    alpha: float = 0.1
    max_itr: int = 1000
    tol: float = 1e-7

    def __post_init__(self):
        check_finite_fields(self)
        if self.lam < 0 or self.alpha < 0:
            raise ValueError("lam and alpha must be nonnegative")
        if self.max_itr < 1:
            raise ValueError("max_itr must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class SparseSolution:
    """Solver outcome: coefficients and the per-sweep objective trace
    (index 0 is the value at the starting iterate)."""

    beta: np.ndarray
    objective_trace: np.ndarray
    sweeps_run: int
    stop_reason: str


def similarity_matrix(cov) -> np.ndarray:
    """Pairwise similarity penalties R from the covariance of the columns.

    The covariance is normalized by its diagonal into correlations, and R
    is `gram_similarity` of those. Every variance must be positive.
    """
    cov = as_matrix(cov, "covariance")
    if cov.shape[0] != cov.shape[1]:
        raise ShapeError(f"covariance is {cov.shape}; expected a square matrix")
    var = cov.diagonal()
    bad = np.flatnonzero(var <= 0)
    if bad.size:
        raise StandardizationError(f"column {bad[0]} has variance {var[bad[0]]:.6g}; drop "
                                   f"constant columns before building the similarity matrix")
    inv_sd = 1.0 / np.sqrt(var)
    return gram_similarity(cov * inv_sd[:, None] * inv_sd[None, :])


def gram_similarity(gram) -> np.ndarray:
    """Pairwise similarity penalties R from a unit-diagonal Gram matrix.

    With r_jk = |G_jk| clipped to [0, 1], off-diagonal entries are
    r / (1 - r) capped at R_CAP; the diagonal is exactly zero.
    """
    r = np.clip(np.abs(as_matrix(gram, "gram")), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        penalties = np.where(r < 1.0, r / np.maximum(1.0 - r, 1e-300), np.inf)
    penalties = np.minimum(penalties, R_CAP)
    penalties = 0.5 * (penalties + penalties.T)
    np.fill_diagonal(penalties, 0.0)
    return penalties


def _penalty(beta: np.ndarray, r: np.ndarray, cfg: SparseConfig) -> float:
    ab = np.abs(beta)
    return cfg.lam * (float(ab.sum()) + 0.5 * cfg.alpha * float(ab @ r @ ab))


def _stop_reason(max_delta, sweeps, cfg: SparseConfig) -> str | None:
    if max_delta < cfg.tol:
        return "converged"
    if sweeps >= cfg.max_itr:
        return "max_itr"
    return None


def _coordinate_descent(corr, gram, r, cfg: SparseConfig) -> SparseSolution:
    """Cyclic coordinate descent from beta = 1 on data(beta) + penalty, where
    data(beta) = const - corr.T beta + (1/2) beta.T G beta and G has a unit
    diagonal; gram=None stands for G = I, traced as (1/2)||corr - beta||^2.

    Each update sets beta_j = S(rho_j, lam * (1 + alpha * R_j.|beta|)) with
    rho_j = corr_j - G_j.beta + beta_j (just corr_j when G = I), the exact
    minimizer over that coefficient with the others held at their current
    values. With R's diagonal zero, R_j.|beta| sums over the others only.
    """
    d = corr.shape[0]
    r = as_matrix(r, "similarity matrix")
    if r.shape != (d, d):
        raise ShapeError(f"similarity matrix is {r.shape}, expected ({d}, {d})")
    nonzero = np.flatnonzero(r.diagonal())
    if nonzero.size:
        j = int(nonzero[0])
        raise StandardizationError(f"similarity matrix has R[{j}, {j}] = {r[j, j]:.6g}; its "
                                   f"diagonal must be zero, as gram_similarity builds it")

    def objective(b: np.ndarray) -> float:
        if gram is None:
            return 0.5 * float((corr - b) @ (corr - b)) + _penalty(b, r, cfg)
        return 0.5 * float(b @ gram @ b) - float(corr @ b) + _penalty(b, r, cfg)

    # The sweep runs on Python floats and keeps |beta| (and, with a Gram
    # matrix, the signed beta) as arrays updated in place. Each update is
    # `verify.coordinate_update` of `verify.coordinate_threshold`, inlined
    # operation for operation: the same ddot through ndarray.dot and the
    # same shrinkage with its signed zeros and NaN.
    lam, alpha = cfg.lam, cfg.alpha
    row_dots = [row.dot for row in r]
    c = corr.tolist()
    gram_dots = None if gram is None else [row.dot for row in gram]
    beta = np.ones(d)
    signed = beta.copy()
    b = beta.tolist()
    abs_beta = beta.copy()
    trace = [objective(beta)]
    if not math.isfinite(trace[0]):
        raise NotFiniteError(
            f"objective is {trace[0]} at the starting iterate with lam {lam:g} and "
            f"alpha {alpha:g}; use smaller values"
        )
    sweeps = 0
    reason = None
    while reason is None:
        max_delta = 0.0
        for j in range(d):
            old = b[j]
            rho = c[j] if gram_dots is None else c[j] - float(gram_dots[j](signed)) + old
            shrunk = abs(rho) - lam * (1.0 + alpha * float(row_dots[j](abs_beta)))
            if shrunk <= 0.0:
                shrunk = 0.0
            new = math.copysign(shrunk, rho) if rho != 0.0 else 0.0 * shrunk
            delta = abs(new - old)
            if delta > max_delta:  # max(max_delta, delta), NaN included
                max_delta = delta
            b[j] = new
            abs_beta[j] = abs(new)
            if gram_dots is not None:
                signed[j] = new
        sweeps += 1
        beta = np.array(b)
        obj = objective(beta)
        if not np.isfinite(obj):
            raise NotFiniteError(
                f"objective became non-finite at sweep {sweeps}; trace so far: {trace}"
            )
        trace.append(obj)
        reason = _stop_reason(max_delta, sweeps, cfg)
    return SparseSolution(
        beta=beta,
        objective_trace=np.asarray(trace),
        sweeps_run=sweeps,
        stop_reason=reason,
    )


def iilasso_diag(r, cfg: SparseConfig) -> SparseSolution:
    """Coordinate descent from beta = 1 on alg1's penalty-only problem
    (1/2)||1 - beta||^2 + lam * (||beta||_1 + (alpha/2) |beta|^T R |beta|),
    where corr_j = 1 and G = I. The trace is the exact objective."""
    d = np.shape(r)[0] if np.ndim(r) else 0  # the kernel refuses a 0-d r as not 2-D
    return _coordinate_descent(np.ones(d), None, r, cfg)


def iilasso_residual(gram, corr, r, cfg: SparseConfig) -> SparseSolution:
    """Coordinate descent on the shared-response objective in Gram form.

    For stacked contributions z_i = vec(t_i), each scaled to squared norm
    M = N*q, and the (N, q) response y centered by the caller, the caller
    passes gram = Z.T Z / M (unit diagonal) and corr = Z.T vec(y) / M; the
    model is y ~ sum_i beta_i t_i. The objective trace leaves out the
    constant ||y||^2 / 2M of (1/2M) ||vec(y) - Z beta||^2, so it is that
    objective minus a constant; its differences are the same.
    """
    gram = as_matrix(gram, "gram")
    corr = np.asarray(corr, dtype=np.float64)
    if corr.ndim != 1 or gram.shape != (corr.shape[0], corr.shape[0]):
        raise ShapeError(
            f"gram is {gram.shape} and corr is {corr.shape}; expected (D, D) and (D,)"
        )
    if not all_finite(corr):
        raise NotFiniteError("corr contains non-finite entries")
    off = np.abs(gram.diagonal() - 1.0)
    if off.size and off.max() > 1e-6:  # a unit diagonal up to rounding
        j = int(off.argmax())
        raise StandardizationError(f"contribution {j} has squared norm {gram[j, j]:.6g}, "
                                   f"expected 1; rescale to unit stacked norm before solving")
    return _coordinate_descent(corr, gram, r, cfg)


def refit_w1(a1, o_new, beta) -> tuple[np.ndarray, bool]:
    """Refit the inserted-layer weights holding the coefficients fixed.

    Solves min_W ||o_new - a1 W diag(beta)||_F^2 columnwise: active columns
    get (1/beta_j) times the least-squares fit of o_new_j on a1; columns
    with beta_j == 0 are returned as zeros. An underdetermined or
    rank-deficient a1 falls back to a small automatic ridge. Returns
    (w, fell_back). The fit checks a1 and o_new, once each; beta is checked
    against the fit's width.
    """
    w_ls, fell_back = least_squares_with_fallback(a1, o_new, ("a1", "o_new"))
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1 or beta.shape[0] != w_ls.shape[1]:
        raise ShapeError(
            f"beta has shape {beta.shape}, expected ({w_ls.shape[1]},)"
        )
    if not all_finite(beta):
        raise NotFiniteError("beta contains non-finite entries")
    w = np.zeros_like(w_ls)
    active = beta != 0
    w[:, active] = w_ls[:, active] / beta[active]
    return w, fell_back
