"""Similarity-penalized sparse solvers for neuron selection.

Both solvers minimize a least-squares data term plus
lambda * (||beta||_1 + (alpha/2) |beta|^T R |beta|), where R is a pairwise
similarity penalty built from column correlations. The penalty discourages
keeping groups of near-duplicate neurons: as two columns approach
collinearity their R entry blows up (capped at r_cap) and one of the pair
is driven to zero. alpha = 0 recovers plain Lasso.

One coordinate-descent kernel serves both solvers. In covariance form
(glmnet's "covariance updates") the data term is const - c^T beta +
(1/2) beta^T G beta with a unit-diagonal Gram matrix G. `iilasso_diag`
solves alg1's problem, each standardized candidate scored against itself:
G = I and c = 1, so the data term is (1/2)||1 - beta||^2 and only R, built
from the candidates' covariance (`similarity_matrix`), tells them apart.
`iilasso_residual` takes G and c of a shared response reconstructed by a
weighted sum of rank-one contribution matrices, which the caller forms
from their factors without stacking them.

The sweep inlines the closed-form coordinate update, so each coordinate
costs one dot product (two in Gram form) and a few float operations. `morphkit.verify` holds
the update itself (`coordinate_update`) and a reference loop of it; its
`solver-reference` check keeps the two solvers byte-identical to that loop.

Scope. KKT conditions hold only at a `converged` stop; a `target_nnz` or
`max_itr` stop returns an iterate mid-descent that is not a stationary point
of any lambda. With beta >= 0, alg1's problem is a quadratic program that is
non-convex wherever I + lambda*alpha*R is not PSD (on the desk instance its
smallest eigenvalue is -0.069, -1.14 and -5.42 at lambda 0.05, 0.1 and 0.3),
so coordinate descent finds a stationary point that depends on the fixed
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
from .linalg import as_matrix, check_finite_fields, least_squares_with_fallback

@dataclass(frozen=True)
class SparseConfig:
    """Penalty weights and termination knobs shared by both solvers.

    lam scales the whole penalty, alpha the similarity part. A sweep loop
    stops once sweeps reach max_itr, the largest single-coefficient change
    falls below tol, or the nonzero count drops to target_nnz.
    """

    lam: float = 0.1
    alpha: float = 0.1
    max_itr: int = 1000
    target_nnz: int = 0
    tol: float = 1e-7
    r_cap: float = 1e6

    def __post_init__(self):
        check_finite_fields(self)
        if self.lam < 0 or self.alpha < 0:
            raise ValueError("lam and alpha must be nonnegative")
        if self.max_itr < 1:
            raise ValueError("max_itr must be >= 1")
        if self.target_nnz < 0:
            raise ValueError("target_nnz must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.r_cap <= 0:
            raise ValueError("r_cap must be positive")


@dataclass
class SparseSolution:
    """Solver outcome: coefficients and the per-sweep objective trace
    (index 0 is the value at the starting iterate)."""

    beta: np.ndarray
    objective_trace: np.ndarray
    sweeps_run: int
    stop_reason: str


def similarity_matrix(cov, cfg: SparseConfig) -> np.ndarray:
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
    return gram_similarity(cov * inv_sd[:, None] * inv_sd[None, :], cfg)


def gram_similarity(gram, cfg: SparseConfig) -> np.ndarray:
    """Pairwise similarity penalties R from a unit-diagonal Gram matrix.

    With r_jk = |G_jk| clipped to [0, 1], off-diagonal entries are
    r / (1 - r) capped at cfg.r_cap; the diagonal is exactly zero.
    """
    r = np.clip(np.abs(as_matrix(gram, "gram")), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        penalties = np.where(r < 1.0, r / np.maximum(1.0 - r, 1e-300), np.inf)
    penalties = np.minimum(penalties, cfg.r_cap)
    penalties = 0.5 * (penalties + penalties.T)
    np.fill_diagonal(penalties, 0.0)
    return penalties


def _penalty(beta: np.ndarray, r: np.ndarray, cfg: SparseConfig) -> float:
    ab = np.abs(beta)
    return cfg.lam * (float(ab.sum()) + 0.5 * cfg.alpha * float(ab @ r @ ab))


def _stop_reason(beta, max_delta, sweeps, cfg: SparseConfig) -> str | None:
    if int(np.count_nonzero(beta)) <= cfg.target_nnz:
        return "target_nnz"
    if max_delta < cfg.tol:
        return "converged"
    if sweeps >= cfg.max_itr:
        return "max_itr"
    return None


def _coordinate_descent(corr, gram, r, cfg: SparseConfig, beta, data) -> SparseSolution:
    """Cyclic coordinate descent on data(beta) + penalty, where data(beta) =
    const - corr.T beta + (1/2) beta.T G beta and G has a unit diagonal;
    gram=None stands for G = I.

    Each update sets beta_j = S(rho_j, lam * (1 + alpha * sum_{c != j}
    R_jc |beta_c|)) / (1 + alpha lam R_jj) with rho_j = corr_j - G_j.beta +
    beta_j (just corr_j when G = I), the exact minimizer over that
    coefficient with the others held at their current values. `data`
    evaluates the data term for the objective trace.
    """
    d = corr.shape[0]
    r = as_matrix(r, "similarity matrix")
    if r.shape != (d, d):
        raise ShapeError(f"similarity matrix is {r.shape}, expected ({d}, {d})")

    def objective(b: np.ndarray) -> float:
        return data(b) + _penalty(b, r, cfg)

    # The sweep runs on Python floats and keeps |beta| (and, with a Gram
    # matrix, the signed beta) as arrays updated in place. Each update is
    # `verify.coordinate_update` of `verify.coordinate_threshold`, inlined
    # operation for operation: the same ddot through ndarray.dot, the same
    # shrinkage with its signed zeros and NaN, and the same divisor
    # 1 + (alpha * lam) * R_jj, formed once per solve.
    lam, alpha = cfg.lam, cfg.alpha
    row_dots = [row.dot for row in r]
    r_diag = r.diagonal().tolist()
    denom = [1.0 + alpha * lam * r_jj for r_jj in r_diag]
    c = corr.tolist()
    gram_dots = None if gram is None else [row.dot for row in gram]
    signed = beta.copy()
    b = beta.tolist()
    abs_beta = np.abs(beta)
    trace = [objective(beta)]
    if not math.isfinite(trace[0]):
        raise NotFiniteError(
            f"objective is {trace[0]} at the starting iterate with lam {lam:g}, alpha "
            f"{alpha:g} and r_cap {cfg.r_cap:g}; use smaller values"
        )
    sweeps = 0
    reason = _stop_reason(beta, np.inf, sweeps, cfg)
    while reason is None:
        max_delta = 0.0
        for j in range(d):
            old = b[j]
            rho = c[j] if gram_dots is None else c[j] - float(gram_dots[j](signed)) + old
            cross = float(row_dots[j](abs_beta)) - r_diag[j] * abs(old)
            shrunk = abs(rho) - lam * (1.0 + alpha * cross)
            if shrunk <= 0.0:
                shrunk = 0.0
            new = (math.copysign(shrunk, rho) if rho != 0.0 else 0.0 * shrunk) / denom[j]
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
        reason = _stop_reason(beta, max_delta, sweeps, cfg)
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
    ones = np.ones(as_matrix(r, "similarity matrix").shape[0])

    def data(b: np.ndarray) -> float:
        resid = 1.0 - b
        return 0.5 * float(resid @ resid)

    return _coordinate_descent(ones, None, r, cfg, ones, data)


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
    if not np.isfinite(corr).all():
        raise NotFiniteError("corr contains non-finite entries")
    off = np.abs(gram.diagonal() - 1.0)
    if off.size and off.max() > 1e-6:  # a unit diagonal up to rounding
        j = int(off.argmax())
        raise StandardizationError(f"contribution {j} has squared norm {gram[j, j]:.6g}, "
                                   f"expected 1; rescale to unit stacked norm before solving")

    def data(b: np.ndarray) -> float:
        return 0.5 * float(b @ gram @ b) - float(corr @ b)

    return _coordinate_descent(corr, gram, r, cfg, np.ones(corr.shape[0]), data)


def refit_w1(a1, o_new, beta) -> tuple[np.ndarray, bool]:
    """Refit the inserted-layer weights holding the coefficients fixed.

    Solves min_W ||o_new - a1 W diag(beta)||_F^2 columnwise: active columns
    get (1/beta_j) times the least-squares fit of o_new_j on a1; columns
    with beta_j == 0 are returned as zeros. An underdetermined or
    rank-deficient a1 falls back to a small automatic ridge. Returns
    (w, fell_back).
    """
    a1 = as_matrix(a1, "a1")
    o_new = as_matrix(o_new, "o_new")
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1 or beta.shape[0] != o_new.shape[1]:
        raise ShapeError(
            f"beta has shape {beta.shape}, expected ({o_new.shape[1]},)"
        )
    if not np.isfinite(beta).all():
        raise NotFiniteError("beta contains non-finite entries")
    w_ls, fell_back = least_squares_with_fallback(a1, o_new)
    w = np.zeros_like(w_ls)
    active = beta != 0
    w[:, active] = w_ls[:, active] / beta[active]
    return w, fell_back
