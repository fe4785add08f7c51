"""Function-preserving layer insertion with compact width selection.

`morph` inserts one hidden layer after a chosen position in a trained
parent and fits the downstream layer by least squares so the child's
downstream pre-activations track the parent's on a probe batch. All
algorithms share that pipeline and differ only in the selector, named by
`spec.algorithm`, that picks which inserted neurons to keep:

* `alg1` scores each candidate neuron's standardized output against itself
  with the similarity-penalized solver and keeps the nonzero-coefficient
  columns. That data term is the same for every candidate, so only the
  similarity penalty, built from the probe covariance, tells them apart.
* `alg2` makes alg1's selection, then one least-squares refit of the kept
  inserted weights.
* `alg3` fits a full-width readout only to score each candidate by its
  rank-one contribution to the downstream reconstruction, in Gram form
  built from the factors (the stacked design is never formed), and keeps
  the nonzero-coefficient neurons.
* `baseline` keeps the full width (no sparsification).

Selectors return only the kept neurons. `morph` then drops those silent on
every probe row (except for `baseline`) and makes the one readout fit.

Parents are never mutated; at a fixed BLAS thread count identical inputs
produce bit-identical children.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyLayerError, MorphkitError, ShapeError
from .linalg import as_matrix, constant_columns, least_squares_with_fallback
from .network import (
    Layer, Mlp, _checked_input, _layer_outputs, apply_activation, forward, init_weights,
)
from .sparse import (
    SparseConfig, gram_similarity, iilasso_diag, iilasso_residual, refit_w1, similarity_matrix,
)

log = logging.getLogger(__name__)

# Contribution matrices with squared norm at or below this are dead.
DEAD_CONTRIBUTION_TOL = 1e-30

ALGORITHM_NAMES = ("alg1", "alg2", "alg3", "baseline")

# Advice for an empty child that no lambda causes: the inserted neurons
# carry no signal on the probe.
NO_SIGNAL_ADVICE = ("try another seed or activation for the inserted layer, or a probe "
                    "on which its inputs vary")


@dataclass(frozen=True)
class MorphSpec:
    """Insertion request: where, how wide, and how to sparsify."""

    insert_after: int
    width: int
    activation: str = "relu"
    algorithm: str = "alg1"
    sparse: SparseConfig = field(default_factory=SparseConfig)
    seed: int = 0
    fold_beta: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.algorithm not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHM_NAMES}"
            )


@dataclass(kw_only=True)
class MorphReport:
    """Outcome of one insertion run; accuracy fields are filled by the
    experiment harness, not by the morph itself. `sparse_sweeps` and
    `sparse_objective` are the solver's sweep count and final objective (0
    and NaN for `baseline`, which runs no solver); their defaults let
    reports written before they existed load. `ridge_fallbacks` counts
    every ridged least-squares fit of the morph, alg3's scoring fit
    included. Field order is the column order of report.csv."""

    run_id: str = ""
    algorithm: str
    activation: str
    n_redundant: int
    n_sparse: int
    compression_ratio: float
    preservation_max: float
    preservation_rms: float
    sparse_stop_reason: str
    sparse_sweeps: int = 0
    sparse_objective: float = float("nan")
    ridge_fallbacks: int = 0
    acc_parent: float = float("nan")
    acc_post_morph: float = float("nan")
    acc_after_finetune: float = float("nan")
    wall_time_s: float


def sample_rows(n_total: int, count: int | None, seed: int) -> np.ndarray:
    """Sorted uniform row subsample; a count covering every row is a no-op."""
    if count is not None and count < 1:
        raise ValueError(f"cannot sample {count} probe rows; ask for at least 1")
    if count is None or count >= n_total:
        return np.arange(n_total)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_total, size=count, replace=False))


def fold_beta(w1, beta, activation: str) -> np.ndarray:
    """Scale each inserted-layer column by its coefficient.

    Legal only where h(s*x) == s*h(x): identity for any s, relu for s >= 0.
    """
    w1 = as_matrix(w1, "w1")
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (w1.shape[1],):
        raise ShapeError(f"beta has shape {beta.shape}, expected ({w1.shape[1]},)")
    if activation not in ("relu", "identity"):
        raise MorphkitError(
            f"cannot fold scale factors through {activation!r}: "
            f"h(s*x) != s*h(x) for that activation"
        )
    if activation == "relu" and (beta < 0).any():
        raise MorphkitError(
            "cannot fold negative factors through relu: h(s*x) == s*h(x) "
            "only holds for s >= 0"
        )
    return w1 * beta[None, :]


def preservation_error(parent: Mlp, child: Mlp, probe, at_layer: int) -> tuple[float, float]:
    """Max-abs and RMS difference between the downstream pre-activations of
    child and parent on the probe batch. `at_layer` is the position the
    insertion happened after; the layer compared is the next one."""
    offset = len(child.layers) - len(parent.layers)
    parent_idx = at_layer + 1
    child_idx = parent_idx + offset
    if not 0 <= parent_idx < len(parent.layers):
        raise ShapeError(
            f"at_layer={at_layer} has no downstream layer in a "
            f"{len(parent.layers)}-layer parent"
        )
    if not 0 <= child_idx < len(child.layers):
        raise ShapeError(
            f"at_layer={at_layer} has no downstream layer in a "
            f"{len(child.layers)}-layer child"
        )
    diff = (
        forward(child, probe).pre_activations[child_idx]
        - forward(parent, probe).pre_activations[parent_idx]
    )
    return _error_stats(diff)


def _error_stats(diff: np.ndarray) -> tuple[float, float]:
    return float(np.abs(diff).max()), float(np.linalg.norm(diff) / np.sqrt(diff.size))


def _prepare(mlp: Mlp, spec: MorphSpec, probe, w1_init):
    if not 0 <= spec.insert_after <= len(mlp.layers) - 2:
        raise ShapeError(
            f"insert_after={spec.insert_after} must index a non-final layer "
            f"of a {len(mlp.layers)}-layer network"
        )
    probe = _checked_input(mlp, probe, "probe")  # the probe's one check
    if probe.shape[0] < 2:
        raise ShapeError(
            f"probe has {probe.shape[0]} rows; a morph needs at least 2 "
            f"(use a larger probe)"
        )
    d1 = mlp.layers[spec.insert_after].d_out
    if w1_init is None:
        w1 = init_weights(d1, spec.width, spec.activation, spec.seed)
    else:
        w1 = as_matrix(w1_init, "w1_init")
        if w1.shape != (d1, spec.width):
            raise ShapeError(
                f"w1_init has shape {w1.shape}, expected ({d1}, {spec.width})"
            )
    pres, acts = _layer_outputs(mlp, probe)
    return acts[spec.insert_after], pres[spec.insert_after + 1], w1


def _fit_readout(a_new, target, with_bias: bool):
    """Least-squares fit of the downstream layer, ridged where
    `least_squares_with_fallback` says so. Returns (weight, bias or None,
    fallbacks)."""
    n = a_new.shape[0]
    design = np.hstack([a_new, np.ones((n, 1))]) if with_bias else a_new
    if not with_bias and not a_new.any():  # no ridge makes an all-zero design solvable
        raise EmptyLayerError("every inserted neuron is silent on the probe and the downstream "
                              f"layer has no bias, so the readout has nothing to fit; {NO_SIGNAL_ADVICE}")
    sol, fell_back = least_squares_with_fallback(design, target)
    if with_bias:
        return sol[:-1], sol[-1], int(fell_back)
    return sol, None, int(fell_back)


def _assemble_child(parent: Mlp, p: int, w1, act: str, w2, b2) -> Mlp:
    old = parent.layers[p + 1]
    layers = (
        list(parent.layers[: p + 1])
        + [Layer(w1, None, act), Layer(w2, b2, old.activation)]
        + list(parent.layers[p + 2 :])
    )
    return Mlp(layers)


def _candidate_moments(a1, w1) -> tuple[np.ndarray, np.ndarray]:
    """Probe means and covariance of the candidate outputs a1 @ w1, from
    those of a1, without forming the N x width outputs."""
    mean = a1.mean(axis=0)
    centered = a1 - mean
    return mean @ w1, w1.T @ (centered.T @ centered / a1.shape[0]) @ w1


def _select_diag(spec, a1, downstream_pre, w1, with_bias, refit: bool):
    """alg1, and with `refit` alg2: drop the candidates constant on the
    probe, score each remaining standardized output against itself with the
    penalty-only solver, and keep the nonzero-coefficient columns; alg2
    first refits the inserted weights against the candidate outputs with
    the coefficients held fixed."""
    means, cov = _candidate_moments(a1, w1)
    live = ~constant_columns(means, cov.diagonal())
    if not live.any():
        raise EmptyLayerError(f"all {w1.shape[1]} candidate neurons are constant on the probe; "
                              f"{NO_SIGNAL_ADVICE}")
    sol = iilasso_diag(similarity_matrix(cov[np.ix_(live, live)], spec.sparse), spec.sparse)
    beta_full = np.zeros(w1.shape[1])
    beta_full[live] = sol.beta
    fell_back = False
    if refit:
        w1, fell_back = refit_w1(a1, a1 @ w1, beta_full)
    active = beta_full != 0
    w1_kept = w1[:, active]
    if spec.fold_beta:
        w1_kept = fold_beta(w1_kept, beta_full[active], spec.activation)
    return w1_kept, sol, int(fell_back)


def contribution_matrices(a_new, w2) -> np.ndarray:
    """Rank-one contribution of each inserted neuron to the downstream
    pre-activations of a readout w2: stack of outer products
    a_new[:, i] w2[i, :]. alg3 scores neurons on their Gram form
    (`_contribution_gram`) under its full-width scoring readout; this is
    its reference."""
    a_new = as_matrix(a_new, "a_new")
    w2 = as_matrix(w2, "w2")
    if a_new.shape[1] != w2.shape[0]:
        raise ShapeError(
            f"a_new has {a_new.shape[1]} columns but w2 has {w2.shape[0]} rows"
        )
    return a_new.T[:, :, None] * w2[:, None, :]


def _contribution_gram(a_new, w2, target) -> tuple[np.ndarray, np.ndarray]:
    """Z.T Z and Z.T vec(target) for the stacked contributions
    z_i = vec(a_new[:, i] w2[i, :]) without building Z: since each z_i is a
    rank-one outer product, z_i.T z_j = (a_i.T a_j)(w2_i.T w2_j), so
    Z.T Z = (a_new.T a_new) * (w2 w2.T) and Z.T vec(target) =
    rowsum((a_new.T target) * w2)."""
    return (a_new.T @ a_new) * (w2 @ w2.T), np.einsum("ij,ij->i", a_new.T @ target, w2)


def _select_alg3(spec, a1, downstream_pre, w1, with_bias):
    """Fit a scoring readout at full width, then keep the neurons whose
    rank-one contributions to that readout's downstream reconstruction get
    a nonzero coefficient. `morph` refits the readout on the kept neurons."""
    cfg = spec.sparse
    a_new_full = apply_activation(spec.activation, a1 @ w1)
    w2, b2, fallbacks = _fit_readout(a_new_full, downstream_pre, with_bias)

    target = downstream_pre
    if with_bias:
        target = target - b2
        target = target - float(target.mean())

    gram, corr = _contribution_gram(a_new_full, w2, target)
    sq_norms = gram.diagonal()
    live = sq_norms > DEAD_CONTRIBUTION_TOL
    if not live.any():
        raise EmptyLayerError(f"no candidate neuron contributes to the readout on the probe; "
                              f"{NO_SIGNAL_ADVICE}")
    # scale each live contribution to squared stacked norm M: G = S Z.T Z S / M
    m = target.size
    scales = np.sqrt(m / sq_norms[live])
    g = gram[np.ix_(live, live)] * scales[:, None] * scales[None, :] / m
    sol = iilasso_residual(g, corr[live] * scales / m, gram_similarity(g, cfg), cfg)
    active = np.zeros(spec.width, dtype=bool)
    active[live] = sol.beta != 0
    return w1[:, active], sol, fallbacks


def _select_baseline(spec, a1, downstream_pre, w1, with_bias):
    return w1, None, 0


# selector(spec, a1, downstream_pre, w1, with_bias) -> (kept inserted
# columns, the solver's SparseSolution or None, ridge fallbacks of the fits
# the selector made itself)
_SELECTORS = {
    "alg1": functools.partial(_select_diag, refit=False),
    "alg2": functools.partial(_select_diag, refit=True),
    "alg3": _select_alg3,
    "baseline": _select_baseline,
}


def morph(mlp: Mlp, spec: MorphSpec, probe, w1_init=None) -> tuple[Mlp, MorphReport]:
    """Insert a layer of `spec.width` candidate neurons after layer
    `spec.insert_after`, keep the ones the `spec.algorithm` selector picks,
    and fit the downstream layer so the child tracks the parent on `probe`."""
    t0 = time.perf_counter()
    a1, downstream_pre, w1 = _prepare(mlp, spec, probe, w1_init)
    with_bias = mlp.layers[spec.insert_after + 1].bias is not None
    select = _SELECTORS[spec.algorithm]
    w1, sol, fallbacks = select(spec, a1, downstream_pre, w1, with_bias)
    if w1.shape[1] == 0:  # the selectors raise for a probe that no lambda could fix
        raise EmptyLayerError(
            f"{spec.algorithm} at lambda {spec.sparse.lam:g} zeroed the coefficient of every "
            f"one of the {spec.width} candidate neurons; use a smaller lambda"
        )
    a_new = apply_activation(spec.activation, a1 @ w1)
    if spec.algorithm != "baseline":
        # a neuron silent on every probe row is an all-zero readout column
        live = a_new.any(axis=0)
        if not live.any():
            raise EmptyLayerError(
                f"all {w1.shape[1]} neurons {spec.algorithm} kept are silent on every probe "
                f"row; {NO_SIGNAL_ADVICE}"
            )
        if not live.all():
            # recomputed, not sliced: a column slice of a product need not have
            # the bits of the product with the sliced weights, which the child's
            # forward pass computes
            w1 = w1[:, live]
            a_new = apply_activation(spec.activation, a1 @ w1)
    w2, b2, readout_fallbacks = _fit_readout(a_new, downstream_pre, with_bias)
    fallbacks += readout_fallbacks
    child = _assemble_child(mlp, spec.insert_after, w1, spec.activation, w2, b2)
    # the child's layers up to insert_after are the parent's, so a_new is its
    # inserted layer's output on the probe, bit for bit, and this difference is
    # `preservation_error`'s
    readout = a_new @ w2
    if b2 is not None:
        readout += b2
    pres_max, pres_rms = _error_stats(readout - downstream_pre)
    n_sparse = w1.shape[1]
    solve = {"sparse_stop_reason": "none"}  # baseline ran no solver: the defaults hold
    if sol is not None:
        solve = {"sparse_stop_reason": sol.stop_reason, "sparse_sweeps": sol.sweeps_run,
                 "sparse_objective": float(sol.objective_trace[-1])}
    report = MorphReport(
        algorithm=spec.algorithm,
        activation=spec.activation,
        n_redundant=spec.width,
        n_sparse=n_sparse,
        compression_ratio=n_sparse / spec.width,
        preservation_max=pres_max,
        preservation_rms=pres_rms,
        ridge_fallbacks=fallbacks,
        **solve,
        wall_time_s=time.perf_counter() - t0,
    )
    log.info(
        "%s: width %d -> %d, preservation max %.3e rms %.3e, stop %s, %d ridge fallbacks",
        spec.algorithm, spec.width, n_sparse, pres_max, pres_rms, report.sparse_stop_reason,
        fallbacks,
    )
    return child, report
