"""Self-contained invariant checks run by the `verify` CLI subcommand, and
the one home of the oracles and instance builders the test suites use.

Each check builds small random instances from a seeded generator and
asserts a property that must hold for a correct build: closed-form
coordinate updates beat a dense 1-D grid and never raise the objective,
converged solutions satisfy stationarity, the two evaluation routes of the
shared-response loss agree, exact-preservation constructions hold, the
covariance route to the similarity matrix matches the standardized one,
both solvers match a reference loop of the per-coordinate oracles byte
for byte, analytic gradients match finite differences, the in-place
trainer matches an out-of-place reference loop byte for byte, and files
round-trip. Seeds change the instances, never the expected outcome. A
check's seed derives from the run seed and its name, so adding or
removing a check moves no other. Checks that measure something return it (a worst error, a
converged count), so a suite can run them over many seeds and report.

The objectives, `soft_threshold`, `coordinate_threshold`,
`coordinate_update`, `reference_loop` and `stack_contributions` are
oracles: the solvers compute the same quantities in their own form and
never call them.
"""

from __future__ import annotations

import copy
import math
import os
import tempfile
import zlib

import numpy as np

from . import io as mio
from .linalg import constant_columns, least_squares, standardize_columns, vectorize
from .morph import MorphSpec, _candidate_moments, morph
from .network import (
    EpochStats, Layer, Mlp, TrainConfig, _backward, _layer_outputs, loss_and_gradients, train_sgd,
)
from .sparse import (
    R_CAP,
    SparseConfig,
    SparseSolution,
    gram_similarity,
    iilasso_diag,
    iilasso_residual,
    similarity_matrix,
)

GRID = np.arange(-2.0, 2.0 + 1e-12, 1e-4)


def soft_threshold(a, b):
    """Shrinkage operator sgn(a) * max(|a| - b, 0)."""
    return np.sign(a) * np.maximum(np.abs(a) - b, 0.0)


def coordinate_threshold(r_row: np.ndarray, beta: np.ndarray, cfg: SparseConfig) -> float:
    """Shrinkage threshold for coefficient j, whose row of R is r_row, given
    the others: lam * (1 + alpha * sum_{c != j} R_jc |beta_c|), which is
    r_row.|beta| because R's diagonal is zero."""
    return cfg.lam * (1.0 + cfg.alpha * float(r_row @ np.abs(beta)))


def coordinate_update(rho: float, threshold: float) -> float:
    """Closed-form minimizer of either objective restricted to one
    coefficient: the soft threshold S(rho, threshold).

    Scalar Python arithmetic with the same bits as `soft_threshold`, -0.0
    included: np.sign maps both zeros to +0.0 and np.maximum propagates
    NaN. The solvers' sweep inlines this operation for operation.
    """
    shrunk = abs(rho) - threshold
    if shrunk <= 0.0:
        shrunk = 0.0
    return math.copysign(shrunk, rho) if rho != 0.0 else 0.0 * shrunk


def _penalty(beta, r, cfg: SparseConfig) -> float:
    ab = np.abs(beta)
    return cfg.lam * (float(ab.sum()) + 0.5 * cfg.alpha * float(ab @ r @ ab))


def diag_objective(beta, r, cfg: SparseConfig) -> float:
    """alg1's penalty-only objective (1/2)||1 - beta||^2 plus the penalty."""
    resid = 1.0 - np.asarray(beta)
    return 0.5 * float(resid @ resid) + _penalty(beta, r, cfg)


def gram_objective(beta, gram, corr, r, cfg: SparseConfig) -> float:
    """The residual solver's Gram-form objective (1/2) beta.T G beta -
    corr.T beta plus the penalty: the stacked objective less its constant."""
    beta = np.asarray(beta)
    return 0.5 * float(beta @ gram @ beta) - float(corr @ beta) + _penalty(beta, r, cfg)


def stack_contributions(t) -> np.ndarray:
    """Column-stack each contribution matrix t[i] into one design column."""
    return np.stack([vectorize(m) for m in np.asarray(t, dtype=np.float64)], axis=1)


def stacked_objective(z, y_vec, beta, r, cfg: SparseConfig) -> float:
    """(1/2M) ||y_vec - z beta||^2 plus the penalty, M = len(y_vec)."""
    resid = y_vec - z @ beta
    return 0.5 / resid.shape[0] * float(resid @ resid) + _penalty(beta, r, cfg)


def covariance(x) -> np.ndarray:
    """Covariance of the columns of x, normalized by the row count."""
    x = x - x.mean(axis=0)
    return x.T @ x / x.shape[0]


def random_r(rng, n: int, d: int, duplicate: bool = False) -> np.ndarray:
    """Similarity matrix of d mixed random columns over n rows; with
    `duplicate`, the last column is a scaled copy of the first, so that pair
    sits at R_CAP."""
    x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    if duplicate and d > 1:
        x[:, -1] = rng.uniform(0.5, 2.0) * x[:, 0]
    return similarity_matrix(covariance(x))


def random_diag_instance(rng):
    """alg1's penalty-only problem, which sees nothing but R: (R, cfg)."""
    n = int(rng.integers(10, 40))
    d = int(rng.integers(2, 7))
    cfg = SparseConfig(lam=0.1, alpha=0.1, tol=1e-10, max_itr=2000)
    return random_r(rng, n, d), cfg


def scaled_contributions(rng, d: int, n: int, q: int) -> np.ndarray:
    """d random (n, q) contribution matrices, each of squared norm n * q."""
    t = rng.normal(size=(d, n, q))
    return t / np.sqrt(np.einsum("ijk,ijk->i", t, t) / (n * q))[:, None, None]


def gram_form(t, y):
    """The stacked design z of contributions t and the residual solver's
    Gram-form input built from it: (z, vec(y), z.T z / M, z.T vec(y) / M)."""
    z = stack_contributions(t)
    y_vec = vectorize(y)
    m = y_vec.shape[0]
    return z, y_vec, z.T @ z / m, z.T @ y_vec / m


def random_residual_instance(rng):
    """The shared-response problem on a centered response:
    (z, vec(y), gram, corr, R, cfg); the solver takes gram and corr, the
    oracles use z itself."""
    n = int(rng.integers(8, 25))
    d = int(rng.integers(2, 6))
    q = int(rng.integers(2, 5))
    t = scaled_contributions(rng, d, n, q)
    y = rng.normal(size=(n, q))
    cfg = SparseConfig(lam=0.05, alpha=0.1, tol=1e-10, max_itr=2000)
    z, y_vec, gram, corr = gram_form(t, y - y.mean())
    return z, y_vec, gram, corr, similarity_matrix(gram), cfg


def random_mlp(rng, widths, activations) -> Mlp:
    """Dense layers of the given widths and activations, N(0, 0.36) weights
    and N(0, 0.04) biases."""
    return Mlp([
        Layer(rng.normal(size=(widths[k], widths[k + 1])) * 0.6,
              rng.normal(size=widths[k + 1]) * 0.2, act)
        for k, act in enumerate(activations)
    ])


def _coordinate_optimal(rho: float, thr: float) -> float:
    """The closed-form update of one coefficient, asserted to score within
    1e-6 of the best point of GRID on the 1-D slice of either objective,
    0.5 b^2 - rho b + thr |b| (constants dropped)."""

    def restricted(b):
        return 0.5 * b * b - rho * b + thr * np.abs(b)

    closed = coordinate_update(rho, thr)
    best, value = restricted(GRID).min(), restricted(closed)
    assert value <= best + 1e-6, (
        f"closed-form update {closed:.6g} scores {value:.6g}, grid best {best:.6g}"
    )
    return closed


def _replay_updates(r, cfg: SparseConfig, beta, residual=None) -> float:
    """Replay two cyclic sweeps of the solvers' coordinate update from
    `beta`: the penalty-only solver's (every rho_j is 1) or, given
    residual = (z, vec(y), gram, corr), the residual solver's, whose rho_j
    from the running residual must equal the Gram form the solver uses.
    Every update must be grid-optimal and raise the full objective by at
    most 1e-10; returns the largest single-update increase (0 if none)."""
    if residual is None:
        def objective(b):
            return diag_objective(b, r, cfg)
    else:
        z, y_vec, gram, corr = residual
        m = y_vec.shape[0]
        resid = y_vec - z @ beta

        def objective(b):
            return stacked_objective(z, y_vec, b, r, cfg)

    worst = 0.0
    for _ in range(2):
        for j in range(beta.shape[0]):
            rho = 1.0
            if residual is not None:
                rho = float(resid @ z[:, j]) / m + beta[j]
                gram_rho = float(corr[j] - gram[j] @ beta) + beta[j]
                assert abs(gram_rho - rho) <= 1e-12 * (1 + abs(rho)), f"Gram-form rho {gram_rho}"
            before = objective(beta)
            new = _coordinate_optimal(rho, coordinate_threshold(r[j], beta, cfg))
            if residual is not None:
                resid -= (new - beta[j]) * z[:, j]
            beta[j] = new
            increase = objective(beta) - before
            assert increase <= 1e-10, f"update of coefficient {j} raised the objective by {increase:.3e}"
            worst = max(worst, increase)
    return worst


def _stationary(sol, resid_corr, r, cfg: SparseConfig) -> int:
    """1 for a converged solution after asserting its KKT conditions, with
    resid_corr_j the data term's negative gradient: |resid_corr_j| <= thr_j
    where beta_j = 0, resid_corr_j = thr_j sgn(beta_j) elsewhere, within
    1e-6. 0 for a budget stop, which halts mid-descent.
    Either way the objective trace must not rise."""
    assert (np.diff(sol.objective_trace) <= 1e-10).all(), "objective trace increased"
    if sol.stop_reason != "converged":
        return 0
    for j, bj in enumerate(sol.beta):
        thr = coordinate_threshold(r[j], sol.beta, cfg)
        gap = abs(resid_corr[j]) - thr if bj == 0 else abs(resid_corr[j] - thr * np.sign(bj))
        assert gap <= 1e-6, f"coordinate {j} violates stationarity by {gap:.3e}"
    return 1


def reference_loop(r, cfg: SparseConfig, gram=None, corr=None):
    """The solvers' documented sweep written with the per-coordinate
    oracles: from beta = 1, coordinates in the order 0..D-1, each set to
    `coordinate_update(rho_j, coordinate_threshold(...))` with rho_j =
    corr_j - G_j.beta + beta_j, or rho_j = 1 without a Gram matrix
    (`iilasso_diag`'s G = I, corr = 1). Before every sweep it stops on the
    largest change of the last sweep, then on the sweep budget. Returns
    (beta, sweeps, stop_reason, betas), where betas holds the iterate at the
    start and after every sweep."""
    d = r.shape[0]
    beta = np.ones(d)
    betas = [beta.copy()]
    sweeps = 0
    max_delta = np.inf
    while True:
        if max_delta < cfg.tol:
            return beta, sweeps, "converged", betas
        if sweeps >= cfg.max_itr:
            return beta, sweeps, "max_itr", betas
        max_delta = 0.0
        for j in range(d):
            rho = 1.0 if gram is None else float(corr[j]) - float(gram[j] @ beta) + float(beta[j])
            new = coordinate_update(rho, coordinate_threshold(r[j], beta, cfg))
            max_delta = max(max_delta, abs(new - float(beta[j])))
            beta[j] = new
        sweeps += 1
        betas.append(beta.copy())


def assert_matches_reference(r, cfg: SparseConfig, gram=None, corr=None) -> SparseSolution:
    """Solve with `iilasso_diag`, or with `iilasso_residual` given gram and
    corr, and assert that its beta has the bytes of `reference_loop`'s (so
    -0.0 too), that sweeps and stop reason agree, and that the trace is the
    objective of the reference iterates within 1e-12 relative."""
    if gram is None:
        sol = iilasso_diag(r, cfg)

        def objective(b):
            return diag_objective(b, r, cfg)
    else:
        sol = iilasso_residual(gram, corr, r, cfg)

        def objective(b):
            return gram_objective(b, gram, corr, r, cfg)
    beta, sweeps, reason, betas = reference_loop(r, cfg, gram, corr)
    what = f"{'diag' if gram is None else 'residual'} solver at d={len(beta)}"
    assert sol.beta.tobytes() == beta.tobytes(), f"{what}: beta differs from the reference loop"
    assert (sol.sweeps_run, sol.stop_reason) == (sweeps, reason), (
        f"{what}: stopped after {sol.sweeps_run} sweeps ({sol.stop_reason}), the reference loop "
        f"after {sweeps} ({reason})"
    )
    assert len(sol.objective_trace) == len(betas), f"{what}: trace length"
    for k, (got, b) in enumerate(zip(sol.objective_trace, betas)):
        want = objective(b)
        assert abs(got - want) <= 1e-12 * abs(want), f"{what}: trace[{k}] {got!r}, objective {want!r}"
    return sol


def check_least_squares_stationarity(seed: int) -> None:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 5))
    y = rng.normal(size=(30, 2))
    scale = np.abs(x.T @ y).max()
    for ridge in (0.0, 0.5):
        w = least_squares(x, y, ridge)
        grad = x.T @ (x @ w - y) + ridge * w
        assert np.abs(grad).max() <= 1e-8 * scale, f"ridge {ridge}: gradient {np.abs(grad).max():.3e}"


def check_standardize_roundtrip(seed: int) -> None:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(20, 5)) * rng.uniform(0.1, 10, size=5) + rng.normal(size=5)
    out, info = standardize_columns(m)
    np.testing.assert_allclose(out * info.scales + info.means, m, rtol=1e-12, atol=1e-12)


def check_vectorize_frobenius(seed: int) -> None:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 5))
    v = vectorize(m)
    np.testing.assert_allclose(v @ v, np.linalg.norm(m) ** 2, rtol=1e-12)


def check_diag_coordinate_oracle(seed: int) -> float:
    """20 replays of the penalty-only solver; returns the worst increase."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        r, cfg = random_diag_instance(rng)
        worst = max(worst, _replay_updates(r, cfg, rng.uniform(-1, 1, size=r.shape[0])))
    return worst


def check_residual_coordinate_oracle(seed: int) -> float:
    """10 replays of the residual solver; returns the worst increase."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        z, y_vec, gram, corr, r, cfg = random_residual_instance(rng)
        beta = rng.uniform(-1, 1, size=z.shape[1])
        worst = max(worst, _replay_updates(r, cfg, beta, (z, y_vec, gram, corr)))
    return worst


def check_diag_solver_stationarity(seed: int) -> int:
    """10 penalty-only solves; returns how many converged (at least 5)."""
    rng = np.random.default_rng(seed)
    converged = 0
    for _ in range(10):
        r, cfg = random_diag_instance(rng)
        sol = iilasso_diag(r, cfg)
        converged += _stationary(sol, 1.0 - sol.beta, r, cfg)  # every corr_j is 1, G = I
    assert converged >= 5, "too few instances converged"
    return converged


def check_residual_solver_stationarity(seed: int) -> int:
    """10 residual solves; returns how many converged (at least 5)."""
    rng = np.random.default_rng(seed)
    converged = 0
    for _ in range(10):
        z, y_vec, gram, corr, r, cfg = random_residual_instance(rng)
        sol = iilasso_residual(gram, corr, r, cfg)
        converged += _stationary(sol, (y_vec - z @ sol.beta) @ z / z.shape[0], r, cfg)
    assert converged >= 5, "too few instances converged"
    return converged


def check_solver_reference(seed: int) -> int:
    """Both solvers equal `reference_loop` byte for byte: beta, sweeps and
    stop reason, on small instances (among them a duplicate pair and a
    sweep budget) and at 64 <= d <= 256, inside the widths of 100 to 400
    that the desk and the benchmark morph at, where ddot takes its vector
    path. Returns the number of solves compared."""
    rng = np.random.default_rng(seed)
    wide = SparseConfig(lam=0.5, alpha=1.0, tol=1e-9, max_itr=300)
    cases = [random_diag_instance(rng) for _ in range(4)]
    cases.append((random_r(rng, 40, 20, duplicate=True), SparseConfig(lam=0.5, alpha=0.5)))
    cases += [(random_r(rng, d + 40, d), wide) for d in (int(rng.integers(64, 129)), 256)]
    for _ in range(4):
        _, _, gram, corr, r, cfg = random_residual_instance(rng)
        cases.append((r, cfg, gram, corr))
    for d, budget in ((int(rng.integers(64, 129)), 300), (256, 20)):
        t = scaled_contributions(rng, d, 24, 4)
        y = rng.normal(size=(24, 4)) + t[0] - 0.5 * t[1]
        cfg = SparseConfig(lam=0.05, alpha=0.1, tol=1e-9, max_itr=budget)
        _, _, gram, corr = gram_form(t, y - y.mean())
        cases.append((similarity_matrix(gram), cfg, gram, corr))
    for case in cases:
        assert_matches_reference(*case)
    return len(cases)


def check_relaxation_bounds(seed: int) -> tuple[float, float]:
    """10 penalty-only solves stay in [0, 1]; returns the extremes."""
    rng = np.random.default_rng(seed)
    low, high = np.inf, -np.inf
    for _ in range(10):
        r, cfg = random_diag_instance(rng)
        sol = iilasso_diag(r, cfg)
        low, high = min(low, sol.beta.min()), max(high, sol.beta.max())
        assert low >= -1e-9 and high <= 1 + 1e-9, f"beta leaves [0, 1]: [{low:.3g}, {high:.3g}]"
    return low, high


def check_stacked_loss_equivalence(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n, d, q = int(rng.integers(3, 10)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        t = rng.normal(size=(d, n, q))
        y = rng.normal(size=(n, q))
        beta = rng.normal(size=d)
        frob = 0.5 / n * np.linalg.norm(y - np.einsum("i,ijk->jk", beta, t)) ** 2
        stacked = 0.5 / n * np.linalg.norm(vectorize(y) - stack_contributions(t) @ beta) ** 2
        np.testing.assert_allclose(frob, stacked, rtol=1e-10)


def redundant_w1(rng, d1, width):
    """Inserted weights for inputs whose column 0 is constant: columns 0 and
    1 are a duplicate pair (1 is a scaled copy of 0); columns 2 (zero) and 3
    (reads only input 0) are constant candidates. Needs d1 >= 2, width >= 4."""
    w1 = rng.normal(size=(d1, width))
    w1[:, 1] = rng.uniform(0.5, 2.0) * w1[:, 0]
    w1[:, 2:4] = 0.0
    w1[0, 3] = rng.normal()
    return w1


def check_similarity_covariance(seed: int) -> None:
    """alg1's R from the probe covariance matches R from the standardized
    candidate outputs, and both routes flag the same constant candidates."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n, d1, width = int(rng.integers(10, 60)), int(rng.integers(2, 8)), int(rng.integers(4, 12))
        a1 = rng.normal(size=(n, d1)) * rng.uniform(0.1, 5.0, size=d1) + rng.normal(size=d1)
        a1[:, 0] = rng.normal()
        w1 = redundant_w1(rng, d1, width)
        means, cov = _candidate_moments(a1, w1)
        live = ~constant_columns(means, cov.diagonal())
        xs, info = standardize_columns(a1 @ w1)
        want_live = [True, True, False, False] + [True] * (width - 4)
        assert live.tolist() == (~info.constant_mask).tolist() == want_live, f"live {live}"
        got = similarity_matrix(cov[np.ix_(live, live)])
        want = gram_similarity(xs[:, live].T @ xs[:, live] / n)
        off = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert off.max() <= 1e-9, f"R differs by {off.max():.3e} relative"
        assert got[0, 1] == got[1, 0] == R_CAP, f"duplicate pair R {got[0, 1]:.6g}"


def _exact_morph(rng, seed, hidden: str, mirror: bool) -> float:
    """Unsparsified alg1 on a random parent of 6-16 inputs whose hidden
    width never exceeds its input width, so the parent activations have
    full column rank and the readout fit is exact. At lambda 0 every live
    candidate is kept; returns the preservation max-error, asserted <= 1e-6."""
    d_in = int(rng.integers(6, 17))
    d_hidden = int(rng.integers(3, d_in + 1))
    parent = random_mlp(rng, [d_in, d_hidden, 3], [hidden, "identity"])
    w1 = np.hstack([np.eye(d_hidden), -np.eye(d_hidden)]) if mirror else None
    spec = MorphSpec(
        insert_after=0, width=2 * d_hidden if mirror else d_hidden, activation=hidden,
        algorithm="alg1", sparse=SparseConfig(lam=0.0, alpha=0.0), seed=seed,
    )
    _, report = morph(parent, spec, rng.normal(size=(120, d_in)), w1_init=w1)
    if not mirror:
        assert report.n_sparse == d_hidden, f"kept {report.n_sparse} of {d_hidden}"
    assert report.preservation_max <= 1e-6, f"preservation {report.preservation_max:.3e}"
    return report.preservation_max


def check_identity_preservation(seed: int) -> float:
    """An identity layer of the hidden width keeps every neuron and
    reproduces an identity parent exactly."""
    return _exact_morph(np.random.default_rng(seed), seed, "identity", mirror=False)


def check_relu_mirror_preservation(seed: int) -> float:
    """The relu mirror [I, -I] reproduces a relu parent exactly, since
    relu(a) - relu(-a) = a."""
    return _exact_morph(np.random.default_rng(seed), seed, "relu", mirror=True)


def gradient_check(net: Mlp, x, labels) -> float:
    """Assert that every analytic gradient of the training loss matches a
    central difference of step 1e-5 within 1e-4 * max(1, |difference|), and
    return the worst relative error. Perturbs each weight and bias of `net`
    in place and restores it."""
    _, grads = loss_and_gradients(net, x, labels)
    h = 1e-5
    worst = 0.0
    for k, (layer, (dw, db)) in enumerate(zip(net.layers, grads)):
        for arr, grad in ((layer.weight, dw), (layer.bias, db)):
            if arr is None:
                continue
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = loss_and_gradients(net, x, labels)
                arr[idx] = orig - h
                down, _ = loss_and_gradients(net, x, labels)
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - grad[idx]) / max(1.0, abs(fd))
                assert rel <= 1e-4, f"layer {k} entry {idx}: relative gradient error {rel:.3e}"
                worst = max(worst, rel)
    return worst


def check_trainer_gradients(seed: int) -> float:
    """Backpropagation through a random three-layer net of relu, tanh or
    sigmoid hidden layers; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(2, 6, size=4)]
    hidden = [str(a) for a in rng.choice(["relu", "tanh", "sigmoid"], size=2)]
    net = random_mlp(rng, widths, hidden + ["identity"])
    x = rng.normal(size=(6, widths[0]))
    return gradient_check(net, x, rng.integers(0, widths[-1], size=6))


def _reference_sgd(mlp: Mlp, data, cfg: TrainConfig) -> tuple[Mlp, list[EpochStats]]:
    """`train_sgd` as a plain float32 loop: the forward and backward pass on
    each mini-batch cast to float32, then v = m*v - lr*(dw + wd*W) and
    W = W + v with a fresh float32 array per update (biases without decay),
    and float64 weights on return. 0 epochs give a copy of the input."""
    net = copy.deepcopy(mlp)
    if cfg.epochs == 0:
        return net, []
    lr, momentum, decay = (np.float32(v) for v in
                           (cfg.learning_rate, cfg.momentum, cfg.weight_decay))
    for layer in net.layers:
        layer.weight = layer.weight.astype(np.float32)
        if layer.bias is not None:
            layer.bias = layer.bias.astype(np.float32)
    vw = [np.zeros_like(l.weight) for l in net.layers]
    vb = [None if l.bias is None else np.zeros_like(l.bias) for l in net.layers]
    rng = np.random.default_rng(cfg.seed)
    n = data.features.shape[0]
    history = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum, correct = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = data.features[idx].astype(np.float32), data.labels[idx]
            _, acts = _layer_outputs(net, xb, keep_pre=False)
            loss, grads = _backward(net, xb, acts, yb)
            loss_sum += loss * len(idx)
            correct += int((acts[-1].argmax(axis=1) == yb).sum())
            for k, (layer, (dw, db)) in enumerate(zip(net.layers, grads)):
                vw[k] = momentum * vw[k] - lr * (dw + decay * layer.weight)
                layer.weight = layer.weight + vw[k]
                if db is not None:
                    vb[k] = momentum * vb[k] - lr * db
                    layer.bias = layer.bias + vb[k]
        history.append(EpochStats(epoch, loss_sum / n, correct / n))
    return Mlp([Layer(l.weight, l.bias, l.activation) for l in net.layers]), history


def check_trainer_reference(seed: int) -> int:
    """`train_sgd`'s weights and history equal `_reference_sgd`'s byte for
    byte, and the caller's network is untouched, on random nets with relu,
    tanh, sigmoid and identity hidden layers, some without a bias, over a
    row count that leaves a partial last batch; momentum and weight decay
    each zero and positive, a zero learning rate, and 0 epochs, which give
    an empty history and the input's bytes. Every weight and bias trained
    for at least one epoch is float64 and holds float32 values. Returns the
    number of trainings compared."""
    rng = np.random.default_rng(seed)
    settings = [(0.05, 0.9, 1e-3, 3), (0.1, 0.0, 0.0, 3), (0.0, 0.9, 1e-3, 3),
                (0.05, 0.5, 0.0, 3), (0.05, 0.9, 1e-3, 0)]
    for lr, momentum, decay, epochs in settings:
        widths = [int(w) for w in rng.integers(2, 7, size=6)]
        hidden = [str(a) for a in rng.permutation(["relu", "tanh", "sigmoid", "identity"])]
        net = random_mlp(rng, widths, hidden + ["identity"])
        for k in rng.choice(len(net.layers), size=2, replace=False):
            net.layers[k] = Layer(net.layers[k].weight, None, net.layers[k].activation)
        batch = int(rng.integers(3, 8))
        n = batch * int(rng.integers(2, 5)) + int(rng.integers(1, batch))
        data = mio.Dataset(rng.normal(size=(n, widths[0])), rng.integers(0, widths[-1], size=n))
        cfg = TrainConfig(learning_rate=lr, momentum=momentum, weight_decay=decay, epochs=epochs,
                          batch_size=batch, seed=int(rng.integers(2**31)))
        before = [_layer_bytes(l) for l in net.layers]
        trained, history = train_sgd(net, data, cfg)
        assert [_layer_bytes(l) for l in net.layers] == before, "train_sgd changed its input network"
        want, want_history = _reference_sgd(net, data, cfg)
        for k, (a, b) in enumerate(zip(trained.layers, want.layers)):
            assert _layer_bytes(a) == _layer_bytes(b), f"{cfg}: layer {k} differs from the reference loop"
        assert history == want_history, f"{cfg}: history {history} differs from {want_history}"
        if epochs == 0:
            assert history == [], f"{cfg}: history {history} for 0 epochs"
            assert [_layer_bytes(l) for l in trained.layers] == before, f"{cfg}: weights moved"
            continue
        for k, layer in enumerate(trained.layers):
            for arr in (layer.weight, layer.bias):
                if arr is not None:
                    assert arr.dtype == np.float64, f"{cfg}: layer {k} holds {arr.dtype}"
                    assert (arr.astype(np.float32).astype(np.float64) == arr).all(), \
                        f"{cfg}: layer {k} holds a value that is not a float32"
    return len(settings)


def _layer_bytes(layer: Layer) -> tuple:
    bias = None if layer.bias is None else layer.bias.tobytes()
    return layer.activation, layer.weight.shape, layer.weight.tobytes(), bias


def check_model_roundtrip(seed: int) -> None:
    rng = np.random.default_rng(seed)
    net = random_mlp(rng, [4, 6, 3], ["relu", "identity"])
    net.layers[0] = Layer(net.layers[0].weight, None, net.layers[0].activation)
    net.layers[1].weight[rng.integers(6), rng.integers(3)] = -0.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.model")
        mio.save_model(net, path, metadata={"seed": seed})
        loaded, meta = mio.load_model(path)
    assert meta == {"seed": seed}, f"metadata {meta!r}"
    assert len(loaded.layers) == len(net.layers), f"{len(loaded.layers)} layers loaded"
    for k, (a, b) in enumerate(zip(net.layers, loaded.layers)):
        assert _layer_bytes(a) == _layer_bytes(b), f"layer {k} changed in the round trip"


CHECKS = [
    ("least-squares-stationarity", check_least_squares_stationarity),
    ("standardize-roundtrip", check_standardize_roundtrip),
    ("vectorize-frobenius", check_vectorize_frobenius),
    ("diag-coordinate-oracle", check_diag_coordinate_oracle),
    ("residual-coordinate-oracle", check_residual_coordinate_oracle),
    ("diag-solver-stationarity", check_diag_solver_stationarity),
    ("residual-solver-stationarity", check_residual_solver_stationarity),
    ("solver-reference", check_solver_reference),
    ("relaxation-bounds", check_relaxation_bounds),
    ("stacked-loss-equivalence", check_stacked_loss_equivalence),
    ("similarity-covariance", check_similarity_covariance),
    ("identity-preservation", check_identity_preservation),
    ("relu-mirror-preservation", check_relu_mirror_preservation),
    ("trainer-gradients", check_trainer_gradients),
    ("trainer-reference", check_trainer_reference),
    ("model-roundtrip", check_model_roundtrip),
]


def run_checks(seed: int = 0) -> list[tuple[str, str | None]]:
    """Run every check; returns (name, failure detail or None) pairs."""
    results = []
    for name, fn in CHECKS:
        try:
            fn(seed + zlib.crc32(name.encode()))  # stable, unlike the salted hash()
            results.append((name, None))
        except AssertionError as exc:
            results.append((name, str(exc) or "assertion failed"))
        except Exception as exc:  # a crash is also a failed invariant
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
