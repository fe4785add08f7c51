"""Self-contained invariant checks run by the `verify` CLI subcommand.

Each check builds small random instances from a seeded generator and
asserts a property that must hold for a correct build: closed-form
coordinate updates beat a dense 1-D grid, converged solutions satisfy
stationarity, the two evaluation routes of the shared-response loss agree,
exact-preservation constructions hold, the covariance route to the
similarity matrix matches the standardized one, and files round-trip.
Seeds change the instances, never the expected outcome. A check's seed
derives from the run seed and its name, so adding or removing a check
moves no other.
"""

from __future__ import annotations

import os
import tempfile
import zlib

import numpy as np

from . import io as mio
from .linalg import constant_columns, least_squares, standardize_columns, vectorize
from .morph import MorphSpec, _candidate_moments, morph
from .network import Layer, Mlp
from .sparse import (
    SparseConfig,
    coordinate_threshold,
    coordinate_update,
    gram_similarity,
    iilasso_diag,
    iilasso_residual,
    similarity_matrix,
    stack_contributions,
)

GRID = np.arange(-2.0, 2.0 + 1e-12, 1e-4)


def _restricted_objective(b, rho, thr, r_jj, cfg):
    # 1-D slice of either solver objective, constants dropped
    return 0.5 * (1.0 + cfg.alpha * cfg.lam * r_jj) * b * b - rho * b + thr * np.abs(b)


def _check_coordinate_against_grid(rho, thr, r_jj, cfg, tol=1e-6):
    best_grid = _restricted_objective(GRID, rho, thr, r_jj, cfg).min()
    closed = coordinate_update(rho, thr, r_jj, cfg)
    value = _restricted_objective(np.array([closed]), rho, thr, r_jj, cfg)[0]
    assert value <= best_grid + tol, (
        f"closed-form update {closed:.6g} scores {value:.6g}, grid best {best_grid:.6g}"
    )


def _random_diag_instance(rng):
    # R of d mixed columns: the diagonal solver needs nothing else
    n = int(rng.integers(10, 40))
    d = int(rng.integers(2, 7))
    x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    x = x - x.mean(axis=0)
    cfg = SparseConfig(lam=0.1, alpha=0.1, tol=1e-10, max_itr=2000)
    return similarity_matrix(x.T @ x / n, cfg), cfg


def _random_residual_instance(rng):
    n = int(rng.integers(8, 25))
    d = int(rng.integers(2, 6))
    q = int(rng.integers(2, 5))
    t = rng.normal(size=(d, n, q))
    m = n * q
    norms = np.sqrt(np.einsum("ijk,ijk->i", t, t) / m)
    t = t / norms[:, None, None]
    y = rng.normal(size=(n, q))
    y = y - y.mean()
    cfg = SparseConfig(lam=0.05, alpha=0.1, tol=1e-10, max_itr=2000)
    z = stack_contributions(t)
    y_vec = vectorize(y)
    gram = z.T @ z / m
    # the residual solver's Gram-form input; the oracles below use z itself
    return z, y_vec, gram, z.T @ y_vec / m, similarity_matrix(gram, cfg), cfg


def check_least_squares_stationarity(seed: int) -> None:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 5))
    y = rng.normal(size=(30, 2))
    w = least_squares(x, y)
    grad = x.T @ (x @ w - y)
    scale = np.abs(x.T @ y).max()
    assert np.abs(grad).max() <= 1e-8 * scale, f"residual gradient {np.abs(grad).max():.3e}"


def check_standardize_roundtrip(seed: int) -> None:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(20, 4)) * rng.uniform(0.5, 10, size=4)
    out, info = standardize_columns(m)
    np.testing.assert_allclose(out * info.scales + info.means, m, rtol=1e-12, atol=1e-12)


def check_vectorize_frobenius(seed: int) -> None:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 5))
    v = vectorize(m)
    np.testing.assert_allclose(v @ v, np.linalg.norm(m) ** 2, rtol=1e-12)


def check_diag_coordinate_oracle(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(20):
        r, cfg = _random_diag_instance(rng)
        beta = rng.uniform(-1, 1, size=r.shape[0])
        for j in range(r.shape[0]):
            thr = coordinate_threshold(r[j], beta, j, cfg)
            _check_coordinate_against_grid(1.0, thr, r[j, j], cfg)
            beta[j] = coordinate_update(1.0, thr, r[j, j], cfg)


def check_residual_coordinate_oracle(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(10):
        z, y_vec, gram, corr, r, cfg = _random_residual_instance(rng)
        m = z.shape[0]
        beta = rng.uniform(-1, 1, size=z.shape[1])
        resid = y_vec - z @ beta
        for j in range(z.shape[1]):
            rho = float(resid @ z[:, j]) / m + beta[j]
            gram_rho = float(corr[j] - gram[j] @ beta) + beta[j]
            assert abs(gram_rho - rho) <= 1e-10 * (1 + abs(rho)), f"Gram-form rho {gram_rho}"
            thr = coordinate_threshold(r[j], beta, j, cfg)
            _check_coordinate_against_grid(rho, thr, r[j, j], cfg)
            new = coordinate_update(rho, thr, r[j, j], cfg)
            resid -= (new - beta[j]) * z[:, j]
            beta[j] = new


def check_diag_solver_stationarity(seed: int) -> None:
    rng = np.random.default_rng(seed)
    converged = 0
    for _ in range(10):
        r, cfg = _random_diag_instance(rng)
        sol = iilasso_diag(r, cfg)
        trace = sol.objective_trace
        assert (np.diff(trace) <= 1e-10).all(), "objective trace increased"
        if sol.stop_reason != "converged":
            # a sparsity-target stop halts mid-descent; no stationarity claim
            continue
        converged += 1
        for j, bj in enumerate(sol.beta):
            # KKT of the penalty-only problem, where every corr_j is 1
            thr = coordinate_threshold(r[j], sol.beta, j, cfg)
            if bj == 0:
                assert thr >= 1.0 - 1e-6, f"coordinate {j} violates stationarity"
            else:
                resid = bj - (1.0 - thr)
                assert abs(resid) <= 1e-6, f"coordinate {j} residual {resid:.3e}"
    assert converged >= 5, "too few instances converged"


def check_residual_solver_stationarity(seed: int) -> None:
    rng = np.random.default_rng(seed)
    converged = 0
    for _ in range(6):
        z, y_vec, gram, corr, r, cfg = _random_residual_instance(rng)
        sol = iilasso_residual(gram, corr, r, cfg)
        trace = sol.objective_trace
        assert (np.diff(trace) <= 1e-10).all(), "objective trace increased"
        if sol.stop_reason != "converged":
            continue
        converged += 1
        m = z.shape[0]
        resid_corr = (y_vec - z @ sol.beta) @ z / m
        for j, bj in enumerate(sol.beta):
            thr = coordinate_threshold(r[j], sol.beta, j, cfg)
            if bj == 0:
                assert abs(resid_corr[j]) <= thr + 1e-6
            else:
                assert abs(abs(resid_corr[j]) - thr) <= 1e-6
    assert converged >= 3, "too few instances converged"


def check_relaxation_bounds(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(10):
        r, cfg = _random_diag_instance(rng)
        sol = iilasso_diag(r, cfg)
        assert sol.beta.min() >= -1e-9 and sol.beta.max() <= 1 + 1e-9, (
            f"beta leaves [0, 1]: [{sol.beta.min():.3g}, {sol.beta.max():.3g}]"
        )


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
    cfg = SparseConfig()
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
        got = similarity_matrix(cov[np.ix_(live, live)], cfg)
        want = gram_similarity(xs[:, live].T @ xs[:, live] / n, cfg)
        off = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert off.max() <= 1e-9, f"R differs by {off.max():.3e} relative"
        assert got[0, 1] == got[1, 0] == cfg.r_cap, f"duplicate pair R {got[0, 1]:.6g}"


def _random_parent(rng, widths, act="relu"):
    layers = []
    for k in range(len(widths) - 1):
        activation = act if k < len(widths) - 2 else "identity"
        w = rng.normal(size=(widths[k], widths[k + 1])) / np.sqrt(widths[k])
        b = rng.normal(size=widths[k + 1]) * 0.1
        layers.append(Layer(w, b, activation))
    return Mlp(layers)


def check_identity_preservation(seed: int) -> None:
    rng = np.random.default_rng(seed)
    parent = _random_parent(rng, [6, 5, 3], act="identity")
    probe = rng.normal(size=(60, 6))
    spec = MorphSpec(
        insert_after=0, width=5, activation="identity", algorithm="alg1",
        sparse=SparseConfig(lam=0.0, alpha=0.0), seed=seed,
    )
    _, report = morph(parent, spec, probe)
    assert report.preservation_max <= 1e-6, f"preservation {report.preservation_max:.3e}"


def check_relu_mirror_preservation(seed: int) -> None:
    rng = np.random.default_rng(seed)
    parent = _random_parent(rng, [6, 5, 3], act="relu")
    probe = rng.normal(size=(80, 6))
    d1 = 5
    mirror = np.hstack([np.eye(d1), -np.eye(d1)])
    spec = MorphSpec(
        insert_after=0, width=2 * d1, activation="relu", algorithm="alg1",
        sparse=SparseConfig(lam=0.0, alpha=0.0), seed=seed,
    )
    _, report = morph(parent, spec, probe, w1_init=mirror)
    assert report.preservation_max <= 1e-6, f"preservation {report.preservation_max:.3e}"


def _layer_bytes(layer: Layer) -> tuple:
    bias = None if layer.bias is None else layer.bias.tobytes()
    return layer.activation, layer.weight.shape, layer.weight.tobytes(), bias


def check_model_roundtrip(seed: int) -> None:
    rng = np.random.default_rng(seed)
    net = _random_parent(rng, [4, 6, 3])
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
    ("relaxation-bounds", check_relaxation_bounds),
    ("stacked-loss-equivalence", check_stacked_loss_equivalence),
    ("similarity-covariance", check_similarity_covariance),
    ("identity-preservation", check_identity_preservation),
    ("relu-mirror-preservation", check_relu_mirror_preservation),
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
