"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints
a PASS line on success (run with -s to see them). The desk-scale
experiment trains a 784-64-10 relu parent on the packaged low-intrinsic-
dimension dataset, inserts a width-100 layer with every algorithm at
lambda = alpha = 0.1, and checks compression, immediate preservation of
test accuracy, and recovery after five fine-tune epochs of the layers
above the insertion, as `morphkit finetune` trains them. The solver,
preservation and trainer criteria run the `morphkit.verify` checks over
many seeds.
"""

import dataclasses

import numpy as np
import pytest

from morphkit import verify
from morphkit.io import Dataset, synth_lowrank_dataset
from morphkit.morph import MorphSpec, morph, sample_rows
from morphkit.network import (
    Layer, Mlp, TrainConfig, evaluate, init_weights, train_above, train_sgd,
)
from morphkit.sparse import SparseConfig

DESK_INSERT_AFTER = 0
DESK_WIDTH = 100
DESK_LAMBDA = 0.1
DESK_ALPHA = 0.1
DESK_DATA_SEED = 11
DESK_PARENT_SEEDS = (100, 101)
DESK_TRAIN = TrainConfig(
    learning_rate=5e-3, momentum=0.9, weight_decay=1e-6, epochs=10, batch_size=48, seed=7
)
DESK_FINETUNE = TrainConfig(
    learning_rate=1e-3, momentum=0.9, weight_decay=1e-6, epochs=5, batch_size=48, seed=9
)
DESK_PROBE_SEED = 5
DESK_MORPH_SEED = 5
# folding rebalances alg2's refit scaling; alg1's literal form is healthy as is
DESK_FOLD = {"alg1": False, "alg2": True, "alg3": False, "baseline": False}


def report_numbers(report):
    d = dataclasses.asdict(report)
    d.pop("wall_time_s")
    return d


def desk_parent(train):
    layers = [
        Layer(init_weights(784, 64, "relu", DESK_PARENT_SEEDS[0]), np.zeros(64), "relu"),
        Layer(
            init_weights(64, 10, "identity", DESK_PARENT_SEEDS[1]), np.zeros(10), "identity"
        ),
    ]
    parent, _ = train_sgd(Mlp(layers), train, DESK_TRAIN)
    return parent


def desk_finetune(child, train):
    """The child fine-tuned as `morphkit finetune` tunes it: the layers
    above the insertion trained, layers 0 to `insert_after` held fixed."""
    return train_above(child, train, DESK_FINETUNE, DESK_INSERT_AFTER + 1)[0]


def desk_spec(algorithm, **kw):
    return MorphSpec(
        insert_after=DESK_INSERT_AFTER,
        width=DESK_WIDTH,
        activation="relu",
        algorithm=algorithm,
        sparse=SparseConfig(lam=DESK_LAMBDA, alpha=DESK_ALPHA),
        seed=DESK_MORPH_SEED,
        fold_beta=DESK_FOLD[algorithm],
        **kw,
    )


@pytest.fixture(scope="module")
def desk():
    full = synth_lowrank_dataset(DESK_DATA_SEED, 7000)
    train = Dataset(full.features[:6000], full.labels[:6000])
    test = Dataset(full.features[6000:], full.labels[6000:])
    parent = desk_parent(train)
    _, parent_acc = evaluate(parent, test)
    probe = train.features[sample_rows(train.n, 4096, DESK_PROBE_SEED)]

    runs = {}
    for algorithm in ("alg1", "alg2", "alg3", "baseline"):
        child, report = morph(parent, desk_spec(algorithm), probe)
        _, post_acc = evaluate(child, test)
        _, tuned_acc = evaluate(desk_finetune(child, train), test)
        runs[algorithm] = {
            "child": child,
            "report": report,
            "post_acc": post_acc,
            "tuned_acc": tuned_acc,
        }
    return {
        "train": train,
        "test": test,
        "parent": parent,
        "parent_acc": parent_acc,
        "probe": probe,
        "runs": runs,
    }


@pytest.fixture(scope="module")
def solver_oracles():
    """The verify solver checks over enough seeds for 200 coordinate
    replays and 200 solves per solver type: each diagonal oracle seed
    replays 20 instances, each residual oracle seed 10, and each
    stationarity seed solves 10. Returns the worst single-update increase
    of the objective."""
    worst = max(
        [verify.check_diag_coordinate_oracle(seed) for seed in range(10)]
        + [verify.check_residual_coordinate_oracle(seed) for seed in range(20)]
    )
    converged = sum(
        verify.check_diag_solver_stationarity(seed) + verify.check_residual_solver_stationarity(seed)
        for seed in range(20)
    )
    assert converged >= 300  # the stationarity oracle must not be vacuous
    return worst


def test_coordinate_update_oracle(solver_oracles):
    # the fixture already asserted grid optimality and KKT residuals
    print("PASS  coordinate-update oracle: 200 instances per flavor, "
          "grid step 1e-4, KKT residual <= 1e-6")


def test_objective_monotonicity(solver_oracles):
    assert solver_oracles <= 1e-10
    print(f"PASS  objective monotonicity: worst single-update increase "
          f"{solver_oracles:.3e} <= 1e-10")


def test_stacked_loss_equivalence():
    for seed in range(5):  # 20 instances each
        verify.check_stacked_loss_equivalence(seed)
    print("PASS  stacked-loss equivalence: 100 instances within 1e-10 relative")


def test_relaxation_bounds():
    lows, highs = zip(*(verify.check_relaxation_bounds(seed) for seed in range(10)))
    print(f"PASS  relaxation bounds: beta stayed within "
          f"[{min(lows):.2e}, {max(highs):.6f}] on 100 penalty-only instances")


def test_exact_preservation_constructions():
    worst = max(
        max(verify.check_identity_preservation(seed), verify.check_relu_mirror_preservation(seed))
        for seed in range(5)
    )
    print(f"PASS  exact preservation constructions: worst max-error {worst:.3e} <= 1e-6")


def test_trainer_gradient_check():
    worst = max(verify.check_trainer_gradients(seed) for seed in range(5))
    print(f"PASS  trainer gradient check: worst relative error {worst:.3e} <= 1e-4")


def test_desk_experiment(desk):
    parent_acc = desk["parent_acc"]
    assert parent_acc >= 0.95, f"parent reached only {parent_acc:.4f}"
    lines = [f"parent accuracy {parent_acc:.4f}"]
    for algorithm in ("alg1", "alg2", "alg3"):
        run = desk["runs"][algorithm]
        report = run["report"]
        assert 0 < report.n_sparse < DESK_WIDTH
        removed = 1.0 - report.compression_ratio
        assert removed >= 0.20, f"{algorithm} removed only {removed:.0%}"
        assert run["post_acc"] >= parent_acc - 0.020, (
            f"{algorithm} post-morph {run['post_acc']:.4f} vs parent {parent_acc:.4f}"
        )
        assert run["tuned_acc"] >= parent_acc - 0.005, (
            f"{algorithm} fine-tuned {run['tuned_acc']:.4f} vs parent {parent_acc:.4f}"
        )
        lines.append(
            f"{algorithm}: {DESK_WIDTH} -> {report.n_sparse} neurons, "
            f"post {run['post_acc']:.4f}, tuned {run['tuned_acc']:.4f}"
        )
    print("PASS  desk experiment: " + "; ".join(lines))


def test_baseline_dominance(desk):
    base = desk["runs"]["baseline"]
    assert base["report"].compression_ratio == 1.0
    for algorithm in ("alg1", "alg2", "alg3"):
        run = desk["runs"][algorithm]
        assert run["report"].n_sparse < 0.8 * DESK_WIDTH
        assert run["tuned_acc"] >= base["tuned_acc"] - 0.005, (
            f"{algorithm} tuned {run['tuned_acc']:.4f} vs baseline {base['tuned_acc']:.4f}"
        )
    print(
        f"PASS  baseline dominance: sparsified children within 0.5 points of "
        f"the width-{DESK_WIDTH} baseline ({base['tuned_acc']:.4f}) using < 80 neurons"
    )


def test_determinism(desk):
    parent = desk_parent(desk["train"])
    _, parent_acc = evaluate(parent, desk["test"])
    assert parent_acc == desk["parent_acc"]
    for before, after in zip(desk["parent"].layers, parent.layers):
        np.testing.assert_array_equal(before.weight, after.weight)
        np.testing.assert_array_equal(before.bias, after.bias)

    for algorithm in ("alg1", "alg3"):
        child, report = morph(parent, desk_spec(algorithm), desk["probe"])
        assert report_numbers(report) == report_numbers(desk["runs"][algorithm]["report"])
        _, post_acc = evaluate(child, desk["test"])
        assert post_acc == desk["runs"][algorithm]["post_acc"]
        _, tuned_acc = evaluate(desk_finetune(child, desk["train"]), desk["test"])
        assert tuned_acc == desk["runs"][algorithm]["tuned_acc"]
    print("PASS  determinism: identical seeds reproduced every desk number exactly")
