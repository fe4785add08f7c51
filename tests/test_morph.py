"""Layer-insertion tests: the four algorithms, pruning exactness,
preservation metrics, folding, and determinism."""

import dataclasses
import importlib
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

morph_mod = importlib.import_module("morphkit.morph")
sparse_mod = importlib.import_module("morphkit.sparse")
from morphkit.errors import EmptyLayerError, MorphkitError, ShapeError
from morphkit.linalg import vectorize
from morphkit.morph import (
    NO_SIGNAL_ADVICE,
    MorphReport,
    MorphSpec,
    PreparedProbe,
    contribution_matrices,
    morph,
    prepare_probe,
    preservation_error,
    sample_rows,
)
from morphkit.network import Layer, Mlp, apply_activation, forward, init_weights
from morphkit.sparse import SparseConfig
from morphkit.verify import (
    check_identity_preservation,
    check_relu_mirror_preservation,
    check_similarity_covariance,
    random_mlp,
    redundant_w1,
    stack_contributions,
)


def random_parent(seed, widths=(6, 5, 3), hidden="relu", bias=True):
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(widths) - 1):
        act = hidden if k < len(widths) - 2 else "identity"
        w = rng.normal(size=(widths[k], widths[k + 1])) * 0.7
        b = rng.normal(size=widths[k + 1]) * 0.2 if bias else None
        layers.append(Layer(w, b, act))
    return Mlp(layers)


def spec_for(alg, width=8, lam=0.1, alpha=0.1, seed=3, **kw):
    return MorphSpec(
        insert_after=0,
        width=width,
        activation="relu",
        algorithm=alg,
        sparse=SparseConfig(lam=lam, alpha=alpha),
        seed=seed,
        **kw,
    )


def probe_for(seed, rows, cols):
    return np.random.default_rng(seed).normal(size=(rows, cols))


def reports_equal(a: MorphReport, b: MorphReport) -> bool:
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    return da == db


class TestPreservationConstructions:
    def test_identity_activation_exact(self):
        check_identity_preservation(2)

    def test_relu_mirror_exact(self):
        check_relu_mirror_preservation(5)

    def test_baseline_identity_exact(self):
        parent = random_parent(6, hidden="identity")
        probe = probe_for(7, 60, 6)
        spec = MorphSpec(insert_after=0, width=5, activation="identity",
                         algorithm="baseline", seed=8)
        _, report = morph(parent, spec, probe)
        assert report.preservation_max <= 1e-6


class TestAlg1:
    def test_huge_lambda_raises_empty_layer(self):
        parent = random_parent(9)
        probe = probe_for(10, 60, 6)
        with pytest.raises(EmptyLayerError, match="alg1 at lambda 1e\\+09 zeroed the coefficient "
                           "of every one of the 8 candidate neurons; use a smaller lambda"):
            morph(parent, spec_for("alg1", lam=1e9), probe)

    def test_silent_kept_neurons_do_not_blame_lambda(self):
        # at lambda 0 alg1 keeps every candidate; negative weights over relu
        # inputs make each one silent on every probe row
        parent = random_parent(57)
        w1 = -np.abs(init_weights(5, 8, "relu", 59))
        spec = spec_for("alg1", lam=0.0, alpha=0.0)
        with pytest.raises(EmptyLayerError) as info:
            morph(parent, spec, probe_for(58, 90, 6), w1_init=w1)
        message = str(info.value)
        assert message.startswith("all 8 neurons alg1 kept are silent on every probe row; ")
        assert message.endswith(NO_SIGNAL_ADVICE)
        assert "lambda" not in message

    @pytest.mark.parametrize("alg", ["alg1", "alg2"])
    def test_constant_candidates_do_not_blame_lambda(self, alg):
        # a zero first layer makes every candidate output constant on the probe
        parent = random_parent(57)
        parent.layers[0] = Layer(np.zeros((6, 5)), np.zeros(5), "relu")
        with pytest.raises(EmptyLayerError) as info:
            morph(parent, spec_for(alg), probe_for(58, 90, 6))
        assert str(info.value) == f"all 8 candidate neurons are constant on the probe; {NO_SIGNAL_ADVICE}"

    def test_child_structure(self):
        parent = random_parent(11)
        probe = probe_for(12, 90, 6)
        child, report = morph(parent, spec_for("alg1"), probe)
        assert len(child.layers) == len(parent.layers) + 1
        assert child.layers[1].d_out == report.n_sparse
        assert child.layers[1].bias is None
        assert 0 < report.n_sparse <= report.n_redundant
        assert report.compression_ratio == report.n_sparse / report.n_redundant
        # untouched layers shared verbatim
        np.testing.assert_array_equal(child.layers[0].weight, parent.layers[0].weight)

    def test_report_records_the_solve(self, monkeypatch):
        solved = []

        def recording(r, cfg):
            solved.append(r)
            return sparse_mod.iilasso_diag(r, cfg)

        monkeypatch.setattr(morph_mod, "iilasso_diag", recording)
        spec = spec_for("alg1")
        _, report = morph(random_parent(11), spec, probe_for(12, 90, 6))
        (r,) = solved
        sol = sparse_mod.iilasso_diag(r, spec.sparse)
        assert report.sparse_sweeps == sol.sweeps_run > 0
        assert report.sparse_objective == float(sol.objective_trace[-1])
        assert report.sparse_stop_reason == sol.stop_reason

    def test_insert_position_validated(self):
        parent = random_parent(13)
        probe = probe_for(14, 40, 6)
        with pytest.raises(ShapeError):
            morph(parent, dataclasses.replace(spec_for("alg1"), insert_after=1), probe)

    def test_underdetermined_probe_warns(self):
        parent = random_parent(15)
        probe = probe_for(16, 4, 6)  # fewer rows than the 5 kept neurons and the bias
        with pytest.warns(RuntimeWarning, match="ridge"):
            morph(parent, spec_for("alg1", lam=0.0), probe)

    @pytest.mark.parametrize("alg", ["alg1", "alg2"])
    def test_selection_never_standardizes_candidate_outputs(self, monkeypatch, alg):
        # the selection reads the probe covariance, not the N x width outputs
        parent = random_parent(19)
        probe = probe_for(20, 90, 6)
        _, want = morph(parent, spec_for(alg), probe)

        def standardized(*args):
            raise AssertionError("the morph standardized the candidate outputs")

        monkeypatch.setattr(importlib.import_module("morphkit.linalg"), "standardize_columns",
                            standardized)
        _, report = morph(parent, spec_for(alg), probe)
        assert reports_equal(report, want)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 0.5),
        alpha=st.floats(0.01, 1.0),
    )
    def test_redundant_candidates(self, seed, lam, alpha):
        # R from the probe covariance matches the standardized outputs', so
        # a duplicate pair sits at R_CAP: alg1 keeps at most one of it, and
        # never a candidate that is constant on the probe
        check_similarity_covariance(seed)
        rng = np.random.default_rng(seed)
        d1, width = 6, 10
        first = Layer(rng.normal(size=(5, d1)), rng.normal(size=d1), "identity")
        first.weight[:, 0] = 0.0  # input 0 of the inserted layer is constant
        parent = Mlp([first, Layer(rng.normal(size=(d1, 3)), rng.normal(size=3), "identity")])
        w1 = redundant_w1(rng, d1, width)
        spec = spec_for("alg1", width=width, lam=lam, alpha=alpha)
        child, _ = morph(parent, spec, rng.normal(size=(40, 5)), w1_init=w1)
        kept_w1 = child.layers[1].weight.T
        kept = [j for j in range(width) if (kept_w1 == w1[:, j]).all(axis=1).any()]
        assert len(kept) == len(kept_w1)
        assert not {0, 1} <= set(kept)
        assert 2 not in kept and 3 not in kept

    @pytest.mark.parametrize("alg", ["alg1", "alg2"])
    def test_probe_dead_neuron_dropped(self, alg):
        # a relu parent's activations are nonnegative, so a column of
        # negative weights never fires on the probe; the solver, which
        # scores pre-activations, keeps it
        parent = random_parent(57)
        probe = probe_for(58, 90, 6)
        w1 = init_weights(5, 8, "relu", 59)
        w1[:, 3] = -np.abs(w1[:, 3])
        spec = spec_for(alg, lam=0.0, alpha=0.0)
        child, report = morph(parent, spec, probe, w1_init=w1)
        assert report.n_sparse == 7
        assert child.layers[1].d_out == 7
        assert report.ridge_fallbacks == 0
        assert not (child.layers[1].weight <= 0).all(axis=0).any()


class TestAlg2:
    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(morph_mod, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(morph_mod, name, counted)
        return calls

    def test_one_solve_and_one_refit(self, monkeypatch):
        parent = random_parent(17)
        probe = probe_for(18, 90, 6)
        solves = self.counting(monkeypatch, "iilasso_diag")
        refits = self.counting(monkeypatch, "refit_w1")
        morph(parent, spec_for("alg2"), probe)
        assert len(solves) == 1
        assert len(refits) == 1

    def test_n_sparse_matches_alg1(self):
        parent = random_parent(17)
        probe = probe_for(18, 90, 6)
        for lam in (0.05, 0.1, 0.3):
            spec1 = spec_for("alg1", lam=lam, seed=19)
            _, rep1 = morph(parent, spec1, probe)
            _, rep2 = morph(parent, dataclasses.replace(spec1, algorithm="alg2"), probe)
            assert rep2.n_sparse == rep1.n_sparse
            assert rep2.sparse_stop_reason == rep1.sparse_stop_reason

    def test_folded_downstream_matches_alg1(self):
        # the refit target a1 @ w1 lies in the span of a1, so the refit only
        # rescales the kept columns and the readout absorbs the scale
        parent = random_parent(17)
        probe = probe_for(18, 90, 6)
        spec1 = spec_for("alg1", seed=19, fold_beta=True)
        child1, _ = morph(parent, spec1, probe)
        child2, _ = morph(parent, dataclasses.replace(spec1, algorithm="alg2"), probe)
        np.testing.assert_allclose(
            forward(child2, probe).pre_activations[2],
            forward(child1, probe).pre_activations[2],
            rtol=0, atol=1e-9,
        )

    def test_refit_reads_a1_and_its_target_once(self, monkeypatch):
        # every finiteness check is one `linalg.sum_of_squares` read of its array
        rng = np.random.default_rng(40)
        parent = random_mlp(rng, [30, 12, 3], ["relu", "identity"])
        prepared = prepare_probe(parent, 0, rng.normal(size=(200, 30)))
        spec = spec_for("alg2", width=20, seed=40)
        want, _ = morph(parent, spec, prepared)
        linalg_mod = importlib.import_module("morphkit.linalg")
        reads, refits = [], []
        original_sum, original_refit = linalg_mod.sum_of_squares, morph_mod.refit_w1

        def read(arr):
            reads.append(arr)
            return original_sum(arr)

        def refit(a1, o_new, beta):
            refits.append((a1, o_new))
            return original_refit(a1, o_new, beta)

        monkeypatch.setattr(linalg_mod, "sum_of_squares", read)
        monkeypatch.setattr(morph_mod, "refit_w1", refit)
        child, _ = morph(parent, spec, prepared)
        [(a1, o_new)] = refits
        assert a1 is prepared.a1 and o_new.shape == (200, 20)
        assert [sum(r is a for r in reads) for a in (a1, o_new)] == [1, 1]
        for got, expected in zip(child.layers, want.layers):  # the same child, bit for bit
            assert got.weight.tobytes() == expected.weight.tobytes()
            assert (got.bias is None) == (expected.bias is None)
            assert got.bias is None or got.bias.tobytes() == expected.bias.tobytes()

    def test_refit_fallback_counted(self, monkeypatch):
        # 4 probe rows make a1 (4 x 5) rank-deficient, so the refit falls back
        parent = random_parent(15)
        probe = probe_for(16, 4, 6)
        refit_flags = []
        original = sparse_mod.least_squares_with_fallback

        def recorded(*args, **kwargs):
            w, fell_back = original(*args, **kwargs)
            refit_flags.append(fell_back)
            return w, fell_back

        monkeypatch.setattr(sparse_mod, "least_squares_with_fallback", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, rep1 = morph(parent, spec_for("alg1", lam=0.3), probe)
            _, rep2 = morph(parent, spec_for("alg2", lam=0.3), probe)
        assert refit_flags == [True]
        assert rep2.ridge_fallbacks == rep1.ridge_fallbacks + 1

    def test_underdetermined_refit_warns_and_counts(self, monkeypatch):
        # an 8-row probe gives the refit an 8 x 10 design; at this seed the
        # Cholesky factorization of its rank-deficient Gram succeeds through
        # rounding, so only the row count shows that the fit needs a ridge
        rng = np.random.default_rng(39)
        parent = random_mlp(rng, [6, 10, 3], ["relu", "identity"])
        probe = rng.normal(size=(8, 6))
        refit_flags = []
        original = sparse_mod.least_squares_with_fallback

        def recorded(*args, **kwargs):
            w, fell_back = original(*args, **kwargs)
            refit_flags.append(fell_back)
            return w, fell_back

        monkeypatch.setattr(sparse_mod, "least_squares_with_fallback", recorded)
        runs = []
        for alg in ("alg1", "alg2"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _, report = morph(parent, spec_for(alg, lam=0.05, seed=39), probe)
            runs.append((report.ridge_fallbacks, [str(w.message) for w in caught]))
        (fallbacks1, messages1), (fallbacks2, messages2) = runs
        assert refit_flags == [True]
        assert fallbacks2 == fallbacks1 + 1
        assert [m for m in messages2 if m not in messages1] == [
            "a least-squares design has 8 rows but 10 unknowns; applying an automatic ridge"]

    def test_reports_sparsity_bounds(self):
        parent = random_parent(23)
        probe = probe_for(24, 90, 6)
        _, report = morph(parent, spec_for("alg2"), probe)
        assert 0 < report.n_sparse <= report.n_redundant


class TestAlg3:
    def test_single_neuron_reconstruction_matches_direct_computation(self):
        parent = random_parent(25)
        probe = probe_for(26, 70, 6)
        spec = MorphSpec(insert_after=0, width=1, activation="relu",
                         algorithm="alg3", sparse=SparseConfig(lam=0.0, alpha=0.0), seed=27)
        child, _ = morph(parent, spec, probe)
        taps = forward(parent, probe)
        a_new = apply_activation("relu", taps.activations[0] @ child.layers[1].weight)
        direct = a_new @ child.layers[2].weight + child.layers[2].bias
        np.testing.assert_allclose(
            forward(child, probe).pre_activations[2], direct, atol=1e-12
        )

    def test_contribution_matrices_shape_and_values(self):
        rng = np.random.default_rng(28)
        a = rng.normal(size=(7, 3))
        w2 = rng.normal(size=(3, 4))
        t = contribution_matrices(a, w2)
        assert t.shape == (3, 7, 4)
        for i in range(3):
            np.testing.assert_allclose(t[i], np.outer(a[:, i], w2[i]), atol=1e-15)

    def test_pruning_consistency(self):
        # padding the pruned child back to full width with zero rows/columns
        # reproduces its output: dropped zero-coefficient terms were exact
        parent = random_parent(32)
        probe = probe_for(33, 90, 6)
        spec = spec_for("alg3", lam=0.3)
        child, report = morph(parent, spec, probe)
        assert report.n_sparse < spec.width  # something was pruned
        w1_full = init_weights(parent.layers[0].d_out, spec.width, "relu", spec.seed)
        kept = child.layers[1].weight
        active = []
        j = 0
        for col in range(spec.width):
            if j < kept.shape[1] and np.array_equal(w1_full[:, col], kept[:, j]):
                active.append(col)
                j += 1
        assert len(active) == report.n_sparse
        w2_padded = np.zeros((spec.width, child.layers[2].d_out))
        w2_padded[active] = child.layers[2].weight
        padded = Mlp(
            [child.layers[0], Layer(w1_full, None, "relu"),
             Layer(w2_padded, child.layers[2].bias, "identity")]
        )
        np.testing.assert_allclose(
            forward(padded, probe).pre_activations[2],
            forward(child, probe).pre_activations[2],
            atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        width=st.integers(1, 6),
        d2=st.integers(1, 5),
        dead=st.integers(0, 5),
    )
    def test_contribution_gram_matches_stack(self, seed, n, width, d2, dead):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, width))
        a[:, dead % width] = 0.0  # a neuron silent on every row
        w2 = rng.normal(size=(width, d2))
        target = rng.normal(size=(n, d2))
        gram, corr = morph_mod._contribution_gram(a, w2, target)
        z = stack_contributions(contribution_matrices(a, w2))
        want_gram, want_corr = z.T @ z, z.T @ vectorize(target)
        assert np.abs(gram - want_gram).max() <= 1e-12 * np.abs(want_gram).max()
        assert np.abs(corr - want_corr).max() <= 1e-12 * max(np.abs(want_corr).max(), 1e-300)
        assert gram[dead % width].tolist() == [0.0] * width
        assert corr[dead % width] == 0.0

    def test_every_contribution_dead_raises_empty_layer(self):
        # negative weights over relu activations never fire: the solver gets
        # an empty problem and nothing survives
        parent = random_parent(57)
        probe = probe_for(58, 90, 6)
        w1 = -np.abs(init_weights(5, 8, "relu", 59))
        with pytest.raises(EmptyLayerError):
            morph(parent, spec_for("alg3"), probe, w1_init=w1)

    def test_runs_without_contribution_stack(self, monkeypatch):
        parent = random_parent(34)
        probe = probe_for(35, 50, 6)
        spec = spec_for("alg3")
        _, want = morph(parent, spec, probe)

        def stack_built(*args):
            raise AssertionError("alg3 built the contribution stack")

        monkeypatch.setattr(morph_mod, "contribution_matrices", stack_built)
        _, report = morph(parent, spec, probe)
        assert reports_equal(report, want)


class TestBaseline:
    def test_compression_ratio_is_one(self):
        parent = random_parent(36)
        probe = probe_for(37, 60, 6)
        _, report = morph(parent, spec_for("baseline"), probe)
        assert report.compression_ratio == 1.0
        assert report.n_sparse == report.n_redundant == 8
        # no solver ran
        assert (report.sparse_stop_reason, report.sparse_sweeps) == ("none", 0)
        assert np.isnan(report.sparse_objective)

    def test_beats_random_downstream_weights(self):
        parent = random_parent(38)
        probe = probe_for(39, 80, 6)
        spec = spec_for("baseline")
        child, report = morph(parent, spec, probe)
        w1 = child.layers[1].weight
        w2_random = init_weights(spec.width, 3, "identity", spec.seed)
        random_child = Mlp(
            [parent.layers[0], Layer(w1, None, "relu"),
             Layer(w2_random, parent.layers[1].bias, "identity")]
        )
        _, random_rms = preservation_error(parent, random_child, probe, 0)
        assert report.preservation_rms <= random_rms + 1e-10


class TestRefitBenefit:
    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3", "baseline"])
    def test_final_fit_beats_fresh_init(self, alg):
        parent = random_parent(40)
        probe = probe_for(41, 90, 6)
        spec = spec_for(alg)
        child, report = morph(parent, spec, probe)
        n_sparse = child.layers[1].d_out
        fresh = Mlp(
            [child.layers[0], child.layers[1],
             Layer(init_weights(n_sparse, 3, "identity", spec.seed),
                   parent.layers[1].bias, "identity")]
        )
        _, fresh_rms = preservation_error(parent, fresh, probe, 0)
        assert report.preservation_rms <= fresh_rms + 1e-10

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3"])
    def test_readout_is_least_squares_on_kept_columns(self, alg, bias):
        # the downstream layer solves the normal equations on the kept
        # activations, unridged, while alg3's full-width scoring fit is
        # ridged and counted: singular where column 3 never fires, and
        # underdetermined on the 6-row probe, which has fewer rows than
        # candidates but at least as many as the kept neurons need
        w1 = init_weights(5, 8, "relu", 67)
        w1[:, 3] = -np.abs(w1[:, 3])
        cases = [
            (random_parent(65, bias=bias), probe_for(66, 120, 6), spec_for(alg), w1),
            (random_parent(15, bias=bias), probe_for(16, 6, 6), spec_for(alg, lam=0.3), None),
        ]
        for (parent, probe, spec, w1_init), underdetermined in zip(cases, [False, True]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                child, report = morph(parent, spec, probe, w1_init=w1_init)
            # only alg3's full-width scoring fit on the 6-row probe lacks rows
            assert len(caught) == int(underdetermined and alg == "alg3")
            taps = forward(child, probe)
            design = taps.activations[1]
            assert design.shape[1] == report.n_sparse < 8
            if bias:
                design = np.hstack([design, np.ones((len(probe), 1))])
            assert design.shape[0] >= design.shape[1]
            target = forward(parent, probe).pre_activations[1]
            residual = taps.pre_activations[2] - target
            scale = np.linalg.norm(design) * np.linalg.norm(target)
            assert np.abs(design.T @ residual).max() <= 1e-10 * scale
            assert report.ridge_fallbacks == (1 if alg == "alg3" else 0)


class TestPreservationError:
    def test_identical_networks_give_zero(self):
        parent = random_parent(42)
        probe = probe_for(43, 40, 6)
        assert preservation_error(parent, parent, probe, 0) == (0.0, 0.0)

    def test_row_permutation_invariant(self):
        parent = random_parent(44)
        probe = probe_for(45, 50, 6)
        child, _ = morph(parent, spec_for("alg1"), probe)
        a = preservation_error(parent, child, probe, 0)
        perm = np.random.default_rng(46).permutation(50)
        b = preservation_error(parent, child, probe[perm], 0)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_out_of_range_layer(self):
        parent = random_parent(47)
        probe = probe_for(48, 30, 6)
        with pytest.raises(ShapeError):
            preservation_error(parent, parent, probe, 5)


class TestReportedPreservation:
    """Morphs compute their reported preservation from the parent taps they
    already hold; it must equal a fresh preservation_error bit for bit."""

    VARIANTS = [
        ("alg1", {}),
        ("alg2", {"fold_beta": True}),
        ("alg3", {}),
        ("alg3", {"lam": 0.3}),
        ("baseline", {}),
    ]

    @staticmethod
    def assert_matches_fresh(parent, spec, probe):
        child, report = morph(parent, spec, probe)
        fresh = preservation_error(parent, child, probe, spec.insert_after)
        reported = (report.preservation_max, report.preservation_rms)
        assert [v.hex() for v in reported] == [v.hex() for v in fresh]

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("alg,extra", VARIANTS)
    def test_two_layer_parent(self, alg, extra, bias):
        parent = random_parent(61, bias=bias)
        self.assert_matches_fresh(parent, spec_for(alg, **extra), probe_for(62, 80, 6))

    @pytest.mark.parametrize("downstream_bias", [True, False])
    @pytest.mark.parametrize("alg,extra", VARIANTS)
    def test_insert_after_one_of_three(self, alg, extra, downstream_bias):
        rng = np.random.default_rng(63)
        parent = Mlp([
            Layer(rng.normal(size=(6, 7)) * 0.7, rng.normal(size=7) * 0.2, "relu"),
            Layer(rng.normal(size=(7, 5)) * 0.7, rng.normal(size=5) * 0.2, "tanh"),
            Layer(rng.normal(size=(5, 3)) * 0.7,
                  rng.normal(size=3) * 0.2 if downstream_bias else None, "identity"),
        ])
        spec = dataclasses.replace(spec_for(alg, **extra), insert_after=1)
        self.assert_matches_fresh(parent, spec, probe_for(64, 80, 6))


class TestFoldBeta:
    def test_folded_columns_are_the_unfolded_ones_times_beta(self, monkeypatch):
        betas = []

        def recording(r, cfg):
            sol = sparse_mod.iilasso_diag(r, cfg)
            betas.append(sol.beta)
            return sol

        monkeypatch.setattr(morph_mod, "iilasso_diag", recording)
        parent = random_parent(51)
        probe = probe_for(52, 90, 6)
        plain = spec_for("alg1")
        child_a, _ = morph(parent, plain, probe)
        child_b, _ = morph(parent, dataclasses.replace(plain, fold_beta=True), probe)
        beta, again = betas
        assert beta.tobytes() == again.tobytes()
        # no candidate is constant on the probe, so the solver scored all of
        # them; the children keep the nonzero-coefficient neurons that fire
        assert beta.shape == (plain.width,)
        w1 = init_weights(5, plain.width, "relu", plain.seed)
        fires = apply_activation("relu", forward(parent, probe).activations[0] @ w1).any(axis=0)
        kept = (beta != 0) & fires
        assert 0 < kept.sum() < (beta != 0).sum()  # one nonzero-coefficient neuron is silent
        assert child_a.layers[1].weight.tobytes() == w1[:, kept].tobytes()
        assert ((beta[kept] > 0) & (beta[kept] <= 1)).all()
        assert child_b.layers[1].weight.tobytes() == (child_a.layers[1].weight * beta[kept]).tobytes()

    def test_fold_flag_round_trip(self):
        parent = random_parent(51)
        probe = probe_for(52, 90, 6)
        plain = spec_for("alg1")
        folded = dataclasses.replace(plain, fold_beta=True)
        child_a, rep_a = morph(parent, plain, probe)
        child_b, rep_b = morph(parent, folded, probe)
        assert rep_a.n_sparse == rep_b.n_sparse
        # folding rescales columns but preserves the function after refit
        assert rep_b.preservation_rms <= rep_a.preservation_rms * 1.5 + 1e-9


class TestSampleRows:
    def test_covers_everything_when_large(self):
        np.testing.assert_array_equal(sample_rows(10, 10, 0), np.arange(10))
        np.testing.assert_array_equal(sample_rows(10, 99, 0), np.arange(10))
        np.testing.assert_array_equal(sample_rows(10, None, 0), np.arange(10))

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="probe rows"):
            sample_rows(10, count, 0)

    def test_sorted_unique_subset(self):
        rows = sample_rows(100, 30, 7)
        assert rows.shape == (30,)
        assert (np.diff(rows) > 0).all()
        assert rows.min() >= 0 and rows.max() < 100


class TestDeterminism:
    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3", "baseline"])
    def test_bit_identical_reruns(self, alg):
        parent = random_parent(53)
        probe = probe_for(54, 90, 6)
        spec = spec_for(alg)
        child_a, rep_a = morph(parent, spec, probe)
        child_b, rep_b = morph(parent, spec, probe)
        assert reports_equal(rep_a, rep_b)
        for la, lb in zip(child_a.layers, child_b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            if la.bias is not None:
                np.testing.assert_array_equal(la.bias, lb.bias)

    def test_fresh_interpreters_give_identical_bytes(self):
        # two processes with the same pinned BLAS thread count train a parent
        # and morph it; the children's weight bytes must agree
        script = (
            "import hashlib, numpy as np, morphkit as mk\n"
            "data = mk.synth_dataset(4, 300, 12, 3)\n"
            "net = mk.Mlp([mk.Layer(mk.init_weights(12, 16, 'relu', 1), np.zeros(16), 'relu'),\n"
            "              mk.Layer(mk.init_weights(16, 3, 'identity', 2), np.zeros(3), 'identity')])\n"
            "parent, _ = mk.train_sgd(net, data, mk.TrainConfig(epochs=2, batch_size=32, seed=3))\n"
            "h = hashlib.sha256()\n"
            "for alg in ('alg1', 'alg3'):\n"
            "    spec = mk.MorphSpec(insert_after=0, width=24, algorithm=alg, seed=5)\n"
            "    child, _ = mk.morph(parent, spec, data.features[:200])\n"
            "    for layer in child.layers:\n"
            "        h.update(layer.weight.tobytes())\n"
            "        h.update(b'' if layer.bias is None else layer.bias.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        digests = [
            subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True, timeout=120).stdout.strip()
            for _ in range(2)
        ]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_parent_never_mutated(self):
        parent = random_parent(55)
        snapshot = [l.weight.copy() for l in parent.layers]
        probe = probe_for(56, 90, 6)
        for alg in ("alg1", "alg2", "alg3", "baseline"):
            morph(parent, spec_for(alg), probe)
        for before, layer in zip(snapshot, parent.layers):
            np.testing.assert_array_equal(before, layer.weight)


class TestLogging:
    def test_one_info_record_per_morph(self, caplog):
        parent = random_parent(60)
        probe = probe_for(61, 90, 6)
        with caplog.at_level(logging.INFO, logger="morphkit"):
            for alg in morph_mod.ALGORITHM_NAMES:
                morph(parent, spec_for(alg), probe)
        records = [r for r in caplog.records if r.name.startswith("morphkit")]
        assert [r.levelno for r in records] == [logging.INFO] * 4
        assert [r.getMessage().split(":")[0] for r in records] == list(morph_mod.ALGORITHM_NAMES)


class TestGeneratedEdgeCases:
    """Probes with fewer rows than candidates, and lambdas that zero every
    coefficient: a morph returns a finite child or raises EmptyLayerError,
    never a numpy error."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alg=st.sampled_from(morph_mod.ALGORITHM_NAMES),
        width=st.integers(3, 16),
        rows=st.integers(2, 15),
        lam=st.sampled_from([0.0, 0.1, 1e6]),
        bias=st.booleans(),
    )
    def test_short_probe_or_all_zero_beta(self, seed, alg, width, rows, lam, bias):
        assume(rows < width)
        parent = random_parent(seed, bias=bias)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # underdetermined fits are ridged
            try:
                child, report = morph(parent, spec_for(alg, width=width, lam=lam),
                                      probe_for(seed, rows, 6))
            except EmptyLayerError:
                return
        assert alg == "baseline" or lam < 1e6, "a lambda of 1e6 zeroes every coefficient"
        for layer in child.layers:
            assert np.isfinite(layer.weight).all()
            assert layer.bias is None or np.isfinite(layer.bias).all()
        assert np.isfinite([report.preservation_max, report.preservation_rms]).all()

    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3", "baseline"])
    def test_silent_layer_without_readout_bias(self, alg):
        # negative weights over relu activations never fire, and with no
        # downstream bias the readout design is all zeros
        parent = random_parent(57, bias=False)
        w1 = -np.abs(init_weights(5, 8, "relu", 59))
        with pytest.raises(EmptyLayerError) as info:
            morph(parent, spec_for(alg), probe_for(58, 90, 6), w1_init=w1)
        assert "silent" in str(info.value) and "lambda" not in str(info.value)
        assert str(info.value).endswith(NO_SIGNAL_ADVICE)

    @pytest.mark.parametrize("alg", ["alg2", "alg3"])
    def test_silent_layer_with_readout_bias_does_not_blame_lambda(self, alg):
        parent = random_parent(57)
        w1 = -np.abs(init_weights(5, 8, "relu", 59))
        with pytest.raises(EmptyLayerError) as info:
            morph(parent, spec_for(alg), probe_for(58, 90, 6), w1_init=w1)
        assert "lambda" not in str(info.value)
        assert str(info.value).endswith(NO_SIGNAL_ADVICE)


def layer_bytes(net):
    return [(l.activation, l.weight.tobytes(), None if l.bias is None else l.bias.tobytes())
            for l in net.layers]


class TestPreparedProbe:
    @pytest.mark.parametrize("insert_after", [0, 1])
    @pytest.mark.parametrize("alg,fold", [("alg1", False), ("alg2", True), ("alg3", False),
                                          ("baseline", False)])
    def test_same_bits_as_the_probe_batch(self, insert_after, alg, fold):
        parent = random_parent(70, widths=(6, 5, 4, 3))
        probe = probe_for(71, 90, 6)
        prepared = prepare_probe(parent, insert_after, probe)
        # one preparation serves morphs of every width and lambda
        for width, lam in ((8, 0.1), (12, 0.05)):
            spec = dataclasses.replace(spec_for(alg, width=width, lam=lam, fold_beta=fold),
                                       insert_after=insert_after)
            child, report = morph(parent, spec, probe)
            child_p, report_p = morph(parent, spec, prepared)
            assert layer_bytes(child_p) == layer_bytes(child)
            assert reports_equal(report_p, report)

    def test_other_parent_is_refused(self):
        parent, other = random_parent(72), random_parent(73)
        prepared = prepare_probe(other, 0, probe_for(74, 90, 6))
        with pytest.raises(MorphkitError, match="prepared for another parent.*prepare it again"):
            morph(parent, spec_for("alg1"), prepared)

    @pytest.mark.parametrize("layer,field", [(0, "weight"), (1, "bias")])
    def test_parent_changed_in_place_is_refused(self, layer, field):
        parent = random_parent(75, widths=(6, 5, 4, 3))
        prepared = prepare_probe(parent, 0, probe_for(76, 90, 6))
        getattr(parent.layers[layer], field)[0] += 1.0
        with pytest.raises(MorphkitError, match="prepare it again"):
            morph(parent, spec_for("alg1"), prepared)

    def test_layers_past_the_downstream_one_may_change(self):
        # the pass reads layers 0..insert_after+1 only, and so does the digest
        parent = random_parent(77, widths=(6, 5, 4, 3))
        probe = probe_for(78, 90, 6)
        prepared = prepare_probe(parent, 0, probe)
        parent.layers[2].weight[0, 0] += 1.0
        child, report = morph(parent, spec_for("alg1"), probe)
        child_p, report_p = morph(parent, spec_for("alg1"), prepared)
        assert layer_bytes(child_p) == layer_bytes(child) and reports_equal(report_p, report)

    def test_other_insert_after_is_refused(self):
        parent = random_parent(79, widths=(6, 5, 4, 3))
        prepared = prepare_probe(parent, 1, probe_for(80, 90, 6))
        with pytest.raises(MorphkitError, match="prepared for insert_after=1, but the spec "
                                                "inserts after 0; prepare it again"):
            morph(parent, spec_for("alg1"), prepared)

    def test_arrays_of_other_shapes_are_refused(self):
        parent = random_parent(81)
        prepared = prepare_probe(parent, 0, probe_for(82, 90, 6))
        wrong = PreparedProbe(0, prepared.a1[:, :4], prepared.downstream_pre,
                              prepared.parent_digest)
        with pytest.raises(ShapeError, match=r"shapes \(90, 4\) and \(90, 3\), expected"):
            morph(parent, spec_for("alg1"), wrong)

    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3", "baseline"])
    def test_read_only_arrays_morph(self, alg):
        parent = random_parent(83)
        probe = probe_for(84, 90, 6)
        prepared = prepare_probe(parent, 0, probe)
        prepared.a1.flags.writeable = prepared.downstream_pre.flags.writeable = False
        child, report = morph(parent, spec_for(alg), probe)
        child_p, report_p = morph(parent, spec_for(alg), prepared)
        assert layer_bytes(child_p) == layer_bytes(child) and reports_equal(report_p, report)

    def test_prepare_checks_insert_after_and_probe(self):
        parent = random_parent(85)
        with pytest.raises(ShapeError, match="insert_after=1 must index a non-final layer"):
            prepare_probe(parent, 1, probe_for(86, 90, 6))
        with pytest.raises(ShapeError, match="probe has 1 row; .* at least 2"):
            prepare_probe(parent, 0, probe_for(86, 1, 6))


class TestProbeValidation:
    @pytest.mark.parametrize("rows", [0, 1])
    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3", "baseline"])
    def test_fewer_than_two_rows_rejected(self, alg, rows):
        parent = random_parent(68)
        counted = "1 row" if rows == 1 else f"{rows} rows"
        with pytest.raises(ShapeError, match=f"probe has {counted}; .* at least 2"):
            morph(parent, spec_for(alg), probe_for(69, rows, 6))


class TestSpecValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            MorphSpec(insert_after=0, width=4, algorithm="alg9")

    def test_bad_width(self):
        with pytest.raises(ValueError):
            MorphSpec(insert_after=0, width=0)

    @pytest.mark.parametrize("alg", ["alg3", "baseline"])
    def test_fold_beta_only_with_diag_selectors(self, alg):
        # alg3 and baseline would ignore the flag, yet the model file would
        # record it
        with pytest.raises(ValueError, match=f"fold_beta applies to alg1 and alg2 only; {alg}"):
            MorphSpec(insert_after=0, width=4, algorithm=alg, fold_beta=True)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'softplus'"):
            MorphSpec(insert_after=0, width=4, activation="softplus")

    @pytest.mark.parametrize("act", ["sigmoid", "tanh"])
    def test_fold_beta_only_through_relu_and_identity(self, act):
        # refused when the spec is built, before any probe pass or solve
        with pytest.raises(ValueError, match=rf"relu and identity layers only: .* for '{act}'$"):
            MorphSpec(insert_after=0, width=4, activation=act, fold_beta=True)
