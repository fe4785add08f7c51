"""Sparse-solver tests: similarity matrix, shrinkage, both coordinate
solvers against grid-search / KKT / plain-Lasso oracles."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkit.errors import NotFiniteError, ShapeError, StandardizationError
from morphkit.sparse import (
    SparseConfig,
    iilasso_diag,
    iilasso_residual,
    refit_w1,
    similarity_matrix,
)
from morphkit.verify import (
    assert_matches_reference,
    check_diag_coordinate_oracle,
    check_diag_solver_stationarity,
    check_relaxation_bounds,
    check_residual_coordinate_oracle,
    check_solver_reference,
    check_stacked_loss_equivalence,
    coordinate_update,
    covariance,
    diag_objective,
    gram_form,
    random_r,
    scaled_contributions,
    soft_threshold,
    stack_contributions,
    stacked_objective,
)


class TestSimilarityMatrix:
    def test_orthogonal_columns_give_zero(self):
        x = np.zeros((8, 2))
        x[:4, 0] = [1, -1, 1, -1]
        x[4:, 1] = [3, -3, 3, -3]
        r = similarity_matrix(covariance(x), SparseConfig())
        np.testing.assert_array_equal(r, np.zeros((2, 2)))

    def test_duplicate_column_hits_cap(self):
        col = np.random.default_rng(0).normal(size=(12, 1))
        cfg = SparseConfig(r_cap=1e6)
        r = similarity_matrix(covariance(np.hstack([col, -3.0 * col])), cfg)
        assert r[0, 1] == cfg.r_cap

    def test_half_correlation_gives_one(self):
        # exact r = 0.5 construction: b = a/2 + (sqrt(3)/2) u with u orthogonal to a
        a = np.array([1.0, 1.0, -1.0, -1.0])
        u = np.array([1.0, -1.0, 1.0, -1.0])
        b = 0.5 * a + (np.sqrt(3.0) / 2.0) * u
        r = similarity_matrix(covariance(np.column_stack([a, 7.0 * b])), SparseConfig())
        np.testing.assert_allclose(r[0, 1], 1.0, rtol=1e-12)

    def test_unstandardized_rejected(self):
        # a constant column has no correlations to standardize into
        x = np.random.default_rng(1).normal(size=(10, 3))
        x[:, 1] = 4.0
        with pytest.raises(StandardizationError, match="column 1 has variance 0"):
            similarity_matrix(covariance(x), SparseConfig())

    def test_invariant_to_column_scale(self):
        # R depends on correlations only: rescaling the columns changes nothing
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 5))
        scale = rng.uniform(0.01, 100.0, size=5)
        cfg = SparseConfig()
        got = similarity_matrix(covariance(x * scale), cfg)
        want = similarity_matrix(covariance(x), cfg)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_structure(self):
        r = random_r(np.random.default_rng(2), 25, 6, SparseConfig())
        np.testing.assert_array_equal(r, r.T)
        assert (np.diag(r) == 0).all()
        assert (r >= 0).all()
        assert (r <= SparseConfig().r_cap).all()


class TestSparseConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["lam", "alpha", "tol", "r_cap"])
    def test_non_finite_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            SparseConfig(**{name: value})


class TestSoftThreshold:
    def test_positive_branch(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_negative_branch(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_interior_zero(self):
        assert soft_threshold(0.5, 1.0) == 0.0


class TestDiagSolver:
    def test_lambda_zero_self_response_gives_ones(self):
        cfg = SparseConfig(lam=0.0, alpha=0.0)
        sol = iilasso_diag(random_r(np.random.default_rng(3), 20, 4, cfg), cfg)
        np.testing.assert_allclose(sol.beta, np.ones(4), atol=1e-12)
        assert sol.stop_reason == "converged"

    def test_large_lambda_kills_everything(self):
        # every corr_j is 1, so a threshold above 1 zeroes every coefficient
        cfg = SparseConfig(lam=1.1, alpha=0.0)
        sol = iilasso_diag(random_r(np.random.default_rng(4), 20, 4, cfg), cfg)
        np.testing.assert_array_equal(sol.beta, np.zeros(4))
        assert sol.stop_reason == "target_nnz"

    def test_matches_exhaustive_grid_search(self):
        # beta is known to stay in [0,1], so the box grid covers it
        cfg = SparseConfig(lam=0.1, alpha=0.1, tol=1e-12, max_itr=5000)
        r = random_r(np.random.default_rng(5), 30, 3, cfg)
        sol = iilasso_diag(r, cfg)
        solver_obj = diag_objective(sol.beta, r, cfg)

        axis = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        # separable parts: 0.5*b^2 - b + lam*b for b >= 0, plus pair terms
        part = 0.5 * axis**2 - axis + cfg.lam * axis
        pair = cfg.lam * cfg.alpha
        base = part[:, None] + part[None, :] + pair * r[1, 2] * np.outer(axis, axis)
        cross = pair * (r[0, 1] * axis[:, None] + r[0, 2] * axis[None, :])
        best = np.inf
        for i, b0 in enumerate(axis):
            total = base + part[i] + b0 * cross
            m = total.min()
            if m < best:
                best = m
        # re-add the constant 0.5 of each (1 - b)^2 / 2 dropped from the parts
        grid_obj = best + 0.5 * 3
        assert solver_obj <= grid_obj + 1e-5

    def test_each_update_is_1d_optimal(self):
        check_diag_coordinate_oracle(6)

    def test_alpha_zero_reduces_to_plain_lasso(self):
        # without the similarity term each coordinate is the plain Lasso
        # solution S(1, lam) of its own separable problem
        cfg = SparseConfig(lam=0.15, alpha=0.0, tol=1e-12, max_itr=5000)
        sol = iilasso_diag(random_r(np.random.default_rng(7), 30, 6, cfg), cfg)
        np.testing.assert_allclose(sol.beta, np.full(6, soft_threshold(1.0, 0.15)), atol=1e-12)

    def test_relaxation_bounds(self):
        check_relaxation_bounds(8)

    def test_diagonal_neutrality(self):
        cfg = SparseConfig(lam=0.3, alpha=0.7)
        r = random_r(np.random.default_rng(9), 20, 4, cfg)
        assert (np.diag(r) == 0.0).all()
        for j in range(4):
            assert 1.0 / (1.0 + cfg.alpha * cfg.lam * r[j, j]) == 1.0
        # the written prefactor changes nothing: update equals bare shrinkage
        assert coordinate_update(0.8, 0.3, r[0, 0], cfg) == soft_threshold(0.8, 0.3)

    def test_objective_trace_non_increasing(self):
        check_diag_solver_stationarity(10)  # asserts the trace before stationarity

    def test_stop_reasons(self):
        r = random_r(np.random.default_rng(11), 20, 4, SparseConfig())
        cfg = SparseConfig(lam=0.01, alpha=0.1, max_itr=1)
        assert iilasso_diag(r, cfg).stop_reason == "max_itr"
        cfg = SparseConfig(lam=0.01, alpha=0.1, target_nnz=4)
        assert iilasso_diag(r, cfg).stop_reason == "target_nnz"

    def test_duplicate_pair_keeps_a_proper_subset(self):
        cfg = SparseConfig(lam=0.6, alpha=1.0)
        sol = iilasso_diag(random_r(np.random.default_rng(12), 25, 6, cfg, duplicate=True), cfg)
        assert 0 < np.count_nonzero(sol.beta) < 6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            iilasso_diag(np.zeros((4, 3)), SparseConfig())


class TestResidualSolver:
    def test_single_contribution_recovered(self):
        rng = np.random.default_rng(15)
        t = scaled_contributions(rng, 1, 12, 3)
        cfg = SparseConfig(lam=0.0, alpha=0.0)
        _, _, gram, corr = gram_form(t, t[0])
        sol = iilasso_residual(gram, corr, np.zeros((1, 1)), cfg)
        np.testing.assert_allclose(sol.beta, [1.0], atol=1e-12)

    def test_orthogonal_response_gives_zero(self):
        rng = np.random.default_rng(16)
        t = scaled_contributions(rng, 3, 10, 2)
        z = stack_contributions(t)
        y_vec = rng.normal(size=20)
        # project out every contribution so correlations vanish
        q, _ = np.linalg.qr(z)
        y_vec = y_vec - q @ (q.T @ y_vec)
        y = y_vec.reshape((10, 2), order="F")
        cfg = SparseConfig(lam=0.05, alpha=0.0)
        _, _, gram, corr = gram_form(t, y)
        sol = iilasso_residual(gram, corr, similarity_matrix(gram, cfg), cfg)
        np.testing.assert_array_equal(sol.beta, np.zeros(3))

    def test_kkt_stationarity_alpha_zero(self):
        rng = np.random.default_rng(17)
        t = scaled_contributions(rng, 3, 20, 2)
        y = rng.normal(size=(20, 2)) + 0.8 * t[0] - 0.5 * t[2]
        y = y - y.mean()
        cfg = SparseConfig(lam=0.2, alpha=0.0, tol=1e-12, max_itr=5000)
        z, y_vec, gram, corr = gram_form(t, y)
        r = similarity_matrix(gram, cfg)
        sol = iilasso_residual(gram, corr, r, cfg)
        m = z.shape[0]
        resid_corr = (y_vec - z @ sol.beta) @ z / m
        for j, bj in enumerate(sol.beta):
            if bj == 0:
                assert abs(resid_corr[j]) <= cfg.lam + 1e-6
            else:
                assert abs(abs(resid_corr[j]) - cfg.lam) <= 1e-6

    def test_each_update_is_1d_optimal(self):
        check_residual_coordinate_oracle(18)

    def test_trace_is_stacked_objective_less_a_constant(self):
        rng = np.random.default_rng(26)
        t = scaled_contributions(rng, 5, 14, 3)
        y = rng.normal(size=(14, 3)) + 0.6 * t[1]
        y -= y.mean()
        cfg = SparseConfig(lam=0.05, alpha=0.3, max_itr=1)
        z, y_vec, gram, corr = gram_form(t, y)
        r = similarity_matrix(gram, cfg)
        sol = iilasso_residual(gram, corr, r, cfg)
        constant = 0.5 / y_vec.shape[0] * float(y_vec @ y_vec)
        for got, b in zip(sol.objective_trace, [np.ones(5), sol.beta]):
            want = stacked_objective(z, y_vec, b, r, cfg)
            assert abs(got + constant - want) <= 1e-12 * abs(want)

    def test_frobenius_and_stacked_forms_agree(self):
        check_stacked_loss_equivalence(19)

    def test_unscaled_contributions_rejected(self):
        rng = np.random.default_rng(20)
        t = rng.normal(size=(3, 10, 2)) * 4
        _, _, gram, corr = gram_form(t, rng.normal(size=(10, 2)))
        with pytest.raises(StandardizationError):
            iilasso_residual(gram, corr, np.zeros((3, 3)), SparseConfig())

    def test_inconsistent_shapes_rejected(self):
        rng = np.random.default_rng(21)
        t = scaled_contributions(rng, 3, 10, 2)
        _, _, gram, corr = gram_form(t, rng.normal(size=(10, 2)))
        with pytest.raises(ShapeError):
            iilasso_residual(gram, corr[:2], np.zeros((3, 3)), SparseConfig())
        with pytest.raises(ShapeError):
            iilasso_residual(gram[:, :2], corr, np.zeros((3, 3)), SparseConfig())
        with pytest.raises(ShapeError):
            iilasso_residual(gram, corr, np.zeros((2, 2)), SparseConfig())


class TestRefitW1:
    def test_all_ones_recovers_weights(self):
        rng = np.random.default_rng(22)
        a1 = rng.normal(size=(30, 5))
        w0 = rng.normal(size=(5, 4))
        w, fell_back = refit_w1(a1, a1 @ w0, np.ones(4))
        assert not fell_back
        np.testing.assert_allclose(w, w0, atol=1e-8)

    def test_dead_coordinate_gets_zero_column(self):
        rng = np.random.default_rng(23)
        a1 = rng.normal(size=(20, 4))
        o = rng.normal(size=(20, 3))
        w, _ = refit_w1(a1, o, np.array([1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(w[:, 1], np.zeros(4))

    def test_refit_never_hurts_objective(self):
        rng = np.random.default_rng(24)
        a1 = rng.normal(size=(25, 4))
        o = rng.normal(size=(25, 5))
        beta = rng.uniform(0.2, 1.0, size=5)
        w_before = rng.normal(size=(4, 5))
        w_after, _ = refit_w1(a1, o, beta)
        res = lambda w: np.linalg.norm(o - a1 @ (w * beta[None, :]))
        assert res(w_after) <= res(w_before) + 1e-10

    def test_rank_deficient_design_handled(self):
        rng = np.random.default_rng(25)
        col = rng.normal(size=(20, 1))
        a1 = np.hstack([col, col])  # singular gram
        o = rng.normal(size=(20, 2))
        w, fell_back = refit_w1(a1, o, np.ones(2))
        assert fell_back
        assert np.isfinite(w).all()


    def test_underdetermined_design_ridged_with_warning(self):
        rng = np.random.default_rng(26)
        a1 = rng.normal(size=(3, 5))  # fewer rows than inserted inputs
        o = rng.normal(size=(3, 4))
        with pytest.warns(RuntimeWarning, match="3 rows but 5 unknowns"):
            w, fell_back = refit_w1(a1, o, np.ones(4))
        assert fell_back
        assert np.isfinite(w).all()

def float_bits(value) -> bytes:
    return struct.pack("<d", float(value))


class TestDiagSolverBitIdentity:
    """iilasso_diag runs its sweep on scalars with the update inlined; the
    iterates must stay those of `verify.reference_loop`, bit for bit, and
    the trace must be the penalty-only objective."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cold_start(self, seed):
        cfg = SparseConfig(lam=0.1, alpha=0.2, tol=1e-10, max_itr=500)
        assert_matches_reference(random_r(np.random.default_rng(seed), 40, 12, cfg), cfg)

    def test_alpha_zero(self):
        cfg = SparseConfig(lam=0.15, alpha=0.0, tol=1e-12, max_itr=2000)
        assert_matches_reference(random_r(np.random.default_rng(14), 30, 8, cfg), cfg)

    def test_target_nnz_stop(self):
        cfg = SparseConfig(lam=0.5, alpha=0.5, target_nnz=16)
        r = random_r(np.random.default_rng(15), 40, 20, cfg, duplicate=True)
        sol = assert_matches_reference(r, cfg)
        assert sol.stop_reason == "target_nnz"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 30),
        d=st.integers(1, 8),
        lam=st.floats(0.01, 1.5),
        alpha=st.sampled_from([0.0, 0.1, 1.0, 5.0]),
        duplicate=st.booleans(),
        target_nnz=st.integers(0, 3),
    )
    def test_generated_instances(self, seed, n, d, lam, alpha, duplicate, target_nnz):
        cfg = SparseConfig(lam=lam, alpha=alpha, target_nnz=target_nnz, tol=1e-9, max_itr=300)
        r = random_r(np.random.default_rng(seed), n, d, cfg, duplicate)
        assert_matches_reference(r, cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(allow_nan=True, allow_infinity=True),
        thr=st.floats(allow_nan=True, allow_infinity=True),
        r_jj=st.sampled_from([0.0, 0.5, 3.0, 1e6]),
    )
    def test_update_matches_numpy_shrinkage(self, rho, thr, r_jj):
        cfg = SparseConfig(lam=0.3, alpha=0.7)
        with np.errstate(all="ignore"):
            want = float(soft_threshold(rho, thr)) / (1.0 + cfg.alpha * cfg.lam * np.float64(r_jj))
        got = coordinate_update(rho, thr, r_jj, cfg)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert float_bits(got) == float_bits(want)

    def test_update_signed_zeros(self):
        cfg = SparseConfig()
        assert float_bits(coordinate_update(-0.05, 0.1, 0.0, cfg)) == float_bits(-0.0)
        assert float_bits(coordinate_update(0.05, 0.1, 0.0, cfg)) == float_bits(0.0)
        assert float_bits(coordinate_update(-0.0, 0.1, 0.0, cfg)) == float_bits(0.0)
        assert float_bits(coordinate_update(-0.0, -0.1, 0.0, cfg)) == float_bits(0.0)


class TestResidualSolverBitIdentity:
    """iilasso_residual runs the same inlined sweep in Gram form; its
    iterates must stay those of `verify.reference_loop` with rho_j =
    corr_j - G_j.beta + beta_j, bit for bit, -0.0 included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_start(self, seed):
        rng = np.random.default_rng(seed)
        t = scaled_contributions(rng, 10, 15, 3)
        y = rng.normal(size=(15, 3)) + t[0] - 0.7 * t[4]
        cfg = SparseConfig(lam=0.05, alpha=0.2, tol=1e-10, max_itr=500)
        _, _, gram, corr = gram_form(t, y - y.mean())
        assert_matches_reference(similarity_matrix(gram, cfg), cfg, gram, corr)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 20),
        d=st.integers(1, 8),
        q=st.integers(1, 4),
        lam=st.floats(0.001, 0.5),
        alpha=st.sampled_from([0.0, 0.1, 1.0, 5.0]),
        target_nnz=st.integers(0, 3),
    )
    def test_generated_instances(self, seed, n, d, q, lam, alpha, target_nnz):
        rng = np.random.default_rng(seed)
        t = scaled_contributions(rng, d, n, q)
        y = rng.normal(size=(n, q)) + rng.normal() * t[0]
        cfg = SparseConfig(lam=lam, alpha=alpha, target_nnz=target_nnz, tol=1e-9, max_itr=300)
        _, _, gram, corr = gram_form(t, y - y.mean())
        assert_matches_reference(similarity_matrix(gram, cfg), cfg, gram, corr)


@pytest.mark.parametrize("seed", range(3))
def test_solver_reference_check(seed):
    # both forms, small and at d = 64..256, where ddot takes its vector path
    assert check_solver_reference(seed) == 13


class TestNonFiniteStart:
    def test_overflowing_penalty_names_the_knobs(self):
        cfg = SparseConfig(lam=1e200, alpha=1e200)
        r = random_r(np.random.default_rng(27), 20, 4, cfg)
        with pytest.raises(NotFiniteError, match=r"starting iterate with lam 1e\+200, alpha "
                                                 r"1e\+200 and r_cap 1e\+06"):
            iilasso_diag(r, cfg)

    def test_gram_form_checks_before_the_first_sweep(self):
        rng = np.random.default_rng(28)
        t = scaled_contributions(rng, 3, 10, 2)
        _, _, gram, corr = gram_form(t, rng.normal(size=(10, 2)))
        cfg = SparseConfig(lam=1e300, alpha=1e300, max_itr=1)
        with pytest.raises(NotFiniteError, match="starting iterate"):
            iilasso_residual(gram, corr, similarity_matrix(gram, cfg), cfg)
