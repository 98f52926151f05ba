from dataclasses import replace

import numpy as np
import pytest

from smoothprox import (
    FobosConfig,
    GraphPenaltySpec,
    GroupPenaltySpec,
    MultiProblem,
    Problem,
    SolverConfig,
    StructureError,
    regularization_path,
    select_mu,
    solve,
    solve_fobos,
    solve_multivariate,
)
from conftest import alpha_star, block_bounds, central_difference_gradient, loss_value, penalty_value


def toy_problem(rng, n=25, j=4, k=3, spec=None):
    X = rng.standard_normal((n, j))
    B = rng.standard_normal((j, k))
    Y = X @ B + 0.1 * rng.standard_normal((n, k))
    return MultiProblem(X, Y, spec)


class TestMultiProblem:
    def test_shape_validation(self):
        with pytest.raises(StructureError):
            MultiProblem(np.ones((3, 2)), np.ones((4, 2)))

    def test_penalty_dimension_checked_against_outputs(self):
        spec = GraphPenaltySpec(num_nodes=5, edges=((0, 1, 1.0),), gamma=1.0)
        with pytest.raises(StructureError):
            MultiProblem(np.ones((3, 2)), np.ones((3, 2)), spec)


class TestMultiPenaltyValue:
    def test_group_rows_sum_norms(self):
        # one group over both outputs; rows (3,4) and (0,0)
        spec = GroupPenaltySpec.with_unit_weights(((0, 1),), 1.0)
        prob = MultiProblem(np.ones((3, 2)), np.ones((3, 2)), spec)
        assert penalty_value(spec, [[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0)

    def test_zero_matrix(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 2.0)
        prob = toy_problem(rng, k=3, spec=spec)
        assert penalty_value(spec, np.zeros((4, 3))) == 0.0

    def test_graph_sums_row_differences(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.0)
        prob = MultiProblem(np.ones((3, 2)), np.ones((3, 2)), spec)
        B = np.array([[1.0, 3.0], [2.0, 2.0]])
        assert penalty_value(spec, B) == pytest.approx(2.0)

    def test_single_output_reduces_to_vector_penalty(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0,),), 1.5)
        prob = MultiProblem(
            rng.standard_normal((5, 3)), rng.standard_normal((5, 1)), spec
        )
        B = rng.standard_normal((3, 1))
        # the output-side group {0} couples nothing across inputs, so the
        # matrix penalty is the l1 norm of the single column
        assert penalty_value(spec, B) == pytest.approx(
            1.5 * np.abs(B).sum(), rel=1e-12
        )
        vec_spec = GroupPenaltySpec.with_unit_weights(((0,), (1,), (2,)), 1.5)
        assert penalty_value(spec, B) == pytest.approx(
            penalty_value(vec_spec, B[:, 0]), rel=1e-12
        )


class TestSmoothedMatrixPenalty:
    def test_alpha_feasible(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        C = prob.penalty.coupling(prob.Y.shape[1])
        A = alpha_star(C, rng.standard_normal((4, 3)) * 3, 0.3)
        for a, b in block_bounds(C):
            assert (np.linalg.norm(A[a:b], axis=0) <= 1.0 + 1e-12).all()

    def test_graph_alpha_clipped(self, rng):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=1.0
        )
        prob = toy_problem(rng, k=3, spec=spec)
        A = alpha_star(prob.penalty.coupling(prob.Y.shape[1]), rng.standard_normal((4, 3)) * 5, 0.2)
        assert (np.abs(A) <= 1.0 + 1e-12).all()

    def test_sandwich_bound(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        mu = 0.05
        C = spec.coupling(3)
        for _ in range(20):
            B = rng.standard_normal((4, 3)) * rng.uniform(0.1, 4.0)
            exact = penalty_value(spec, B)
            smooth = C.smoothed_values(B, mu)[1]
            assert smooth <= exact + 1e-10
            assert smooth >= exact - mu * 4 * C.dual_bound - 1e-10

    def test_dual_bound_scales_with_inputs(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        X, Y = rng.standard_normal((10, 7)), rng.standard_normal((10, 3))
        _, trace = solve(Problem.least_squares(X, Y, spec), SolverConfig(epsilon=0.1, max_iter=2))
        assert trace.header["D"] == pytest.approx(7.0)
        assert trace.header["mu"] == select_mu(0.1, 7.0)

    def test_gradient_matches_finite_differences(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        C = spec.coupling(3)
        B = rng.standard_normal((4, 3))
        flat_value = lambda v: C.smoothed_values(v.reshape(4, 3), 0.2)[1]
        fd = central_difference_gradient(flat_value, B.ravel(), 1e-6)
        np.testing.assert_allclose(
            C.smoothed_gradient(B, 0.2).ravel(), fd, rtol=1e-5, atol=1e-8
        )

    def test_single_output_matches_vector_penalty(self, rng):
        # K=1 with group {0} equals the vector penalty with singleton groups
        spec = GroupPenaltySpec.with_unit_weights(((0,),), 1.0)
        mu = 0.1
        C = spec.coupling(1)
        vec_spec = GroupPenaltySpec.with_unit_weights(
            tuple((j,) for j in range(5)), 1.0
        )
        vec_C = vec_spec.coupling(5)
        beta = rng.standard_normal(5)
        B = beta.reshape(5, 1)
        assert C.smoothed_values(B, mu)[1] == pytest.approx(vec_C.smoothed_values(beta, mu)[1], rel=1e-12)
        np.testing.assert_allclose(
            C.smoothed_gradient(B, mu).ravel(), vec_C.smoothed_gradient(beta, mu), atol=1e-14
        )


class TestSolveMultivariate:
    def test_is_solve(self):
        assert solve_multivariate is solve

    def test_unpenalized_matches_columnwise_lasso(self, rng):
        prob = toy_problem(rng, k=3)
        lam = 0.3
        B, trace = solve_multivariate(prob, SolverConfig(lam=lam, rel_tol=1e-12))
        assert trace.status == "converged"
        for k in range(3):
            col_prob = Problem.least_squares(prob.X, prob.Y[:, k])
            beta, _ = solve(col_prob, SolverConfig(lam=lam, rel_tol=1e-12))
            np.testing.assert_allclose(B[:, k], beta, atol=1e-6)

    def test_single_output_matches_vector_solver(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0,),), 1.0)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        prob = MultiProblem(X, y.reshape(-1, 1), spec)
        config = SolverConfig(lam=0.2, mu=1e-3, rel_tol=1e-12)
        B, _ = solve_multivariate(prob, config)
        vec_spec = GroupPenaltySpec.with_unit_weights(
            tuple((j,) for j in range(5)), 1.0
        )
        beta, _ = solve(Problem.least_squares(X, y, vec_spec), config)
        np.testing.assert_allclose(B[:, 0], beta, atol=1e-12)

    def test_graph_penalty_fuses_output_columns(self, rng):
        X = rng.standard_normal((60, 4))
        bcol = rng.standard_normal(4)
        Y = np.column_stack([X @ bcol, X @ bcol]) + 0.01 * rng.standard_normal((60, 2))
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=20.0)
        prob = MultiProblem(X, Y, spec)
        B, _ = solve_multivariate(prob, SolverConfig(lam=0.0, mu=1e-5, rel_tol=1e-12))
        np.testing.assert_allclose(B[:, 0], B[:, 1], atol=1e-3)

    def test_exact_zero_entries(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2),), 1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        B, _ = solve_multivariate(prob, SolverConfig(lam=3.0, mu=1e-4))
        assert np.count_nonzero(B) < B.size

    def test_bad_warm_start_shape(self, rng):
        prob = toy_problem(rng, k=3)
        with pytest.raises(StructureError, match=r"^beta0 has shape \(2, 2\), expected \(4, 3\)$"):
            solve_multivariate(prob, SolverConfig(lam=0.1), np.zeros((2, 2)))


class TestMatrixResponse:
    """``solve``, ``solve_fobos`` and ``regularization_path`` take an N x K
    response and return J x K coefficients."""

    def test_regularization_path(self, rng):
        spec = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 0.8), (1, 2, -0.5)), gamma=1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        problem = Problem.least_squares(prob.X, prob.Y, spec)
        config = SolverConfig(mu=1e-3, rel_tol=1e-8)
        results = regularization_path(problem, [2.0, 1.0, 0.5], config)
        assert [beta.shape for _, beta, _ in results] == [(4, 3)] * 3
        B, _ = solve_multivariate(prob, replace(config, lam=2.0))
        np.testing.assert_array_equal(results[0][1], B)

    def test_fobos(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        problem = Problem.least_squares(prob.X, prob.Y, spec)
        lam = 0.2
        B, trace = solve_fobos(problem, FobosConfig(lam=lam, max_iter=3000))
        assert B.shape == (4, 3)
        f = lambda b: loss_value(problem.loss, b) + lam * np.abs(b).sum() + penalty_value(spec, b)
        assert f(B) < f(np.zeros((4, 3)))
        assert f(B) == pytest.approx(trace.smoothed_objectives[-1], rel=1e-12)

    @pytest.mark.parametrize("max_iter, rel_tol, atol, rel", [
        (150, 1e-300, 1e-12, 1e-12), (20000, 1e-13, 1e-4, 1e-9),
    ], ids=["step-for-step", "converged"])
    def test_logistic_matches_columnwise_solves(self, rng, max_iter, rel_tol, atol, rel):
        """With no penalty the K columns are K independent problems with the
        same step: the matrix run takes each column's steps.  Run to the end,
        each column stops at its own iteration, on a flat stretch where the
        objectives agree far more closely than the iterates."""
        X = rng.standard_normal((40, 5))
        Y = np.where(X @ rng.standard_normal((5, 3)) + rng.standard_normal((40, 3)) > 0, 1.0, -1.0)
        config = SolverConfig(lam=0.5, max_iter=max_iter, rel_tol=rel_tol)
        B, trace = solve(Problem.logistic(X, Y), config)
        columns = [solve(Problem.logistic(X, Y[:, k]), config) for k in range(3)]
        assert B.shape == (5, 3)
        for k, (beta, _) in enumerate(columns):
            np.testing.assert_allclose(B[:, k], beta, atol=atol)
        total = sum(col_trace.objectives[-1] for _, col_trace in columns)
        assert trace.objectives[-1] == pytest.approx(total, rel=rel)

    def test_non_finite_response_rejected_before_iterating(self, rng):
        prob = toy_problem(rng, k=3)
        Y = prob.Y.copy()
        Y[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_multivariate(MultiProblem(prob.X, Y), SolverConfig(lam=0.1))


class TestMultiProblemIsAProblem:
    """A ``MultiProblem`` goes to every solver entry point as it is."""

    def test_loss_built_once_on_first_use(self, rng):
        prob = toy_problem(rng)
        assert "loss" not in vars(prob)
        assert prob.loss is prob.loss

    def test_regularization_path(self, rng):
        spec = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 0.8), (1, 2, -0.5)), gamma=1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        config = SolverConfig(mu=1e-3, rel_tol=1e-8)
        results = regularization_path(prob, [2.0, 1.0, 0.5], config)
        assert [beta.shape for _, beta, _ in results] == [(4, 3)] * 3
        B, _ = solve_multivariate(prob, replace(config, lam=2.0))
        np.testing.assert_array_equal(results[0][1], B)

    def test_fobos_runs_to_max_iter(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        prob = toy_problem(rng, k=3, spec=spec)
        config = FobosConfig(lam=0.2, max_iter=50, rel_tol=0.0)
        B, trace = solve_fobos(prob, config)
        assert B.shape == (4, 3)
        assert trace.status == "max_iter" and len(trace) == 50
