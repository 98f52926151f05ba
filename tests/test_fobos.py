import numpy as np
import pytest

from smoothprox import (
    GraphPenaltySpec,
    GroupPenaltySpec,
    Problem,
    SolverConfig,
    SolverError,
    StructureError,
    solve,
    solve_fobos,
)
from conftest import loss_gradient, loss_value, penalty_value, random_graph_spec, random_group_spec


def subgradient(spec, beta):
    """The subgradient ``solve_fobos`` steps along: ``C^T u``, u the blockwise
    unit direction of ``C beta``."""
    beta = np.asarray(beta, dtype=float)
    return spec.coupling(beta.shape[-1]).value_and_subgradient(beta)[1]


class TestDefaultC:
    """The step scale ``solve_fobos`` takes from the problem's shape and
    records in the trace header: ``0.1 / sqrt(N J)``, or ``0.1 / sqrt(N J K)``
    for an N x K response."""

    @staticmethod
    def header_c(rng, N, J, K=None):
        y = rng.standard_normal(N if K is None else (N, K))
        prob = Problem.least_squares(rng.standard_normal((N, J)), y)
        return solve_fobos(prob, SolverConfig(lam=0.1, max_iter=1))[1].header["c"]

    def test_univariate(self, rng):
        c = self.header_c(rng, 1000, 910)
        assert c == pytest.approx(0.1 / np.sqrt(910000.0))
        assert c == pytest.approx(1.0483e-4, rel=1e-4)

    def test_multivariate(self, rng):
        assert self.header_c(rng, 100, 30, 10) == pytest.approx(0.1 / np.sqrt(30000.0))

    def test_invalid(self):
        """A problem with no samples has no step scale: it is not made."""
        with pytest.raises(ValueError):
            Problem.least_squares(np.zeros((0, 10)), np.zeros(0))


class TestPenaltySubgradient:
    def test_group_off_kink(self):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1),), 1.0)
        np.testing.assert_allclose(
            subgradient(spec, [3.0, 4.0]), [0.6, 0.8]
        )

    def test_group_zero_block_gives_zero(self):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (2,)), 1.0)
        np.testing.assert_allclose(
            subgradient(spec, [0.0, 0.0, 2.0]), [0.0, 0.0, 1.0]
        )

    def test_graph_chain(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=1.0
        )
        # C beta = (1, 0): sign -> (1, 0), C^T back -> (1, -1, 0)
        np.testing.assert_allclose(
            subgradient(spec, [2.0, 1.0, 1.0]), [1.0, -1.0, 0.0]
        )

    def test_matrix_rows_each_carry_the_penalty(self, rng):
        spec = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 1.0), (1, 2, -0.5)), gamma=1.0)
        B = rng.standard_normal((4, 3))
        np.testing.assert_allclose(subgradient(spec, B), [subgradient(spec, row) for row in B])

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_subgradient_inequality(self, rng, K):
        # Omega(b2) >= Omega(b1) + <sg(b1), b2 - b1> for every pair
        for _ in range(25):
            if rng.uniform() < 0.5:
                spec = random_group_spec(rng, num_features=6)
            else:
                spec = random_graph_spec(rng, num_nodes=6)
            b1, b2 = rng.standard_normal((2, 6) if K is None else (2, K, 6)) * 2
            sg = subgradient(spec, b1)
            lhs = penalty_value(spec, b2)
            rhs = penalty_value(spec, b1) + np.vdot(sg, b2 - b1)
            assert lhs >= rhs - 1e-10

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_gamma_scaling(self, rng, K):
        beta = rng.standard_normal(4 if K is None else (K, 4))
        base = GroupPenaltySpec.with_unit_weights(((0, 1), (2, 3)), 1.0)
        scaled = GroupPenaltySpec.with_unit_weights(((0, 1), (2, 3)), 2.5)
        np.testing.assert_allclose(
            subgradient(scaled, beta),
            2.5 * subgradient(base, beta),
        )


class TestSolveFobos:
    def test_agrees_with_proximal_solver_on_lasso(self, rng):
        X = rng.standard_normal((40, 6))
        bt = np.zeros(6)
        bt[:2] = 1.0
        y = X @ bt + 0.05 * rng.standard_normal(40)
        prob = Problem.least_squares(X, y)
        lam = 0.5
        beta_prox, _ = solve(prob, SolverConfig(lam=lam, rel_tol=1e-12))
        beta_sub, _ = solve_fobos(
            prob,
            SolverConfig(lam=lam, max_iter=200000, rel_tol=0.0),
        )
        f = lambda b: loss_value(prob.loss, b) + lam * np.abs(b).sum()
        assert f(beta_sub) <= f(beta_prox) * (1.0 + 1e-3)
        np.testing.assert_allclose(beta_sub, beta_prox, atol=1e-2)

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_best_objective_non_increasing(self, rng, K):
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30 if K is None else (30, K))
        groups = ((0, 1, 2, 3), (4, 5, 6, 7)) if K is None else ((0, 1), (1, 2))
        spec = GroupPenaltySpec.with_unit_weights(groups, 1.0)
        prob = Problem.least_squares(X, y, spec)
        _, trace = solve_fobos(
            prob, SolverConfig(lam=0.3, max_iter=2000, rel_tol=0.0)
        )
        best = np.array(trace.smoothed_objectives)  # carries best-so-far
        assert (np.diff(best) <= 0.0).all()
        raw = np.array(trace.objectives)
        np.testing.assert_allclose(best, np.minimum.accumulate(raw))

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_step_scale_recorded_in_header(self, rng, K):
        y = np.array([1.0, 0.0, -1.0])
        prob = Problem.least_squares(np.eye(3), y if K is None else np.tile(y[:, None], K))
        _, trace = solve_fobos(prob, SolverConfig(lam=0.1, max_iter=50))
        assert trace.header["c"] == 0.1 / np.sqrt(9 * (K or 1))
        assert trace.header["f_smooth_field"] == "best_objective"

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_step_scale_defaults_to_the_shape(self, rng, K):
        """The header's ``c`` is the scale of the first step from zero, whose
        objective is the first recorded: ``beta_1 = soft_threshold(-c g(0),
        c lam)``, g the loss gradient."""
        y = rng.standard_normal(12 if K is None else (12, K))
        prob = Problem.least_squares(rng.standard_normal((12, 5)), y)
        c = 0.1 / np.sqrt(12 * 5 * (K or 1))
        _, trace = solve_fobos(prob, SolverConfig(lam=0.1, max_iter=1))
        assert trace.header["c"] == c
        step = -c * loss_gradient(prob.loss, np.zeros(prob.coef_shape))
        first = np.sign(step) * np.maximum(np.abs(step) - c * 0.1, 0.0)
        expected = loss_value(prob.loss, first) + 0.1 * np.abs(first).sum()
        assert trace.objectives == [pytest.approx(expected, rel=1e-12)]

    @pytest.mark.parametrize("smoothing", [{"mu": 1e-3}, {"epsilon": 1e-3}], ids=["mu", "epsilon"])
    def test_reads_no_smoothing_field(self, rng, smoothing):
        """FOBOS steps on the exact penalty: a ``mu`` or an ``epsilon`` in its
        settings changes no bit of its coefficients or objectives."""
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (2, 3, 4)), 1.0)
        prob = Problem.least_squares(rng.standard_normal((20, 5)), rng.standard_normal(20), spec)
        self.assert_same_run(prob, smoothing)

    @pytest.mark.parametrize("smoothing", [{"mu": 1e-3}, {"epsilon": 1e-3}], ids=["mu", "epsilon"])
    def test_reads_no_smoothing_field_on_a_graph_matrix(self, rng, smoothing):
        """The same on a graph penalty and an N x K response, whose subgradient
        goes through scipy's products."""
        spec = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 1.0), (1, 2, -0.5)), gamma=1.0)
        prob = Problem.least_squares(rng.standard_normal((20, 4)), rng.standard_normal((20, 3)), spec)
        self.assert_same_run(prob, smoothing)

    @staticmethod
    def assert_same_run(prob, smoothing):
        beta, trace = solve_fobos(prob, SolverConfig(lam=0.1, max_iter=30))
        beta_s, trace_s = solve_fobos(prob, SolverConfig(lam=0.1, max_iter=30, **smoothing))
        assert beta_s.tobytes() == beta.tobytes()
        assert trace_s.objectives == trace.objectives

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_non_finite_objective_raises(self, K):
        """The first step from zero is finite, but the objective there
        overflows: ``|y|`` is near the float range, so its square is not."""
        y = np.array([1e170, 1.0])
        prob = Problem.least_squares(np.eye(2), y if K is None else np.tile(y[:, None], K))
        with pytest.raises(SolverError, match="^non-finite objective at iteration 1$"):
            solve_fobos(prob, SolverConfig(max_iter=5))

    @pytest.mark.parametrize("K, max_iter", [(None, 20000), (3, 3000)], ids=["graph-vector", "group-matrix"])
    def test_penalty_decreases_objective(self, rng, K, max_iter):
        """The returned coefficients beat the zero start, and their exact
        objective is the best one recorded."""
        X = rng.standard_normal((40, 5))
        if K is None:
            y = X @ np.array([1.0, 1.0, 1.0, 0.0, 0.0]) + 0.05 * rng.standard_normal(40)
            spec = GraphPenaltySpec(num_nodes=5, edges=((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)), gamma=0.5)
        else:
            y = X @ rng.standard_normal((5, K)) + 0.1 * rng.standard_normal((40, K))
            spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        prob = Problem.least_squares(X, y, spec)
        lam = 0.2
        beta, trace = solve_fobos(prob, SolverConfig(lam=lam, max_iter=max_iter, rel_tol=0.0))
        f = lambda b: loss_value(prob.loss, b) + lam * np.abs(b).sum() + penalty_value(spec, b)
        assert beta.shape == prob.coef_shape
        assert f(beta) < f(np.zeros(prob.coef_shape))
        assert f(beta) == pytest.approx(trace.smoothed_objectives[-1], rel=1e-12)


class TestInputChecks:
    @pytest.mark.parametrize("num_nodes", [3, 7])
    @pytest.mark.parametrize("run", [
        lambda prob: solve(prob, SolverConfig(mu=1e-2, max_iter=3)),
        lambda prob: solve_fobos(prob, SolverConfig(max_iter=3)),
    ], ids=["solve", "solve_fobos"])
    def test_graph_node_count_checked_against_features(self, rng, num_nodes, run):
        spec = GraphPenaltySpec(num_nodes=num_nodes, edges=((0, 1, 1.0), (1, 2, -0.5)), gamma=1.0)
        with pytest.raises(StructureError, match=f"has {num_nodes} nodes, expected 5"):
            run(Problem.least_squares(rng.standard_normal((12, 5)), rng.standard_normal(12), spec))

    @pytest.mark.parametrize("spec, message", [
        (GraphPenaltySpec(num_nodes=7, edges=((0, 1, 1.0),), gamma=0.0), "has 7 nodes, expected 5"),
        (GroupPenaltySpec.with_unit_weights(((0, 9),), 0.0), "out of range for 5 features"),
        (GroupPenaltySpec.with_unit_weights(((0, 9),), 1.0), "out of range for 5 features"),
        ("group", "unknown penalty spec type str"),
        (object(), "unknown penalty spec type object"),
    ], ids=["graph-gamma0", "group-gamma0", "group", "str", "object"])
    @pytest.mark.parametrize("run", [
        lambda prob: solve(prob, SolverConfig(mu=1e-2, max_iter=3)),
        lambda prob: solve_fobos(prob, SolverConfig(max_iter=3)),
    ], ids=["solve", "solve_fobos"])
    def test_penalty_checked_whatever_gamma(self, rng, spec, message, run):
        with pytest.raises(StructureError, match=message):
            run(Problem.least_squares(rng.standard_normal((12, 5)), rng.standard_normal(12), spec))
