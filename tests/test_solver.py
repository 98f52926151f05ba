import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest

import smoothprox.solver
from smoothprox import (
    CouplingMatrix,
    GraphPenaltySpec,
    GraphSimSpec,
    GroupPenaltySpec,
    OverlapSimSpec,
    Problem,
    SolverConfig,
    SolverError,
    StructureError,
    Trace,
    gen_graph_instance,
    gen_overlap_instance,
    iteration_bound,
    regularization_path,
    select_mu,
    soft_threshold,
    solve,
    solve_fobos,
    total_lipschitz,
)
from conftest import force_gram, loss_gradient, loss_value, penalty_value, unconverged_lanczos


class TestSoftThreshold:
    def test_entrywise_rule(self):
        np.testing.assert_allclose(
            soft_threshold([2.5, -0.3, 1.0], 1.0), [1.5, 0.0, 0.0]
        )

    def test_zero_threshold_identity(self, rng):
        v = rng.standard_normal(6)
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_sign_preserved(self):
        np.testing.assert_allclose(soft_threshold([-2.0], 0.5), [-1.5])

    def test_exact_zeros(self):
        out = soft_threshold([0.4, -0.4, 0.5], 0.5)
        assert (out == 0.0).all()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)

    @pytest.mark.parametrize("shape", [(910,), (200, 30)])
    def test_bit_identical_to_sign_max_form(self, rng, shape):
        """``v - clip(v, -t, t)`` equals ``sign(v) * max(0, |v| - t)`` bit for
        bit, ties at +-t and zeros included, but for the sign of zero: it
        gives +0.0 where the sign/max form gives -0.0."""
        t = 0.7
        v = rng.standard_normal(shape)
        v.flat[:8] = [t, -t, 0.0, -0.0, np.nextafter(t, 0.0), -np.nextafter(t, 0.0),
                      np.nextafter(t, 2.0), -np.nextafter(t, 2.0)]
        got = soft_threshold(v, t)
        want = np.sign(v) * np.maximum(0.0, np.abs(v) - t)
        assert got.shape == want.shape
        # x + 0.0 turns -0.0 into +0.0 and leaves every other value's bits alone
        np.testing.assert_array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))
        assert not np.signbit(got[got == 0.0]).any()
        assert np.count_nonzero(got) == np.count_nonzero(want)


class TestTotalLipschitz:
    def test_sum(self):
        assert total_lipschitz(1.0, np.sqrt(2.0), 1.0) == pytest.approx(3.0)

    def test_lasso_reduction(self):
        assert total_lipschitz(7.0, 0.0, 1e-4) == pytest.approx(7.0)

    def test_linear_in_inverse_mu(self):
        base = total_lipschitz(1.0, 2.0, 1.0)
        halved = total_lipschitz(1.0, 2.0, 0.5)
        assert halved - 1.0 == pytest.approx(2.0 * (base - 1.0))

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            total_lipschitz(1.0, 1.0, 0.0)


def reference_lasso_fista(X, y, lam, L, num_steps):
    """Plain FISTA for the lasso, written independently of the solver."""
    beta = np.zeros(X.shape[1])
    w = beta.copy()
    theta = 1.0
    iterates = []
    for t in range(num_steps):
        grad = X.T @ (X @ w - y)
        v = w - grad / L
        beta_next = np.sign(v) * np.maximum(0.0, np.abs(v) - lam / L)
        theta_next = 2.0 / (t + 3.0)
        w = beta_next + (1.0 - theta) / theta * theta_next * (beta_next - beta)
        beta, theta = beta_next, theta_next
        iterates.append(beta.copy())
    return iterates


@pytest.mark.parametrize("call", [
    lambda: select_mu(math.nan, 1.0),
    lambda: select_mu(1.0, math.nan),
    lambda: soft_threshold([1.0, -2.0], math.nan),
    lambda: total_lipschitz(1.0, 1.0, math.nan),
    lambda: iteration_bound(1.0, math.nan, 1.0, 1.0, 1.0),
    lambda: GroupPenaltySpec.with_unit_weights(((0,),), 1.0).coupling(1).smoothed_values([1.0], math.nan),
], ids=["select_mu-epsilon", "select_mu-D", "soft_threshold", "total_lipschitz",
        "iteration_bound", "smoothed_values-mu"])
def test_numeric_helpers_reject_nan(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: select_mu(1e-3, 1e-320), ValueError, r"^epsilon / \(2 D\) overflows at epsilon=0.001, D=1e-320$"),
    (lambda: total_lipschitz(1.0, 1.0, 1e-310), SolverError,
     r"^the Lipschitz constant L_loss \+ \|\|C\|\|\^2 / mu overflows at \|\|C\|\|=1.0, mu=1e-310$"),
    (lambda: total_lipschitz(1.0, 1e200, 1.0), SolverError, r"overflows at \|\|C\|\|=1e\+200, mu=1.0$"),
    (lambda: total_lipschitz(math.nan, 1.0, 1.0), ValueError, "^L_loss must be non-negative and finite, got nan$"),
    (lambda: total_lipschitz(math.inf, 1.0, 1.0), ValueError, "^L_loss must be non-negative and finite, got inf$"),
    (lambda: total_lipschitz(1.0, -2.0, 1.0), ValueError, "^norm_C must be non-negative and finite, got -2.0$"),
    (lambda: iteration_bound(1.0, 1e-320, 1.0, 1.0, 1.0), ValueError, "^the iteration bound overflows$"),
    (lambda: iteration_bound(1.0, 1.0, 1.0, 1.0, 1e200), ValueError, "^the iteration bound overflows$"),
    (lambda: iteration_bound(-1.0, 1.0, 1.0, 1.0, 1.0), ValueError, "^dist0 must be non-negative and finite, got -1.0$"),
    (lambda: iteration_bound(1.0, 1.0, math.inf, 1.0, 1.0), ValueError, "^L_loss must be non-negative and finite, got inf$"),
    (lambda: iteration_bound(1.0, 1.0, 1.0, -5.0, 1.0), ValueError, "^D must be non-negative and finite, got -5.0$"),
], ids=["select_mu-overflow", "total_lipschitz-subnormal-mu", "total_lipschitz-huge-norm", "total_lipschitz-nan",
        "total_lipschitz-inf", "total_lipschitz-negative", "iteration_bound-subnormal-epsilon",
        "iteration_bound-huge-norm", "iteration_bound-negative-dist", "iteration_bound-inf", "iteration_bound-negative-D"])
def test_numeric_helpers_reject_out_of_range(call, error, message):
    """Each of these returned inf, NaN or a number from a negative norm."""
    with pytest.raises(error, match=message):
        call()


class TestCouplingBuiltOnce:
    """A problem builds its coupling matrix on first use and keeps it."""

    @staticmethod
    def count_calls(mp, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        mp.setattr(owner, name, counted)
        return calls

    @staticmethod
    def group_problem(rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (2, 3, 4), (4, 5)), 1.0)
        return Problem.least_squares(rng.standard_normal((30, 6)), rng.standard_normal(30), spec)

    def test_once_per_path(self, rng):
        problem = self.group_problem(rng)
        with pytest.MonkeyPatch.context() as mp:
            builds = self.count_calls(mp, GroupPenaltySpec, "coupling")
            results = regularization_path(
                problem, np.geomspace(4.0, 0.5, 8), SolverConfig(mu=1e-2, max_iter=20)
            )
        assert len(results) == 8
        assert len(builds) == 1

    def test_once_for_solve_and_fobos(self, rng):
        problem = self.group_problem(rng)
        with pytest.MonkeyPatch.context() as mp:
            builds = self.count_calls(mp, GroupPenaltySpec, "coupling")
            solve(problem, SolverConfig(lam=0.1, mu=1e-2, max_iter=10))
            solve_fobos(problem, SolverConfig(lam=0.1, max_iter=10))
        assert len(builds) == 1

    def test_multi_problem_builds_on_first_solve(self, rng):
        spec = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 0.8), (1, 2, -0.5)), gamma=1.0)
        with pytest.MonkeyPatch.context() as mp:
            builds = self.count_calls(mp, GraphPenaltySpec, "coupling")
            problem = Problem.least_squares(rng.standard_normal((20, 4)), rng.standard_normal((20, 3)), spec)
            assert builds == []
            solve(problem, SolverConfig(lam=0.1, mu=1e-2, max_iter=10))
            solve(problem, SolverConfig(lam=0.2, mu=1e-2, max_iter=10))
        assert len(builds) == 1

    @pytest.mark.parametrize("max_iter", [5, 25])
    def test_three_coupling_products_per_iteration(self, rng, max_iter):
        """``C w`` and ``C^T alpha`` for the smoothed gradient at the momentum
        point, ``C beta`` for the penalty values at the new iterate."""
        problem = self.group_problem(rng)
        config = SolverConfig(lam=0.1, mu=1e-2, max_iter=max_iter, rel_tol=0.0)
        with pytest.MonkeyPatch.context() as mp:
            applies = self.count_calls(mp, CouplingMatrix, "apply")
            transposes = self.count_calls(mp, CouplingMatrix, "apply_transpose")
            _, trace = solve(problem, config)
        assert len(trace) == max_iter
        assert (len(applies), len(transposes)) == (2 * max_iter, max_iter)


class TestProblem:
    """Shapes and the penalty are checked when a problem is made; the loss is
    built on first use and kept."""

    @pytest.mark.parametrize("make", [Problem.least_squares, Problem.logistic],
                             ids=["least_squares", "logistic"])
    def test_loss_built_once_on_first_use(self, rng, make):
        problem = make(rng.standard_normal((10, 3)), np.where(rng.standard_normal(10) > 0, 1.0, -1.0))
        assert "loss" not in vars(problem)
        assert problem.loss is problem.loss

    def test_group_index_out_of_range_fails_when_made(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 5)), 1.0)
        with pytest.raises(StructureError, match="out of range for 5 features"):
            Problem.least_squares(rng.standard_normal((12, 5)), rng.standard_normal(12), spec)

    def test_non_finite_X_fails_before_the_first_iteration(self, rng, monkeypatch):
        X = rng.standard_normal((12, 5))
        X[3, 2] = np.nan
        problem = Problem.least_squares(X, rng.standard_normal(12))
        monkeypatch.setattr(smoothprox.solver, "soft_threshold", lambda *a: pytest.fail("iterated"))
        with pytest.raises(ValueError, match="non-finite"):
            solve(problem, SolverConfig(lam=0.1, max_iter=5))

    @pytest.mark.parametrize("x_shape, y_shape, message", [
        ((5, 0), (5,), r"X has shape \(5, 0\)"),
        ((0, 3), (0,), r"X has shape \(0, 3\)"),
        ((5, 3), (5, 0), r"y has shape \(5, 0\)"),
    ], ids=["no-columns", "no-rows", "no-outputs"])
    def test_zero_size_data_rejected(self, x_shape, y_shape, message):
        with pytest.raises(StructureError, match=message):
            Problem.least_squares(np.ones(x_shape), np.ones(y_shape))

    def test_problems_compare_by_identity(self, rng):
        X, Y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        problem = Problem.least_squares(X, Y)
        assert problem == problem and problem != Problem.least_squares(X, Y)
        assert len({problem, problem}) == 1


class TestSolverConfigChecks:
    """Values that would fail later, or never stop, are rejected at
    construction; NaN included."""

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_lam(self, value):
        with pytest.raises(ValueError, match="lam must be non-negative and finite"):
            SolverConfig(lam=value)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_rel_tol(self, value):
        with pytest.raises(ValueError, match="rel_tol must be non-negative and finite"):
            SolverConfig(rel_tol=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_iter(self, value):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            SolverConfig(max_iter=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_mu(self, value):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            SolverConfig(mu=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon(self, value):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SolverConfig(epsilon=value)

    def test_epsilon_and_mu_together(self):
        with pytest.raises(ValueError, match="give either epsilon or mu, not both"):
            SolverConfig(epsilon=1e-3, mu=1e-3)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SolverConfig)])
    def test_fields_cannot_be_assigned(self, field):
        """The checks above run when a config is made; an assignment would
        skip them."""
        config = SolverConfig(lam=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, getattr(config, field))

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "str"])
    def test_max_iter_must_be_an_integer(self, value):
        """A float or a bool passes ``max_iter >= 1`` and would fail only in
        ``range``, at the first solve."""
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=value)

    @pytest.mark.parametrize("value", [True, "1", None, [1.0]], ids=["bool", "str", "none", "list"])
    @pytest.mark.parametrize("make, field", [
        (SolverConfig, "lam"), (SolverConfig, "rel_tol"), (SolverConfig, "mu"), (SolverConfig, "epsilon"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_numbers_must_be_real(self, make, field, value):
        """A bool is not read as 1 and a string does not fail in a comparison;
        None stays allowed for the optional ``mu`` and ``epsilon``."""
        if value is None and field in ("mu", "epsilon"):
            make(**{field: value})
            return
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            make(**{field: value})

    @pytest.mark.parametrize("value", [1, 0.5, np.float32(0.5), np.int64(1)], ids=["int", "float", "float32", "int64"])
    @pytest.mark.parametrize("field", ["lam", "rel_tol", "mu"])
    def test_ints_and_numpy_reals_accepted(self, field, value):
        assert getattr(SolverConfig(**{field: value}), field) == value

    @pytest.mark.parametrize("call", [
        lambda: select_mu(True, 1.0), lambda: select_mu("1e-3", 1.0), lambda: select_mu(1e-3, True),
    ], ids=["epsilon-bool", "epsilon-str", "D-bool"])
    def test_select_mu_rejects_non_numbers(self, call):
        with pytest.raises(ValueError, match="must be a real number"):
            call()

    @pytest.mark.parametrize("epsilon, D, message", [
        (math.inf, 1.0, "epsilon must be positive and finite, got inf"),
        (math.nan, 1.0, "epsilon must be positive and finite, got nan"),
        (1e-3, math.inf, "D must be positive and finite, got inf"),
    ], ids=["epsilon-inf", "epsilon-nan", "D-inf"])
    def test_select_mu_rejects_non_finite(self, epsilon, D, message):
        """An infinite epsilon once gave mu = inf, and an infinite D the
        misleading "underflows to 0"."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            select_mu(epsilon, D)

    @pytest.mark.parametrize("run", [solve, solve_fobos], ids=lambda run: run.__name__)
    def test_numpy_integer_max_iter_runs(self, rng, run):
        config = SolverConfig(lam=0.1, max_iter=np.int64(3), rel_tol=0.0)
        problem = Problem.least_squares(rng.standard_normal((10, 3)), rng.standard_normal(10))
        _, trace = run(problem, config)
        assert len(trace) == 3

    @pytest.mark.parametrize("field, value", [("lam", 0.5), ("max_iter", 7), ("rel_tol", 1e-3)],
                             ids=["lam", "max_iter", "rel_tol"])
    @pytest.mark.parametrize("run", [solve, solve_fobos], ids=lambda run: run.__name__)
    def test_both_solvers_read_the_shared_fields(self, rng, run, field, value):
        """SPG and FOBOS take one settings record: each reads ``lam``,
        ``max_iter`` and ``rel_tol`` from it, records the value it read in the
        trace header, and runs differently when the value changes."""
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (2, 3, 4)), 1.0)
        problem = Problem.least_squares(rng.standard_normal((20, 5)), rng.standard_normal(20), spec)
        config = SolverConfig(lam=0.1, mu=1e-2, max_iter=40, rel_tol=0.0)
        _, trace = run(problem, config)
        _, changed = run(problem, dataclasses.replace(config, **{field: value}))
        assert trace.header[field] == getattr(config, field)
        assert changed.header[field] == value
        assert changed.objectives != trace.objectives


class TestFistaStep:
    def test_full_shrinkage(self, rng, monkeypatch):
        force_gram(monkeypatch, False)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        prob = Problem.least_squares(X, y)
        L = prob.loss.lipschitz()
        lam = L * (np.abs(loss_gradient(prob.loss, np.zeros(3)) / L).max() + 1.0)
        beta, _ = solve(prob, SolverConfig(lam, max_iter=1, rel_tol=0.0))
        assert (beta == 0.0).all()

    def test_matches_reference_lasso_step_for_step(self, rng, monkeypatch):
        force_gram(monkeypatch, False)
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        prob = Problem.least_squares(X, y)
        L = prob.loss.lipschitz()
        lam = 0.3
        reference = reference_lasso_fista(X, y, lam, L, 200)
        for k, expected in enumerate(reference, start=1):
            beta, _ = solve(prob, SolverConfig(lam, max_iter=k, rel_tol=0.0))
            np.testing.assert_allclose(beta, expected, atol=1e-12)


class TestSolve:
    def test_orthonormal_lasso_closed_form(self):
        prob = Problem.least_squares(np.eye(2), np.array([3.0, 0.0]))
        beta, trace = solve(prob, SolverConfig(lam=1.0, rel_tol=1e-12))
        np.testing.assert_allclose(beta, [2.0, 0.0], atol=1e-10)
        assert trace.status == "converged"

    def test_unregularized_reaches_least_squares(self, rng):
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        prob = Problem.least_squares(X, y)
        beta, _ = solve(prob, SolverConfig(lam=0.0, rel_tol=1e-14, max_iter=50000))
        expected = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(beta, expected, atol=1e-6)

    def test_exact_zero_entries(self, rng):
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (3, 4, 5, 6, 7)), 0.5)
        prob = Problem.least_squares(X, y, spec)
        beta, _ = solve(prob, SolverConfig(lam=2.0, mu=1e-4))
        assert np.count_nonzero(beta) < 8
        assert (beta[beta == 0.0] == 0.0).all()  # bitwise zeros from the prox

    def test_smoothed_objective_initially_decreases(self, rng):
        # accelerated steps ripple near convergence, but the early trace is
        # a clean descent and the overall trend must be downward
        X = rng.standard_normal((40, 10))
        bt = np.zeros(10)
        bt[:4] = 1.0
        y = X @ bt + 0.1 * rng.standard_normal(40)
        spec = GroupPenaltySpec.with_unit_weights(
            ((0, 1, 2, 3, 4), (4, 5, 6, 7, 8, 9)), 1.0
        )
        prob = Problem.least_squares(X, y, spec)
        _, trace = solve(prob, SolverConfig(lam=0.5, mu=1e-4, rel_tol=1e-10))
        fs = np.array(trace.smoothed_objectives)
        assert (np.diff(fs[:50]) <= 1e-9).all()
        assert fs[-1] < fs[0]
        envelope = np.minimum.accumulate(fs)
        assert envelope[-1] == pytest.approx(fs[-1], rel=1e-6)

    def test_subgradient_optimality_certificate(self, rng):
        X = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (2, 3, 4, 5)), 0.3)
        lam = 0.4
        prob = Problem.least_squares(X, y, spec)
        mu = 1e-4
        beta, _ = solve(
            prob, SolverConfig(lam=lam, mu=mu, rel_tol=1e-14, max_iter=200000)
        )
        g = loss_gradient(prob.loss, beta) + spec.coupling(6).smoothed_gradient(beta, mu)
        residual = np.where(
            beta != 0.0, g + lam * np.sign(beta), g - np.clip(g, -lam, lam)
        )
        bound = 1e-3 * (1.0 + np.linalg.norm(loss_gradient(prob.loss, beta)))
        assert np.linalg.norm(residual) < bound

    def test_non_finite_objective_raises(self):
        X = np.eye(2) * 1e200
        y = np.array([1e200, 0.0])
        prob = Problem.least_squares(X, y)
        with pytest.warns(RuntimeWarning), pytest.raises(SolverError):
            solve(prob, SolverConfig(lam=0.0, max_iter=10))

    def test_zero_design_without_penalty_has_nothing_to_optimize(self):
        prob = Problem.least_squares(np.zeros((5, 3)), np.ones(5))
        with pytest.raises(SolverError, match="non-positive Lipschitz constant"):
            solve(prob, SolverConfig(lam=0.1))

    @pytest.mark.parametrize("make", [Problem.least_squares, Problem.logistic], ids=["least_squares", "logistic"])
    def test_infinite_lipschitz_constant_without_a_penalty_is_an_error(self, make):
        """On a design scaled by 1e200 ``L_loss`` overflows to inf; without a
        penalty every step was ``grad / inf = 0``, and the run reported
        ``converged`` at iteration 2 from zero.  It now fails before the
        first iteration."""
        X = 1e200 * np.random.default_rng(0).standard_normal((2, 5))
        prob = make(X, np.array([1.0, -1.0]) if make is Problem.logistic else np.ones(2))
        with pytest.warns(RuntimeWarning), \
                pytest.raises(SolverError, match=r"^non-finite Lipschitz constant L=inf$"):
            solve(prob, SolverConfig(lam=0.1))

    @pytest.mark.parametrize("config", [SolverConfig(lam=1.0, mu=1e-310), SolverConfig(lam=1.0, epsilon=1e-320)],
                             ids=["subnormal-mu", "subnormal-epsilon"])
    def test_overflowing_lipschitz_constant_is_an_error(self, config):
        """``||C||^2 / mu`` overflows at a subnormal mu (``select_mu`` gives
        one from a subnormal epsilon): every step would be ``grad / inf = 0``,
        and the run reported ``converged`` at iteration 2 from zero."""
        problem, _, _ = gen_overlap_instance(
            OverlapSimSpec(num_groups=3, group_size=12, overlap=2, num_samples=50))
        with pytest.raises(SolverError, match=r"overflows at .*\|\|C\|\|=.*, mu="):
            solve(problem, config)

    def test_trace_jsonl_round_trip(self, rng, tmp_path):
        prob = Problem.least_squares(np.eye(3), np.array([1.0, -2.0, 0.5]))
        _, trace = solve(prob, SolverConfig(lam=0.2))
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert "header" in lines[0]
        assert {"t", "f", "f_smooth", "elapsed_s"} <= set(lines[1])
        assert lines[-1]["status"] == "converged"
        assert lines[-1]["nnz"] == int(np.count_nonzero(_))
        header = lines[0]["header"]
        assert header["L_loss"] == pytest.approx(1.0, rel=1e-12)
        assert header["D"] is None and header["norm_C"] is None

    @pytest.mark.parametrize("run, method", [
        (lambda p, c: solve(p, c)[1], "proxgrad"),
        (lambda p, c: solve_fobos(p, c)[1], "fobos"),
        (lambda p, c: regularization_path(p, [0.2, 0.1], c)[-1][2], "proxgrad"),
    ], ids=["solve", "solve_fobos", "regularization_path"])
    def test_trace_header_names_the_method(self, rng, run, method):
        """A trace names the solver that made it, by the name ``smoothprox
        bench`` reports."""
        problem = Problem.least_squares(rng.standard_normal((12, 3)), rng.standard_normal((12, 2)))
        trace = run(problem, SolverConfig(lam=0.1, mu=1e-2, max_iter=3))
        assert trace.header["method"] == method
        assert trace.header["shape"] == [3, 2]

    @pytest.mark.parametrize("converged", [True, False], ids=["lanczos", "frobenius"])
    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "streaming"])
    def test_trace_header_L_loss_source(self, rng, monkeypatch, gram, converged):
        """The header says where ``L_loss`` came from: the Lanczos estimate,
        or the Frobenius bound when that has not converged."""
        force_gram(monkeypatch, gram)
        if not converged:
            unconverged_lanczos(monkeypatch)
        X = rng.standard_normal((12, 5))
        prob = Problem.least_squares(X, rng.standard_normal(12))
        warns = contextlib.nullcontext() if converged else pytest.warns(RuntimeWarning, match="did not converge")
        with warns:
            _, trace = solve(prob, SolverConfig(lam=0.1, max_iter=3))
        assert trace.header["gram"] == ("float64" if gram else None)
        assert trace.header["L_loss_source"] == ("lanczos" if converged else "frobenius")
        if not converged:
            assert trace.header["L_loss"] == pytest.approx(np.sum(X * X), rel=1e-12)

    def test_infinite_loss_lipschitz_with_a_penalty_fails_at_setup(self):
        """On X = 1e200 I, X^T X overflows and ``L_loss`` is the infinite
        Frobenius bound.  With a penalty ``total_lipschitz`` rejects it before
        the first iteration (without one, ``solve`` does)."""
        spec = GroupPenaltySpec.with_unit_weights(((0, 1),), 1.0)
        prob = Problem.least_squares(np.eye(2) * 1e200, np.array([1e200, 0.0]), spec)
        with np.errstate(over="ignore"), pytest.warns(RuntimeWarning, match="did not converge"), \
                pytest.raises(ValueError, match="^L_loss must be non-negative and finite, got inf$"):
            solve(prob, SolverConfig(lam=1e-6, max_iter=10))

    def test_trace_header_penalty_constants(self, rng, tmp_path):
        X = rng.standard_normal((12, 5))
        spec = GroupPenaltySpec(groups=((0, 1, 2), (2, 3, 4)), weights=(1.0, 2.0), gamma=0.5)
        prob = Problem.least_squares(X, rng.standard_normal(12), spec)
        _, trace = solve(prob, SolverConfig(lam=0.1, mu=1e-2, max_iter=5))
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])["header"]
        C = spec.coupling(5)
        assert header["D"] == C.dual_bound == 1.0
        assert header["norm_C"] == pytest.approx(C.norm_bound, rel=1e-15)
        assert header["L_loss"] == pytest.approx(prob.loss.lipschitz(), rel=1e-15)
        assert header["L"] == pytest.approx(
            total_lipschitz(header["L_loss"], header["norm_C"], 1e-2), rel=1e-15
        )

    @pytest.mark.parametrize("epsilon", [None, 1e-3])
    @pytest.mark.parametrize("K", [0, 4], ids=["vector", "matrix"])
    def test_trace_header_D_and_mu(self, rng, K, epsilon):
        """The solve forms ``D = copies * dual_bound``, one copy of Q per row of
        a J x K iterate, and ``mu = select_mu(epsilon, D)``."""
        X = rng.standard_normal((12, 5))
        if K:
            spec = GraphPenaltySpec(K, ((0, 1, 0.5), (1, 3, -0.8), (2, 3, 0.0)), 0.7)
            y = rng.standard_normal((12, K))
        else:
            spec = GroupPenaltySpec(groups=((0, 1, 2), (2, 3, 4)), weights=(1.0, 2.0), gamma=0.5)
            y = rng.standard_normal(12)
        prob = Problem.least_squares(X, y, spec)
        _, trace = solve(prob, SolverConfig(lam=0.1, epsilon=epsilon, max_iter=3))
        copies = 5 if K else 1
        D = copies * prob.coupling.dual_bound
        assert D == (5 * 1.5 if K else 1.0)
        assert trace.header["D"] == D
        assert trace.header["mu"] == select_mu(epsilon, D)

    def test_tiny_epsilon_keeps_its_mu(self):
        """On the paper's multi-output design (K=30, J=200, 435 edges at seed
        0) D = 200 * 435 / 2, so ``epsilon = 1e-8`` asks for a mu near 1e-13;
        the header records exactly ``epsilon / (2 D)``, not a clamped mu
        whose bias ``mu D`` would exceed epsilon."""
        spec = GraphSimSpec(num_outputs=30, num_features=200, num_samples=200,
                            block_sizes=(10, 10, 10), rho=0.5, gamma=5.0, seed=0)
        problem, _, penalty = gen_graph_instance(spec)
        _, trace = solve(Problem.least_squares(problem.X, problem.y, penalty),
                         SolverConfig(lam=1.0, epsilon=1e-8, max_iter=1))
        assert trace.header["D"] == 200 * 435 / 2
        assert trace.header["mu"] == 1e-8 / (2 * trace.header["D"])

    def test_lasso_with_all_ones_eigenvector(self):
        # X^T X = [[2, -1], [-1, 2]]: a step from its all-ones eigenvalue (1)
        # instead of the top one (3) makes FISTA diverge
        X = np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        _, trace = solve(Problem.least_squares(X, y), SolverConfig(lam=0.0, max_iter=200))
        beta_ls = np.linalg.lstsq(X, y, rcond=None)[0]
        assert trace.status == "converged"
        assert trace.objectives[-1] == pytest.approx(0.5 * np.sum((y - X @ beta_ls) ** 2), rel=1e-6)


class TestIterationBound:
    def test_formula_value(self):
        bound = iteration_bound(1.0, 0.1, 1.0, 5.0, np.sqrt(2.0))
        assert bound == pytest.approx(np.sqrt(8040.0), rel=1e-12)

    def test_penalty_free_reduction(self):
        bound = iteration_bound(2.0, 0.5, 3.0, 5.0, 0.0)
        assert bound == pytest.approx(np.sqrt(4.0 * 4.0 * 3.0 / 0.5))

    def test_inverse_epsilon_scaling(self):
        b1 = iteration_bound(1.0, 1e-3, 1.0, 5.0, 1.0)
        b2 = iteration_bound(1.0, 1e-4, 1.0, 5.0, 1.0)
        assert b2 / b1 == pytest.approx(10.0, rel=0.1)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            iteration_bound(1.0, 0.0, 1.0, 1.0, 1.0)


class TestRegularizationPath:
    def test_single_lambda_matches_solve(self, rng):
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        prob = Problem.least_squares(X, y)
        config = SolverConfig(lam=0.5)
        results = regularization_path(prob, [0.5], config)
        beta_direct, _ = solve(prob, config)
        np.testing.assert_allclose(results[0][1], beta_direct)

    def test_warm_start_saves_iterations(self, rng):
        X = rng.standard_normal((60, 20))
        bt = np.zeros(20)
        bt[:5] = 1.0
        y = X @ bt + 0.1 * rng.standard_normal(60)
        spec = GroupPenaltySpec.with_unit_weights(
            tuple(tuple(range(i, i + 5)) for i in range(0, 20, 5)), 1.0
        )
        prob = Problem.least_squares(X, y, spec)
        lambdas = [4.0, 2.0, 1.0, 0.5, 0.25]
        config = SolverConfig(lam=lambdas[0], mu=1e-3, rel_tol=1e-8)
        warm = regularization_path(prob, lambdas, config)
        warm_total = sum(len(trace) for _, _, trace in warm)
        cold_total = 0
        for lam in lambdas:
            _, trace = solve(
                prob, SolverConfig(lam=lam, mu=1e-3, rel_tol=1e-8)
            )
            cold_total += len(trace)
        assert warm_total < cold_total

    def test_non_descending_rejected(self, rng):
        prob = Problem.least_squares(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            regularization_path(prob, [1.0, 1.0], SolverConfig(lam=1.0))


class TestRegularizationPathConfig:
    def test_empty_lambdas_rejected(self):
        prob = Problem.least_squares(np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="at least one lambda is required"):
            regularization_path(prob, [], SolverConfig())

    @pytest.mark.parametrize("lambdas", [[True], ["2", "1"], [2.0, None]], ids=["bool", "strings", "none"])
    def test_lambdas_must_be_real(self, lambdas):
        """Each lambda is checked as ``SolverConfig`` checks ``lam``, not passed through float()."""
        prob = Problem.least_squares(np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="lambda must be a real number"):
            regularization_path(prob, lambdas, SolverConfig())

    def test_ints_and_numpy_reals_are_lambdas(self):
        prob = Problem.least_squares(np.eye(2), np.ones(2))
        results = regularization_path(prob, [2, np.float64(0.5), np.float32(0.25)], SolverConfig(max_iter=2))
        assert [lam for lam, _, _ in results] == [2.0, 0.5, 0.25]
        assert all(type(lam) is float for lam, _, _ in results)

    def test_every_field_reaches_every_solve(self, rng):
        X = rng.standard_normal((20, 4))
        spec = GraphPenaltySpec(num_nodes=4, edges=((0, 1, 0.8), (1, 2, -0.5), (2, 3, 0.3)), gamma=1.0)
        prob = Problem.least_squares(X, rng.standard_normal(20), spec)
        config = SolverConfig(mu=1e-2, max_iter=7, rel_tol=1e-300)
        results = regularization_path(prob, [2.0, 1.0, 0.5], config)
        _, single = solve(prob, SolverConfig(lam=2.0, mu=1e-2, max_iter=1))
        for lam, _, trace in results:
            assert trace.header["lam"] == lam
            assert trace.header["max_iter"] == 7 and trace.header["mu"] == 1e-2
            assert trace.header["L"] == single.header["L"]
            assert trace.status == "max_iter"


class TestResponseShape:
    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_header_records_iterate_shape(self, rng, K):
        y = rng.standard_normal(20 if K is None else (20, K))
        beta, trace = solve(Problem.least_squares(rng.standard_normal((20, 5)), y), SolverConfig(lam=0.1))
        assert beta.shape == (5,) + y.shape[1:]
        assert trace.header["shape"] == list(beta.shape)

    @pytest.mark.parametrize("edges", [(), ((0, 1, 0.0), (1, 2, 0.0))], ids=["no-edges", "zero-weights"])
    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_zero_coupling_solves_like_no_penalty(self, rng, K, edges):
        """A graph whose coupling is identically zero is no penalty, even when
        epsilon asks for mu = epsilon / (2 D) and D is 0."""
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20 if K is None else (20, K))
        spec = GraphPenaltySpec(num_nodes=4 if K is None else K, edges=edges, gamma=1.0)
        config = SolverConfig(lam=0.1, epsilon=1e-3)
        beta, trace = solve(Problem.least_squares(X, y, spec), config)
        beta_free, trace_free = solve(Problem.least_squares(X, y), config)
        np.testing.assert_array_equal(beta, beta_free)
        assert trace.objectives == trace_free.objectives
        assert trace.header["mu"] is None and trace.header["L"] == trace_free.header["L"]


class TestMatrixLayout:
    """J x K coefficients are Fortran-ordered, from the start through every
    iterate, so ``C B^T`` and BLAS read them in place."""

    @pytest.fixture
    def problem(self, rng):
        spec = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 0.8), (1, 2, -0.5)), gamma=1.0)
        return Problem.least_squares(rng.standard_normal((20, 6)), rng.standard_normal((20, 3)), spec)

    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "streaming"])
    @pytest.mark.parametrize("run", [
        lambda p: solve(p, SolverConfig(lam=0.1, mu=1e-2, max_iter=20)),
        lambda p: solve(p, SolverConfig(lam=0.1, mu=1e-2, max_iter=20), np.full((6, 3), 0.01, order="C")),
        lambda p: solve(p, SolverConfig(lam=0.1, mu=1e-2, max_iter=20), np.full((6, 3), 0.01, order="F")),
        lambda p: solve_fobos(p, SolverConfig(lam=0.1, max_iter=20)),  # from zeros: it takes no start
    ], ids=["None-solve", "C-solve", "F-solve", "None-solve_fobos"])
    def test_returned_coefficients_are_fortran_ordered(self, problem, run, gram, monkeypatch):
        force_gram(monkeypatch, gram)
        problem = Problem.least_squares(problem.X, problem.y, problem.penalty)
        B, _ = run(problem)
        assert B.shape == (6, 3) and B.flags.f_contiguous

    def test_every_iterate_and_gradient_is_fortran_ordered(self, problem, monkeypatch):
        seen = []
        original = smoothprox.solver.soft_threshold

        def recorded(v, threshold):
            out = original(v, threshold)
            seen.append(v.flags.f_contiguous and out.flags.f_contiguous)
            return out

        monkeypatch.setattr(smoothprox.solver, "soft_threshold", recorded)
        solve(problem, SolverConfig(lam=0.1, mu=1e-2, max_iter=10))
        assert seen == [True] * 10

    def test_path_warm_starts_stay_fortran_ordered(self, problem):
        results = regularization_path(problem, [0.5, 0.2], SolverConfig(mu=1e-2, max_iter=10))
        assert all(B.flags.f_contiguous for _, B, _ in results)

    def test_logistic_gradient_is_fortran_ordered(self, rng):
        X = rng.standard_normal((20, 6))
        Y = np.where(rng.standard_normal((20, 3)) > 0, 1.0, -1.0)
        loss = Problem.logistic(X, Y).loss
        B = np.asfortranarray(rng.standard_normal((6, 3)))
        grad = loss.gradient_from(loss.product(B))
        assert grad.flags.f_contiguous
        np.testing.assert_allclose(grad, -X.T @ (Y / (1.0 + np.exp(Y * (X @ B)))), rtol=1e-12)


class TestFinalObjective:
    """``trace.final_objective`` is the exact objective of the coefficients a
    solver returns, whichever iterate that is."""

    @pytest.fixture
    def group_problem(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 6))
        y = X @ np.array([1.0, 1.0, 0.0, 0.0, -1.0, 0.0]) + rng.standard_normal(40)
        spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (2, 3, 4, 5)), 1.0)
        return Problem.least_squares(X, y, spec), spec

    @staticmethod
    def exact(problem, spec, beta, lam=0.5):
        return loss_value(problem.loss, beta) + lam * float(np.abs(beta).sum()) + penalty_value(spec, beta)

    @pytest.mark.parametrize(
        "run",
        [
            lambda p: solve(p, SolverConfig(lam=0.5, mu=1e-3, max_iter=50)),
            lambda p: solve_fobos(p, SolverConfig(lam=0.5, max_iter=50)),
        ],
        ids=["solve", "fobos"],
    )
    def test_equals_objective_of_returned_coefficients(self, group_problem, run):
        problem, spec = group_problem
        beta, trace = run(problem)
        assert trace.final_objective == pytest.approx(self.exact(problem, spec, beta), rel=1e-10)

    def test_fobos_start_that_stays_best(self, group_problem):
        """On a design scaled up 30x the step from the problem's shape
        overshoots and the iterates diverge, so FOBOS returns its zero start;
        the best recorded objective is far above the start's."""
        problem, spec = group_problem
        problem = Problem.least_squares(30.0 * problem.X, 30.0 * problem.y, spec)
        beta, trace = solve_fobos(problem, SolverConfig(lam=0.5, max_iter=20, rel_tol=0.0))
        assert not beta.any()
        assert min(trace.objectives) > 1e3 * self.exact(problem, spec, beta)
        assert trace.final_objective == pytest.approx(self.exact(problem, spec, beta), rel=1e-10)

    def test_written_on_the_status_line(self, group_problem, tmp_path):
        problem, _ = group_problem
        _, trace = solve(problem, SolverConfig(lam=0.5, mu=1e-3, max_iter=5))
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        last = json.loads(path.read_text().splitlines()[-1])
        assert last == trace.summary() == {"iterations": 5, "objective": trace.final_objective,
                                           "nnz": trace.final_nnz, "status": "max_iter"}


class TestStoppingRule:
    """``Trace`` holds the one stopping rule of both solvers: a run stops at
    the first iteration t >= 2 with ``|f_t - f_{t-1}| / max(1, |f_{t-1}|) <
    rel_tol``, status ``converged``, or after ``max_iter``, status
    ``max_iter``.  Each run is checked against its own recorded objectives,
    never against another process's, whose graph objectives may differ in
    the last bit."""

    RUNS = {
        "solve": lambda p, rel_tol, max_iter: solve(
            p, SolverConfig(lam=0.1, mu=1e-2, rel_tol=rel_tol, max_iter=max_iter)),
        "solve_fobos": lambda p, rel_tol, max_iter: solve_fobos(
            p, SolverConfig(lam=0.1, rel_tol=rel_tol, max_iter=max_iter)),
    }

    @pytest.mark.parametrize("rel_tol, max_iter, status", [
        (1e-4, 20000, "converged"), (1e-6, 20000, "converged"), (1e-6, 15, "max_iter"), (0.0, 40, "max_iter"),
    ])
    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    @pytest.mark.parametrize("method", sorted(RUNS))
    def test_stop_follows_from_the_recorded_objectives(self, rng, method, K, rel_tol, max_iter, status):
        X = rng.standard_normal((30, 6))
        y = rng.standard_normal(30 if K is None else (30, K))
        spec = GraphPenaltySpec(num_nodes=6 if K is None else K, edges=((0, 1, 0.8), (1, 2, -0.5)), gamma=1.0)
        _, trace = self.RUNS[method](Problem.least_squares(X, y, spec), rel_tol, max_iter)
        f = trace.objectives
        met = [t for t in range(2, len(f) + 1) if abs(f[t - 1] - f[t - 2]) / max(1.0, abs(f[t - 2])) < rel_tol]
        assert trace.status == status
        assert trace.header["rel_tol"] == rel_tol
        assert trace.header["method"] == {"solve": "proxgrad", "solve_fobos": "fobos"}[method]
        assert len(trace) == len(trace.smoothed_objectives) == len(trace.elapsed)
        if status == "converged":
            assert met == [len(trace)]
        else:
            assert met == [] and len(trace) == max_iter

    def test_record_and_finish(self):
        trace = Trace(header={"rel_tol": 0.1})
        assert trace.record(10.0, 9.0) is False
        assert trace.record(12.0, 9.0) is False  # 0.2 relative
        assert trace.record(12.6, 9.0) is True  # 0.05 relative
        trace.finish(np.array([0.0, 2.0, -1.0]), 12.6)
        assert (trace.status, trace.final_nnz, trace.final_objective) == ("converged", 2, 12.6)
        assert trace.summary() == {"iterations": 3, "objective": 12.6, "nnz": 2, "status": "converged"}
        assert trace.objectives == [10.0, 12.0, 12.6] and trace.smoothed_objectives == [9.0] * 3
        assert trace.elapsed == sorted(trace.elapsed) and trace.elapsed[0] >= 0.0
        with pytest.raises(SolverError, match=r"^non-finite objective at iteration 4$"):
            trace.record(math.nan, 9.0)

    def test_header_is_the_only_setting(self):
        """A run's trace is made from its header alone; the stopping rule reads
        the header's ``rel_tol`` and the run writes everything else."""
        assert [f.name for f in dataclasses.fields(Trace) if f.init] == ["header"]

    @pytest.mark.parametrize("method, message", [
        ("solve", "non-finite gradient at iteration 1"),
        ("solve_fobos", "non-finite subgradient at iteration 1"),
    ])
    def test_errors_number_iterations_from_one(self, method, message):
        """Every ``SolverError`` names the iteration being computed, counted
        from 1 as the trace's ``t`` is: here ``L_loss = 1e308`` is finite but
        ``X^T y`` overflows, so the first step does."""
        prob = Problem.least_squares(np.array([[1e154]]), np.array([1e200]))
        with pytest.warns(RuntimeWarning), pytest.raises(SolverError, match=f"^{message}$"):
            self.RUNS[method](prob, 1e-6, 10)
