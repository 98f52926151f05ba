"""The float32 Gram: which losses store it, what it stores, what set-up
costs, and that the solvers' answers and reported objectives stay exact."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from smoothprox import (
    GroupPenaltySpec,
    LogisticLoss,
    OverlapSimSpec,
    Problem,
    SolverConfig,
    SolverError,
    SquaredLoss,
    gen_overlap_instance,
    losses,
    solve,
    solve_fobos,
)
from conftest import force_gram, penalty_value


class TestStorageRule:
    """A built Gram is float32 iff y is a vector and J >= 512."""

    @pytest.mark.parametrize("J, K, gram", [
        (512, None, "float32"), (511, None, "float64"), (512, 3, "float64"), (700, 2, "float64"),
    ])
    def test_dtype_follows_the_shape(self, rng, J, K, gram):
        X = rng.standard_normal((J, J))
        y = rng.standard_normal(J if K is None else (J, K))
        loss = SquaredLoss(X, y)
        assert losses.GRAM_FLOAT32_MIN_FEATURES == 512
        assert loss.gram == gram and loss.gram is not None
        assert loss._XtX.dtype == np.dtype(gram) and loss._XtX.flags.f_contiguous

    @pytest.mark.parametrize("scale", [1e20, 1e-21])
    def test_out_of_float32_range_stays_float64(self, rng, scale):
        """A design whose squared column norms overflow float32, or fall
        below its normal range, keeps the float64 Gram and solves."""
        X = rng.standard_normal((600, 520))
        y = X @ np.ones(520) + rng.standard_normal(600)
        problem = Problem.least_squares(scale * X, y)
        assert problem.loss.gram == "float64"
        _, trace = solve(problem, SolverConfig(lam=1.0, max_iter=5))
        assert math.isfinite(trace.final_objective)

    def test_overflowing_gram_is_an_error_without_a_warning(self, rng):
        """A design whose X^T X overflows, at a size that tries the float32
        Gram first: set-up gives no numpy warning (``inf - inf`` makes NaNs
        there), and ``solve`` raises before the first iteration."""
        problem = Problem.least_squares(1e200 * rng.standard_normal((600, 520)), rng.standard_normal(600))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"^non-finite Lipschitz constant L=inf$"):
                solve(problem, SolverConfig(lam=1.0))
        assert problem.loss.gram == "float64"

    def test_streaming_has_no_gram(self, rng):
        X = rng.standard_normal((100, 600))  # J > 2N streams
        assert SquaredLoss(X, rng.standard_normal(100)).gram is None
        assert LogisticLoss(X, np.ones(100)).gram is None

    @pytest.mark.parametrize("J, gram", [(512, "float32"), (511, "float64"), (1100, None)])
    def test_both_loops_record_the_gram(self, rng, J, gram):
        X = rng.standard_normal((520, J))
        problem = Problem.least_squares(X, rng.standard_normal(520))
        _, trace = solve(problem, SolverConfig(lam=1.0, max_iter=2))
        _, fobos_trace = solve_fobos(problem, SolverConfig(lam=1.0, max_iter=2))
        assert trace.header["gram"] == fobos_trace.header["gram"] == gram

    def test_logistic_records_streaming(self, rng):
        X = rng.standard_normal((30, 4))
        problem = Problem.logistic(X, np.where(rng.standard_normal(30) > 0, 1.0, -1.0))
        _, trace = solve(problem, SolverConfig(lam=0.1, max_iter=2))
        _, fobos_trace = solve_fobos(problem, SolverConfig(lam=0.1, max_iter=2))
        assert trace.header["gram"] is fobos_trace.header["gram"] is None


class TestStoredTriangle:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lower_triangle_is_the_rounded_gram(self, rng, order):
        """Built in column blocks, the lower triangle (a block size that does
        not divide J) has the bits of the whole float64 Gram, rounded."""
        X = np.asarray(rng.standard_normal((400, 700)), order=order)
        stored = SquaredLoss(X, rng.standard_normal(400))._XtX
        expected = (X.T @ X).astype(np.float32)
        assert np.array_equal(np.tril(stored), np.tril(expected))

    def test_setup_holds_no_float64_gram(self, rng):
        """At J = 910 set-up peaks below the J x J float64 Gram's bytes."""
        N, J = 1000, 910
        X = rng.standard_normal((N, J))
        y = rng.standard_normal(N)
        tracemalloc.start()
        try:
            loss = SquaredLoss(X, y)
            loss.lipschitz()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss.gram == "float32"
        assert peak < J * J * 8

    def test_products_match_float64(self, rng):
        """``product`` is the float64 product through X; the float32 Gram's
        product is within its rounding of it."""
        X = rng.standard_normal((600, 520))
        loss = SquaredLoss(X, rng.standard_normal(600))
        v = rng.standard_normal(520)
        expected = X.T @ (X @ v)
        np.testing.assert_array_equal(loss.product(v), expected)
        got = loss._gram_vector_product(v)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - expected)) <= 1e-5 * np.max(np.abs(expected))

    def test_lipschitz_matches_dense_eigensolve(self, rng):
        X = rng.standard_normal((600, 520))
        loss = SquaredLoss(X, np.zeros(600))
        assert loss.lipschitz() == pytest.approx(np.linalg.eigvalsh(X.T @ X).max(), rel=2e-6)

    def test_next_product_adds_the_step(self, rng):
        """On a float32 Gram the next product is the last one plus the Gram
        times the step; on a float64 Gram it is taken afresh."""
        X = rng.standard_normal((600, 520))
        y = rng.standard_normal(600)
        beta_prev, beta = rng.standard_normal((2, 520))
        loss = SquaredLoss(X, y)
        p = loss.product(beta_prev)
        expected = p + loss._gram_vector_product(beta - beta_prev)
        np.testing.assert_array_equal(loss.next_product(p, beta, beta_prev), expected)
        wide = SquaredLoss(X[:, :511], y)
        np.testing.assert_array_equal(
            wide.next_product(np.zeros(511), beta[:511], beta_prev[:511]), wide.product(beta[:511])
        )


@pytest.fixture(scope="module")
def overlap():
    """The paper's overlap design at seed 0 (N=1000, J=910, 10 groups)."""
    problem, penalty, _ = gen_overlap_instance(OverlapSimSpec(seed=0, gamma=2.0))
    return problem, penalty


class TestOverlapSolves:
    """The float32 Gram on the paper's overlap design at ``lam=2,
    mu=1e-4``, the reference and default solves of its convergence test."""

    def test_tight_tolerance_stops(self, overlap):
        problem, _ = overlap
        assert problem.loss.gram == "float32"
        _, trace = solve(problem, SolverConfig(lam=2.0, mu=1e-4, rel_tol=1e-12, max_iter=10_000))
        assert trace.status == "converged" and len(trace) < 10_000
        header = trace.header
        assert header["shape"] == [910] and header["gram"] == "float32"
        assert header["L_loss_source"] == "lanczos"

    def test_default_solve_matches_float64(self, overlap, monkeypatch):
        problem, penalty = overlap
        config = SolverConfig(lam=2.0, mu=1e-4)
        _, trace32 = solve(problem, config)
        monkeypatch.setattr(losses, "GRAM_FLOAT32_MIN_FEATURES", math.inf)
        problem64 = Problem.least_squares(problem.X, problem.y, penalty)
        assert problem64.loss.gram == "float64"
        _, trace64 = solve(problem64, config)
        assert trace32.final_objective == pytest.approx(trace64.final_objective, rel=1e-6)


class TestFinalObjectiveOnFloat32Gram:
    """``final_objective`` is the float64 objective of the returned
    coefficients, not the one read off the float32 products."""

    @pytest.fixture
    def problem(self, rng):
        N, J = 600, 520
        X = rng.standard_normal((N, J))
        beta = np.zeros(J)
        beta[:40] = 1.0
        y = X @ beta + rng.standard_normal(N)
        groups = [tuple(range(start, start + 60)) for start in range(0, J - 59, 50)]
        spec = GroupPenaltySpec.with_unit_weights(groups, 3.0)
        return Problem.least_squares(X, y, spec), spec

    @pytest.mark.parametrize(
        "run",
        [
            lambda p: solve(p, SolverConfig(lam=5.0, mu=1e-3, max_iter=200)),
            lambda p: solve_fobos(p, SolverConfig(lam=5.0, max_iter=200)),
        ],
        ids=["solve", "fobos"],
    )
    def test_equals_exact_objective(self, problem, run):
        problem, spec = problem
        assert problem.loss.gram == "float32"
        beta, trace = run(problem)
        X, y = problem.X, problem.y
        exact = 0.5 * float(np.sum((y - X @ beta) ** 2)) + 5.0 * float(np.abs(beta).sum())
        exact += penalty_value(spec, beta)
        assert trace.final_objective == pytest.approx(exact, rel=1e-12)

    def test_forced_gram_on_a_wide_design(self, rng, monkeypatch):
        """A float32 Gram built past J = 2N (forced) still reports the exact
        objective."""
        force_gram(monkeypatch, True)
        X = rng.standard_normal((100, 512))
        y = rng.standard_normal(100)
        problem = Problem.least_squares(X, y)
        assert problem.loss.gram == "float32"
        beta, trace = solve(problem, SolverConfig(lam=2.0, max_iter=100))
        exact = 0.5 * float(np.sum((y - X @ beta) ** 2)) + 2.0 * float(np.abs(beta).sum())
        assert trace.final_objective == pytest.approx(exact, rel=1e-12)
