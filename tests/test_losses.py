import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothprox import (
    LogisticLoss,
    Problem,
    SolverConfig,
    SquaredLoss,
    solve,
)
from smoothprox.losses import power_iteration
from smoothprox.simulate import OverlapSimSpec, gen_overlap_instance
from conftest import central_difference_gradient, force_gram, loss_gradient, loss_value, unconverged_lanczos


def two_pass_lipschitz(monkeypatch, X):
    """``SquaredLoss.lipschitz()`` with the products streamed through X, two
    passes each, whatever the shape of X."""
    with monkeypatch.context() as m:
        force_gram(m, False)
        return SquaredLoss(X, np.zeros(X.shape[0])).lipschitz()


def _with_nan(a):
    a = np.array(a, dtype=float)
    a.flat[0] = np.nan
    return a


class TestInputChecks:
    """Each loss checks its own X and y: the shapes, and NaN or inf."""

    @pytest.mark.parametrize("make", [SquaredLoss, LogisticLoss], ids=["squared", "logistic"])
    @pytest.mark.parametrize(
        "X, y, match",
        [
            (np.ones((3, 2)), np.ones(4), "y has shape"),
            (np.ones((3, 2)), np.ones((4, 2)), "y has shape"),
            (_with_nan(np.ones((2, 2))), np.ones(2), "non-finite"),
            (np.ones((2, 2)), _with_nan(np.ones(2)), "non-finite"),
            (np.ones((3, 2)), _with_nan(np.ones((3, 3))), "non-finite"),
        ],
        ids=["row-mismatch", "row-mismatch-matrix", "non-finite-X", "non-finite-y", "non-finite-matrix-y"],
    )
    def test_rejected(self, make, X, y, match):
        with pytest.raises(ValueError, match=match):
            make(X, y)


class TestSquaredLoss:
    def test_identity_design(self, monkeypatch):
        force_gram(monkeypatch, False)
        loss = SquaredLoss(np.eye(2), np.array([1.0, 0.0]))
        value, grad = loss_value(loss, np.zeros(2)), loss_gradient(loss, np.zeros(2))
        assert value == pytest.approx(0.5)
        np.testing.assert_allclose(grad, [-1.0, 0.0])

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_exact_fit(self, rng, monkeypatch, K):
        force_gram(monkeypatch, False)
        X = rng.standard_normal((6, 3))
        beta = rng.standard_normal(3 if K is None else (3, K))
        loss = SquaredLoss(X, X @ beta)
        value, grad = loss_value(loss, beta), loss_gradient(loss, beta)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, np.zeros_like(beta), atol=1e-10)

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_gradient_matches_finite_differences(self, rng, K):
        X = rng.standard_normal((8, 4))
        loss = SquaredLoss(X, rng.standard_normal(8 if K is None else (8, K)))
        beta = rng.standard_normal(4 if K is None else (4, K))
        fd = central_difference_gradient(lambda b: loss_value(loss, b), beta, 1e-6)
        np.testing.assert_allclose(loss_gradient(loss, beta), fd, rtol=1e-6)

    @pytest.mark.parametrize("N, J, gram", [
        (100, 200, True), (100, 201, False), (2100, 4097, False), (400, 3200, False),
    ])
    def test_gram_follows_the_shape(self, N, J, gram):
        """The Gram is built iff J <= 4096 and J <= 2 N: past J = 2 N, or past
        4096 features whatever N is, the products stream through X."""
        X = np.broadcast_to(1.0, (N, J))  # no N x J copy: streaming reads X as it is
        assert (SquaredLoss(X, np.ones(N)).gram is not None) is gram

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_precompute_matches_streaming(self, rng, monkeypatch, K):
        X = rng.standard_normal((15, 6))
        y = rng.standard_normal(15 if K is None else (15, K))
        force_gram(monkeypatch, True)
        pre = SquaredLoss(X, y)
        force_gram(monkeypatch, False)
        direct = SquaredLoss(X, y)
        assert pre.gram is not None and direct.gram is None
        for _ in range(5):
            beta = rng.standard_normal(6 if K is None else (6, K))
            np.testing.assert_allclose(
                loss_gradient(pre, beta), loss_gradient(direct, beta), rtol=1e-10
            )
            assert loss_value(pre, beta) == pytest.approx(loss_value(direct, beta), rel=1e-10)


class TestSquaredLossLipschitz:
    def test_identity(self):
        assert SquaredLoss(np.eye(3), np.zeros(3)).lipschitz() == pytest.approx(1.0)

    def test_scaling(self):
        assert SquaredLoss(2.0 * np.eye(3), np.zeros(3)).lipschitz() == pytest.approx(4.0)

    def test_matches_dense_eigensolve(self, rng):
        X = rng.standard_normal((20, 10))
        exact = np.linalg.eigvalsh(X.T @ X).max()
        assert SquaredLoss(X, rng.standard_normal(20)).lipschitz() == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_gradient_lipschitz_property(self, rng, K):
        """The gradient is L-Lipschitz in the l2 norm, the Frobenius norm
        for J x K iterates."""
        X = rng.standard_normal((12, 5))
        loss = SquaredLoss(X, rng.standard_normal(12 if K is None else (12, K)))
        L = loss.lipschitz() * (1 + 1e-6)
        for _ in range(20):
            b1, b2 = rng.standard_normal((2, 5) if K is None else (2, 5, K))
            assert np.linalg.norm(loss_gradient(loss, b1) - loss_gradient(loss, b2)) <= (
                L * np.linalg.norm(b1 - b2) + 1e-12
            )


class TestLogisticLoss:
    def make_data(self, rng, K=None, n=20, j=5):
        X = rng.standard_normal((n, j))
        y = np.sign(rng.standard_normal(n if K is None else (n, K)))
        y[y == 0] = 1.0
        return X, y

    def test_invalid_labels(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError):
            LogisticLoss(X, np.array([0.0, 1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_symmetric_point(self, rng, K):
        X, y = self.make_data(rng, K)
        loss = LogisticLoss(X, y)
        zero = np.zeros(5 if K is None else (5, K))
        value, grad = loss_value(loss, zero), loss_gradient(loss, zero)
        assert value == pytest.approx(y.size * np.log(2.0))
        np.testing.assert_allclose(grad, -0.5 * X.T @ y, rtol=1e-12)

    def test_separable_limit(self):
        # large correct margins drive the loss to zero without overflow
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        loss = LogisticLoss(X, y)
        value, grad = loss_value(loss, np.array([1000.0])), loss_gradient(loss, np.array([1000.0]))
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, [0.0], atol=1e-12)

    def test_overflow_safe_wrong_side(self):
        X = np.array([[1.0]])
        y = np.array([1.0])
        value = loss_value(LogisticLoss(X, y), np.array([-1000.0]))
        assert np.isfinite(value) and value == pytest.approx(1000.0)

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_gradient_matches_finite_differences(self, rng, K):
        loss = LogisticLoss(*self.make_data(rng, K))
        beta = rng.standard_normal(5 if K is None else (5, K))
        fd = central_difference_gradient(lambda b: loss_value(loss, b), beta, 1e-6)
        np.testing.assert_allclose(loss_gradient(loss, beta), fd, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize("K", [None, 3], ids=["vector", "matrix"])
    def test_convex_midpoint(self, rng, K):
        loss = LogisticLoss(*self.make_data(rng, K))
        for _ in range(10):
            b1, b2 = rng.standard_normal((2, 5) if K is None else (2, 5, K))
            mid = loss_value(loss, 0.5 * (b1 + b2))
            assert mid <= 0.5 * (loss_value(loss, b1) + loss_value(loss, b2)) + 1e-12


class TestLogisticLipschitz:
    def test_identity(self):
        assert LogisticLoss(np.eye(3), np.array([1.0, -1.0, 1.0])).lipschitz() == pytest.approx(0.25)

    def test_scaling(self):
        assert LogisticLoss(2 * np.eye(3), np.array([1.0, -1.0, 1.0])).lipschitz() == pytest.approx(1.0)

    def test_quarter_of_squared(self, rng):
        X = rng.standard_normal((10, 4))
        y = np.sign(rng.standard_normal(10))
        y[y == 0] = 1.0
        assert LogisticLoss(X, y).lipschitz() == pytest.approx(
            0.25 * SquaredLoss(X, y).lipschitz(), rel=1e-12
        )

    def test_overflowing_product_is_inf_without_a_warning(self, rng):
        """The streamed ``X^T (X v)`` overflows on a design scaled by 1e200:
        the constant is inf, with no numpy overflow warning and no Frobenius
        fallback, and a finite design keeps its bits."""
        X, y = rng.standard_normal((2, 5)), np.array([1.0, -1.0])
        finite = LogisticLoss(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = LogisticLoss(1e200 * X, y)
            assert huge.lipschitz() == np.inf and huge.lipschitz_source == "lanczos"
            value = finite.lipschitz()
        assert value == 0.25 * power_iteration(lambda v: X.T @ (X @ v), 5, 1e-6, 1000).value

    def test_unconverged_fallback_is_a_quarter_of_frobenius(self, rng, monkeypatch):
        """Unconverged, the logistic constant is a quarter of the bound
        ``||X||_F^2``, with the squared loss's warning."""
        X = rng.standard_normal((10, 4))
        unconverged_lanczos(monkeypatch)
        loss = LogisticLoss(X, np.where(rng.standard_normal(10) > 0, 1.0, -1.0))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            value = loss.lipschitz()
        assert value == pytest.approx(0.25 * np.sum(X * X), rel=1e-12)
        assert loss.lipschitz_source == "frobenius"


class TestGramLipschitz:
    def test_all_ones_start_in_null_space(self, monkeypatch):
        # X @ 1 = 0, so the all-ones power-iteration start vanishes at once
        X = np.array([[1.0, -1.0], [2.0, -2.0], [0.5, -0.5]])
        assert two_pass_lipschitz(monkeypatch, X) == pytest.approx(10.5, rel=1e-9)
        beta, trace = solve(
            Problem.least_squares(X, np.array([1.0, 2.0, 0.5])), SolverConfig(lam=0.1, rel_tol=1e-12)
        )
        assert trace.status == "converged"
        # the minimum-l1 lasso solution splits the fit 1 = beta_0 - beta_1
        assert beta[0] - beta[1] == pytest.approx(1.0 - 0.1 / 5.25, rel=1e-6)

    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "streaming"])
    def test_all_ones_start_on_a_smaller_eigenvector(self, monkeypatch, gram):
        # X^T X = [[2, -1], [-1, 2]]: the all-ones vector is its eigenvector
        # of eigenvalue 1, the top one (3) is along (1, -1)
        X = np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        assert two_pass_lipschitz(monkeypatch, X) == pytest.approx(3.0, rel=1e-12)
        force_gram(monkeypatch, gram)
        loss = SquaredLoss(X, np.ones(3))
        assert loss.lipschitz() == pytest.approx(3.0, rel=1e-12)

    def test_top_eigenvector_orthogonal_to_ones(self, monkeypatch):
        # X = I + 2 u u^T with u = (e_0 - e_1) / sqrt(2): X^T X = I + 8 u u^T
        u = np.zeros(6)
        u[:2] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        X = np.eye(6) + 2.0 * np.outer(u, u)
        assert two_pass_lipschitz(monkeypatch, X) == pytest.approx(9.0, rel=1e-12)

    def test_unconverged_fallback_does_not_copy_design(self, rng, monkeypatch):
        X = rng.standard_normal((2000, 500))
        force_gram(monkeypatch, False)
        unconverged_lanczos(monkeypatch)
        loss = SquaredLoss(X, np.zeros(2000))
        tracemalloc.start()
        try:
            with pytest.warns(RuntimeWarning, match="did not converge"):
                value = loss.lipschitz()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(np.sum(X * X), rel=1e-12)
        assert peak < X.nbytes / 2


def test_logistic_gradient_does_not_copy_design(rng):
    X = rng.standard_normal((2000, 500))
    y = np.where(rng.random(2000) < 0.5, -1.0, 1.0)
    loss = LogisticLoss(X, y)
    beta = 0.01 * rng.standard_normal(500)
    tracemalloc.start()
    try:
        loss_gradient(loss, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2


class TestHalfGramProduct:
    """The vector Gram product reads one triangle of an F-ordered Gram in
    place; J x K iterates keep the general product."""

    @pytest.fixture(autouse=True)
    def gram(self, monkeypatch):
        force_gram(monkeypatch, True)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gram_is_fortran_ordered(self, rng, order):
        X = np.asarray(rng.standard_normal((30, 8)), order=order)
        loss = SquaredLoss(X, rng.standard_normal(30))
        assert loss._XtX.flags.f_contiguous

    def test_vector_product_does_not_copy_gram(self, rng):
        J = 600
        X = rng.standard_normal((50, J))
        loss = SquaredLoss(X, rng.standard_normal(50))
        assert loss.gram is not None  # J = 12 N streams by default
        v = rng.standard_normal(J)
        tracemalloc.start()
        try:
            loss.product(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < J * J * 8 / 2

    @pytest.mark.parametrize("shape", [(7,), (7, 3)], ids=["vector", "matrix"])
    def test_product_matches_two_passes(self, rng, shape):
        X = rng.standard_normal((20, 7))
        loss = SquaredLoss(X, rng.standard_normal(20))
        beta = rng.standard_normal(shape)
        expected = X.T @ (X @ beta)
        got = loss.product(beta)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("seed", range(4))
    def test_gram_lipschitz_matches_two_pass(self, seed, monkeypatch):
        X = np.random.default_rng(seed).standard_normal((40, 15))
        loss = SquaredLoss(X, np.zeros(40))
        assert loss.lipschitz() == pytest.approx(two_pass_lipschitz(monkeypatch, X), rel=1e-12)

    def test_gram_lipschitz_all_ones_start_in_null_space(self, monkeypatch):
        X = np.array([[1.0, -1.0], [2.0, -2.0], [0.5, -0.5]])
        loss = SquaredLoss(X, np.ones(3))
        assert loss.lipschitz() == pytest.approx(two_pass_lipschitz(monkeypatch, X), rel=1e-12)
        assert loss.lipschitz() == pytest.approx(10.5, rel=1e-12)


class TestPowerIteration:
    def test_diagonal_operator(self):
        d = np.array([3.0, 1.0, 0.5])
        est = power_iteration(lambda v: d * v, 3, tol=1e-12, max_iter=1000)
        assert est.converged
        assert est.value == pytest.approx(3.0, rel=1e-10)
        assert 1 < est.iterations < 1000

    def test_zero_operator(self):
        est = power_iteration(lambda v: 0.0 * v, 4, tol=1e-6, max_iter=10)
        # the start vanishes at the first product, a breakdown: 0 is exact
        assert est == (0.0, 1, True)

    def test_invariant_after_one_product(self):
        # 2 I maps the start onto itself, so the Krylov space is invariant
        # after one product and its Ritz value is exact
        est = power_iteration(lambda v: 2.0 * v, 5, tol=1e-6, max_iter=10)
        assert est == (2.0, 1, True)

    def test_start_along_the_top_eigenvector(self):
        # m is the seeded Gaussian start itself, so the first product already
        # gives the top eigenvalue ||m||^2 of the rank-one m m^T
        m = np.random.default_rng(0).standard_normal(5)
        first = power_iteration(lambda v: m * (m @ v), 5, tol=1e-6, max_iter=1)
        assert first.value == pytest.approx(m @ m, rel=1e-14)
        est = power_iteration(lambda v: m * (m @ v), 5, tol=1e-6, max_iter=1000)
        assert est.converged and est.value == pytest.approx(m @ m, rel=1e-14)

    def test_nonconvergence_flagged(self):
        d = np.array([1.0, 0.999])
        est = power_iteration(lambda v: d * v, 2, tol=0.0, max_iter=3)
        assert not est.converged and est.iterations == 3

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), J=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           repeated_top=st.booleans())
    def test_matches_dense_eigensolve(self, data, J, seed, repeated_top):
        # random PSD M^T M, rank deficient when rank < J, and with the top
        # eigenvalue repeated when the two largest singular values are set equal
        rank = data.draw(st.integers(1, J), label="rank")
        M = np.random.default_rng(seed).standard_normal((rank, J))
        if repeated_top and rank >= 2:
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            s[1] = s[0]
            M = (U * s) @ Vt
        expected = np.linalg.eigvalsh(M.T @ M).max()
        est = power_iteration(lambda v: M.T @ (M @ v), J, tol=1e-6, max_iter=1000)
        assert est.converged
        assert expected * (1 - 1e-6) <= est.value <= expected * (1 + 1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_overlap_design_product_count(self, seed, monkeypatch):
        force_gram(monkeypatch, True)
        problem, _, _ = gen_overlap_instance(OverlapSimSpec(seed=seed, gamma=2.0))
        loss = SquaredLoss(problem.X, problem.y)
        gram_product, products = loss._gram_vector_product, []

        def counted_product(v):
            products.append(v)
            return gram_product(v)

        loss._gram_vector_product = counted_product
        value = loss.lipschitz()
        assert len(products) <= 50
        expected = np.linalg.eigvalsh(problem.X.T @ problem.X).max()
        assert value == pytest.approx(expected, rel=2e-6)
