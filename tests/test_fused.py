"""The solver loop against an unfused reference, and the penalty values read
off ``C beta`` against the penalties' own definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothprox import (
    GraphPenaltySpec,
    GroupPenaltySpec,
    LogisticLoss,
    MultiProblem,
    Problem,
    SolverConfig,
    solve,
    solve_multivariate,
)
from smoothprox import losses
from conftest import block_bounds, force_gram, penalty_value, smoothed_value

STEPS = 40


# Both specs are over 6 nodes: the features of a vector iterate, or the
# outputs of a matrix iterate.
def group_spec():
    return GroupPenaltySpec(((0, 1, 2), (2, 3), (3, 4, 5), (0, 5)), (1.0, 0.5, 2.0, 1.5), 0.7)


def graph_spec():
    edges = ((0, 1, 0.9), (1, 2, -0.6), (0, 3, 0.0), (3, 4, 0.4), (2, 5, -1.0))
    return GraphPenaltySpec(6, edges, 0.7)


SPECS = {"group": group_spec, "graph": graph_spec}


def reference_spg(X, Y, spec, mu, L, lam, steps, logistic=False):
    """Unfused FISTA on the smoothed objective, written without the solver's
    helpers: every iteration evaluates the loss gradient at w, the exact
    penalty from the spec's definition and the smoothed penalty from alpha*,
    each with its own products.  A 2-d ``Y`` means a J x K iterate whose rows
    each carry the output-side penalty.  Returns the iterates, the exact
    objectives and the smoothed objectives."""
    matrix = Y.ndim == 2
    K = Y.shape[1] if matrix else X.shape[1]
    C = spec.coupling(K).matrix.toarray()
    blocks = block_bounds(spec.coupling(K))

    def alpha(B):
        Z = C @ (B.T if matrix else B) / mu
        A = np.zeros_like(Z)
        for a, b in blocks:
            norm = np.linalg.norm(Z[a:b], axis=0)
            A[a:b] = Z[a:b] / np.maximum(1.0, norm)
        return A

    def loss(B):
        if logistic:
            return np.sum(np.log1p(np.exp(-Y * (X @ B))))
        return 0.5 * np.sum((X @ B - Y) ** 2)

    def loss_gradient(B):
        if logistic:
            return -X.T @ (Y / (1.0 + np.exp(Y * (X @ B))))
        return X.T @ (X @ B - Y)

    def smoothed(B):
        A = alpha(B)
        Z = C @ (B.T if matrix else B)
        return np.sum(A * Z) - 0.5 * mu * np.sum(A * A)

    def exact(B):
        return penalty_value(spec, B)

    beta = np.zeros((X.shape[1], Y.shape[1]) if matrix else X.shape[1])
    w = beta.copy()
    theta = 1.0
    iterates, f, f_smooth = [], [], []
    for t in range(steps):
        A = alpha(w)
        grad = loss_gradient(w) + (C.T @ A).T
        v = w - grad / L
        beta_next = np.sign(v) * np.maximum(0.0, np.abs(v) - lam / L)
        theta_next = 2.0 / (t + 3.0)
        w = beta_next + (1.0 - theta) / theta * theta_next * (beta_next - beta)
        beta, theta = beta_next, theta_next
        l1 = lam * np.abs(beta).sum()
        iterates.append(beta.copy())
        f.append(loss(beta) + l1 + exact(beta))
        f_smooth.append(loss(beta) + l1 + smoothed(beta))
    return iterates, f, f_smooth


def assert_matches_reference(run, X, Y, spec, lam, logistic=False):
    _, trace = run(STEPS)
    mu, L = trace.header["mu"], trace.header["L"]
    iterates, f, f_smooth = reference_spg(X, Y, spec, mu, L, lam, STEPS, logistic)
    assert len(trace) == STEPS
    np.testing.assert_allclose(trace.objectives, f, rtol=1e-10)
    np.testing.assert_allclose(trace.smoothed_objectives, f_smooth, rtol=1e-10)
    for steps in (1, 2, 3, 10, STEPS):
        beta, _ = run(steps)
        expected = iterates[steps - 1]
        np.testing.assert_allclose(beta, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("gram", [True, False], ids=["gram", "streaming"])
def test_vector_squared_loss_matches_reference(rng, monkeypatch, kind, gram):
    force_gram(monkeypatch, gram)
    X = rng.standard_normal((30, 6))
    y = X @ rng.standard_normal(6) + 0.1 * rng.standard_normal(30)
    spec = SPECS[kind]()
    problem = Problem.least_squares(X, y, spec)
    config = lambda steps: SolverConfig(lam=0.4, mu=0.05, max_iter=steps, rel_tol=1e-300)
    assert_matches_reference(lambda steps: solve(problem, config(steps)), X, y, spec, 0.4)


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("gram", [True, False], ids=["gram", "streaming"])
def test_matrix_squared_loss_matches_reference(rng, monkeypatch, kind, gram):
    force_gram(monkeypatch, gram)
    X = rng.standard_normal((30, 5))
    Y = X @ rng.standard_normal((5, 6)) + 0.1 * rng.standard_normal((30, 6))
    spec = SPECS[kind]()
    problem = MultiProblem(X, Y, spec)
    config = lambda steps: SolverConfig(lam=0.4, mu=0.05, max_iter=steps, rel_tol=1e-300)
    assert_matches_reference(lambda steps: solve_multivariate(problem, config(steps)), X, Y, spec, 0.4)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_logistic_loss_matches_reference(rng, kind):
    X = rng.standard_normal((40, 6))
    y = np.where(X @ rng.standard_normal(6) + 0.3 * rng.standard_normal(40) > 0, 1.0, -1.0)
    spec = SPECS[kind]()
    problem = Problem.logistic(X, y, spec)
    config = lambda steps: SolverConfig(lam=0.2, mu=0.05, max_iter=steps, rel_tol=1e-300)
    assert_matches_reference(lambda steps: solve(problem, config(steps)), X, y, spec, 0.2, logistic=True)


@pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
def test_one_loss_product_per_iteration(rng, matrix):
    X = rng.standard_normal((30, 6))
    if matrix:
        problem = MultiProblem(X, rng.standard_normal((30, 6)), graph_spec())
    else:
        problem = Problem.least_squares(X, rng.standard_normal(30), group_spec())
    calls = []
    product = losses.SquaredLoss.product

    def counted(self, beta):
        calls.append(1)
        return product(self, beta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses.SquaredLoss, "product", counted)
        config = SolverConfig(lam=0.1, mu=0.05, max_iter=25, rel_tol=1e-300)
        _, trace = solve_multivariate(problem, config) if matrix else solve(problem, config)
    # one product for the starting point, then one per iteration
    assert len(calls) == len(trace) + 1 == 26


@st.composite
def specs(draw):
    K = draw(st.integers(2, 7))
    gamma = draw(st.floats(0.1, 5.0))
    if draw(st.booleans()):
        groups = draw(
            st.lists(st.lists(st.integers(0, K - 1), min_size=1, max_size=K, unique=True), min_size=1, max_size=5)
        )
        weights = draw(st.lists(st.floats(0.1, 3.0), min_size=len(groups), max_size=len(groups)))
        return GroupPenaltySpec(tuple(map(tuple, groups)), tuple(weights), gamma)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)).filter(lambda p: p[0] < p[1]),
                 unique=True, max_size=10)
    )
    rs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return GraphPenaltySpec(K, tuple((m, l, r) for (m, l), r in zip(pairs, rs)), gamma)


@settings(max_examples=150, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-4, 1e2),
       mu=st.floats(1e-3, 10.0), num_inputs=st.integers(0, 4))
def test_values_from_c_beta_match_definitions(spec, seed, scale, mu, num_inputs):
    """``values`` gives the exact penalty of the spec's own definition and a
    smoothed value equal to alpha*^T C beta - mu/2 ||alpha*||^2 inside the
    sandwich f0 - mu D <= f_mu <= f0.  ``num_inputs=0`` is a 1-d beta."""
    K = spec.num_nodes if isinstance(spec, GraphPenaltySpec) else 7
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal((num_inputs, K) if num_inputs else K) * scale
    beta[rng.random(beta.shape) < 0.3] = 0.0  # exact zeros: kinks of the penalty
    C = spec.coupling(K)
    f0, f_mu = C.smoothed_values(beta, mu)
    exact = penalty_value(spec, beta)
    tol = 1e-12 * max(1.0, exact)
    assert f0 == pytest.approx(exact, rel=1e-12, abs=1e-300)
    assert f_mu == pytest.approx(smoothed_value(C, beta, mu), rel=1e-10, abs=tol)
    D = max(num_inputs, 1) * C.dual_bound
    assert f0 - mu * D - tol <= f_mu <= f0 + tol


def test_logistic_loss_values_from_product(rng):
    X = rng.standard_normal((20, 4))
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    loss = LogisticLoss(X, y)
    beta = rng.standard_normal(4)
    p = loss.product(beta)
    assert loss.value_from(beta, p) == pytest.approx(np.sum(np.log1p(np.exp(-y * (X @ beta)))), rel=1e-12)
    np.testing.assert_allclose(loss.gradient_from(p), -X.T @ (y / (1.0 + np.exp(y * (X @ beta)))), rtol=1e-12)
