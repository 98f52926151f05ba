import numpy as np
import pytest

from smoothprox import GraphPenaltySpec, GroupPenaltySpec


def random_group_spec(rng, num_features, max_groups=4, unit_weights=False):
    num_groups = int(rng.integers(1, max_groups + 1))
    groups = []
    for _ in range(num_groups):
        size = int(rng.integers(1, num_features + 1))
        groups.append(tuple(sorted(rng.choice(num_features, size=size, replace=False))))
    weights = (
        (1.0,) * num_groups
        if unit_weights
        else tuple(rng.uniform(0.2, 2.0, size=num_groups))
    )
    gamma = float(rng.uniform(0.2, 3.0))
    return GroupPenaltySpec(groups=tuple(groups), weights=weights, gamma=gamma)


def random_graph_spec(rng, num_nodes, max_edges=6):
    pairs = [(m, l) for m in range(num_nodes) for l in range(m + 1, num_nodes)]
    count = int(rng.integers(1, min(max_edges, len(pairs)) + 1))
    chosen = rng.choice(len(pairs), size=count, replace=False)
    edges = tuple(
        (pairs[i][0], pairs[i][1], float(rng.uniform(-1.0, 1.0))) for i in chosen
    )
    gamma = float(rng.uniform(0.2, 3.0))
    return GraphPenaltySpec(num_nodes=num_nodes, edges=edges, gamma=gamma)


def central_difference_gradient(fn, x, h):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        grad.flat[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grad


def alpha_star(coupling, beta, mu):
    """The maximizer of the smoothed dual at beta, by its definition: each row
    block of ``C beta / mu`` (of each column of ``C B^T / mu`` for a J x K
    beta) projected onto the unit l2 ball."""
    alpha = coupling.matrix @ np.asarray(beta, dtype=float).T / mu
    for a, b in coupling.row_blocks or [(e, e + 1) for e in range(coupling.rows)]:
        alpha[a:b] /= np.maximum(1.0, np.linalg.norm(alpha[a:b], axis=0))
    return alpha


def smoothed_value(coupling, beta, mu):
    """The smoothed penalty by its definition,
    ``f_mu(beta) = alpha*^T C beta - mu/2 ||alpha*||^2``."""
    alpha = alpha_star(coupling, beta, mu)
    z = coupling.matrix @ np.asarray(beta, dtype=float).T
    return float(np.sum(alpha * z) - 0.5 * mu * np.sum(alpha * alpha))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
