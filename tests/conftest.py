import itertools
import math

import numpy as np
import pytest

from smoothprox import GraphPenaltySpec, GroupPenaltySpec, StructureError, losses

#: Values that are not numbers, each with its id: no number a caller passes
#: (a settings field, a step-size formula's argument, a lambda) may be one.
NOT_NUMBERS = [(True, "bool"), (np.True_, "numpy-bool"), ("1", "str"), ([1.0], "list"), (None, "none")]


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


def penalty_value(spec, beta):
    """The exact penalty by the spec's own definition, not through ``C``,
    summed over the rows of a J x K beta (the penalty over its K columns):
    ``gamma * sum_g w_g ||beta_g||_2`` for groups and
    ``gamma * sum_e |r| |beta_m - sign(r) beta_l|`` for a graph."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim not in (1, 2):
        raise StructureError(f"expected a 1-d or 2-d coefficient array, got shape {beta.shape}")
    spec.validate_against(beta.shape[-1])
    total = 0.0
    if isinstance(spec, GroupPenaltySpec):
        for g, w in zip(spec.groups, spec.weights):
            total += w * float(np.linalg.norm(beta[..., np.asarray(g, dtype=np.int64)], axis=-1).sum())
    else:
        for m, l, r in spec.edges:
            total += abs(r) * float(np.abs(beta[..., m] - np.sign(r) * beta[..., l]).sum())
    return spec.gamma * total


def force_gram(monkeypatch, gram):
    """Make each ``SquaredLoss`` built from here on use the Gram (``gram``
    true) or stream through X (false), whatever the shape of X."""
    if gram:
        monkeypatch.setattr(losses, "PRECOMPUTE_MAX_FEATURES_PER_SAMPLE", math.inf)
    else:
        monkeypatch.setattr(losses, "PRECOMPUTE_MAX_FEATURES", 0)


def unconverged_lanczos(monkeypatch):
    """Make every Lanczos run stop after one product, unconverged on an
    operator with two distinct eigenvalues: ``lipschitz()`` then takes the
    Frobenius fallback, and ``spectral_norm()`` flags its estimate."""
    power_iteration = losses.power_iteration
    monkeypatch.setattr(losses, "power_iteration",
                        lambda matvec, J, tol, max_iter: power_iteration(matvec, J, tol, 1))


def loss_value(loss, beta):
    """The loss at beta, from its product at beta."""
    beta = np.asarray(beta, dtype=float)
    return loss.value_from(beta, loss.product(beta))


def loss_gradient(loss, beta):
    """The loss gradient at beta, from its product at beta."""
    return loss.gradient_from(loss.product(np.asarray(beta, dtype=float)))


def block_bounds(coupling):
    """The ``(start, stop)`` rows of each row block of C, in row order: from
    ``block_sizes``, or one row per block when that is None."""
    bounds = list(itertools.accumulate(coupling.block_sizes or (1,) * coupling.rows, initial=0))
    return tuple(zip(bounds, bounds[1:]))


def alpha_star(coupling, beta, mu):
    """The maximizer of the smoothed dual at beta, by its definition: each row
    block of ``C beta / mu`` (of each column of ``C B^T / mu`` for a J x K
    beta) projected onto the unit l2 ball."""
    alpha = coupling.matrix @ np.asarray(beta, dtype=float).T / mu
    for a, b in block_bounds(coupling):
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
