"""Multi-output extension: J x K coefficient matrix with output-side structure.

The problem is ``0.5 * ||Y - X B||_F^2 + Omega(B) + lam * ||B||_1`` where the
structured penalty couples the K outputs (groups over output indices or a
graph on output nodes) and applies identically to every input row of B:

* group:  gamma * sum_j sum_g w_g * ||B[j, g]||_2
* graph:  gamma * sum_(m,l) tau(r) * sum_j |B[j,m] - sign(r) * B[j,l]|

Writing ``Omega(B) = max_{A in Q} <C B^T, A>`` with the same output-side
coupling matrix C, the smoothed machinery carries over columnwise: the dual
feasible set is a product of one copy of the vector-case set per input, so
the dual-domain bound is J times the vector-case bound, and the smoothed
gradient Lipschitz constant reuses the vector-case coupling norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import SquaredLoss
from .penalties import GroupPenaltySpec, StructureError, validate_penalty
from .solver import SolverConfig, _fista


@dataclass(frozen=True)
class MultiProblem:
    """Design matrix, response matrix, and an output-side penalty spec."""

    X: np.ndarray
    Y: np.ndarray
    penalty: object = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2:
            raise StructureError("X and Y must be 2-d arrays")
        if Y.shape[0] != X.shape[0]:
            raise StructureError(
                f"X has {X.shape[0]} samples but Y has {Y.shape[0]}"
            )
        if self.penalty is not None:
            validate_penalty(self.penalty, Y.shape[1])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def num_samples(self):
        return self.X.shape[0]

    @property
    def num_features(self):
        return self.X.shape[1]

    @property
    def num_outputs(self):
        return self.Y.shape[1]


def multi_penalty_value(problem: MultiProblem, B) -> float:
    """Exact structured penalty value for a J x K coefficient matrix."""
    B = np.asarray(B, dtype=float)
    spec = problem.penalty
    if spec is None:
        return 0.0
    if B.shape != (problem.num_features, problem.num_outputs):
        raise StructureError(
            f"B has shape {B.shape}, expected "
            f"({problem.num_features}, {problem.num_outputs})"
        )
    if isinstance(spec, GroupPenaltySpec):
        total = 0.0
        for g, w in zip(spec.groups, spec.weights):
            idx = np.asarray(g, dtype=np.int64)
            total += w * float(np.linalg.norm(B[:, idx], axis=1).sum())
        return spec.gamma * total
    total = 0.0
    for m, l, r in spec.edges:
        total += abs(r) * float(np.abs(B[:, m] - np.sign(r) * B[:, l]).sum())
    return spec.gamma * total


class _FrobeniusLoss(SquaredLoss):
    """0.5 * ||Y - X B||_F^2 with optional Gram precompute."""

    def __init__(self, X, Y, precompute=None):
        self._setup(X, Y, precompute)


def solve_multivariate(problem: MultiProblem, config: SolverConfig, B0=None):
    """Smoothing proximal gradient over the coefficient matrix.

    The vector solver's loop, run on matrix-shaped iterates.  Returns
    ``(B, trace)``.
    """
    J, K = problem.num_features, problem.num_outputs
    B = np.zeros((J, K)) if B0 is None else np.asarray(B0, dtype=float).copy()
    if B.shape != (J, K):
        raise StructureError(f"B0 has shape {B.shape}, expected ({J}, {K})")
    loss = _FrobeniusLoss(problem.X, problem.Y)
    return _fista(loss, problem.penalty, config, B, K, num_inputs=J, header={"shape": [J, K]})
