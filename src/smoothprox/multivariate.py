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

``MultiProblem`` is this problem as a validated (X, Y, penalty) record whose
least-squares loss and coupling matrix are built on first use; ``solve``,
``regularization_path`` and ``solve_fobos`` take it like a ``Problem`` with an
N x K response.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .losses import Dataset, SquaredLoss
from .penalties import StructureError, penalty_coupling, validate_penalty
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class MultiProblem:
    """Design matrix, response matrix, and an output-side penalty spec; the
    ``loss`` (finiteness check, Gram) and the ``coupling`` are built on first
    use and kept."""

    X: np.ndarray
    Y: np.ndarray
    penalty: object = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2:
            raise StructureError("X and Y must be 2-d arrays")
        if Y.shape[0] != X.shape[0]:
            raise StructureError(f"X has {X.shape[0]} samples but Y has {Y.shape[0]}")
        if self.penalty is not None:
            validate_penalty(self.penalty, Y.shape[1])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @cached_property
    def loss(self) -> SquaredLoss:
        return SquaredLoss(Dataset(self.X, self.Y))

    @cached_property
    def coupling(self):
        """The output-side coupling matrix, None when the penalty is zero."""
        return penalty_coupling(self.penalty, self.Y.shape[1])

    @property
    def num_features(self):
        return self.X.shape[1]

    @property
    def num_outputs(self):
        return self.Y.shape[1]


def solve_multivariate(problem: MultiProblem, config: SolverConfig, B0=None):
    """``solve`` on the multi-output problem; returns ``(B, trace)``, B J x K."""
    return solve(problem, config, B0)
