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

``solve`` runs this problem whenever its response is N x K; ``MultiProblem``
is the validated (X, Y, penalty) record that ``solve_multivariate`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import StructureError, validate_penalty
from .solver import Problem, SolverConfig, solve


@dataclass(frozen=True)
class MultiProblem:
    """Design matrix, response matrix, and an output-side penalty spec; the
    data are checked for finiteness when ``solve_multivariate`` builds the loss."""

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
    def num_features(self):
        return self.X.shape[1]

    @property
    def num_outputs(self):
        return self.Y.shape[1]


def solve_multivariate(problem: MultiProblem, config: SolverConfig, B0=None):
    """``solve`` on the least-squares problem with response matrix Y: the
    iterate is then J x K.  Returns ``(B, trace)``."""
    return solve(Problem.least_squares(problem.X, problem.Y, problem.penalty), config, B0)
