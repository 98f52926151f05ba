"""The multi-output names: ``MultiProblem`` is a least-squares ``Problem``
whose response must be an N x K matrix ``Y``, and ``solve_multivariate`` is
``solve`` with the start named ``B0``.  README ("Multi-output problems")
gives the formulation.
"""

import numpy as np

from .penalties import StructureError
from .solver import Problem, SolverConfig, solve


class MultiProblem(Problem):
    """``Problem(X, Y, penalty)`` with a 2-d response ``Y``."""

    def __post_init__(self):
        if np.ndim(self.y) != 2:
            raise StructureError(f"Y has shape {np.shape(self.y)}, expected a 2-d N x K array")
        super().__post_init__()

    @property
    def Y(self) -> np.ndarray:
        return self.y


def solve_multivariate(problem: MultiProblem, config: SolverConfig, B0=None):
    """``solve`` on the multi-output problem; returns ``(B, trace)``, B J x K."""
    return solve(problem, config, B0)
