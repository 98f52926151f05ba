"""The multi-output names: ``MultiProblem`` is a least-squares ``Problem``
whose response must be an N x K matrix ``Y``, and ``solve_multivariate`` is
``solve``.  README ("Multi-output problems") gives the formulation.
"""

import numpy as np

from .penalties import StructureError
from .solver import Problem, solve


class MultiProblem(Problem):
    """``Problem(X, Y, penalty)`` with a 2-d response ``Y``."""

    def __post_init__(self):
        if np.ndim(self.y) != 2:
            raise StructureError(f"Y has shape {np.shape(self.y)}, expected a 2-d N x K array")
        super().__post_init__()

    @property
    def Y(self) -> np.ndarray:
        return self.y


solve_multivariate = solve
