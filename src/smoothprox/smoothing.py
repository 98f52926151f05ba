"""Constants of the smooth approximation of the structured penalties.

The exact penalty ``f0(beta) = max_{alpha in Q} alpha^T C beta`` is replaced
by ``f_mu(beta) = max_{alpha in Q} (alpha^T C beta - mu/2 * ||alpha||^2)``,
which is smooth with gradient ``C^T alpha*`` and satisfies the sandwich bound
``f0 - mu*D <= f_mu <= f0`` where ``D = max_{alpha in Q} ||alpha||^2 / 2``.
The maximizer ``alpha*`` has a closed form: per-group l2-ball projection for
group penalties, entrywise clipping to [-1, 1] for graph penalties.
``CouplingMatrix.smoothed_values`` and ``.smoothed_gradient`` compute f0,
f_mu and ``C^T alpha*`` at a given mu; this module chooses mu from a target
accuracy and estimates ``||C||``.
"""

from __future__ import annotations

import numpy as np

from .losses import SpectralEstimate, power_iteration
from .penalties import CouplingMatrix, _real

#: Lower clamp on the smoothness parameter; avoids 1/mu blow-ups when a tiny
#: target accuracy is combined with a small dual-domain bound.
MU_FLOOR = 1e-12

#: Smoothness parameter used when no target accuracy is supplied.
DEFAULT_MU = 1e-4


def select_mu(epsilon=None, D=None) -> float:
    """Smoothness parameter for a target accuracy: mu = epsilon / (2 D).

    With no target accuracy, returns the fixed default of 1e-4.  A bool or a
    non-number is a ValueError.
    """
    if epsilon is None:
        return DEFAULT_MU
    if not _real(epsilon, "epsilon", ValueError) > 0:
        raise ValueError("epsilon must be positive")
    if D is None or not _real(D, "D", ValueError) > 0:
        raise ValueError("D must be positive")
    return max(epsilon / (2.0 * D), MU_FLOOR)


def spectral_norm_power_iteration(
    coupling: CouplingMatrix, tol=1e-8, max_iter=5000
) -> SpectralEstimate:
    """Largest singular value of C: the square root of the largest eigenvalue
    of C^T C by the Lanczos iteration of ``power_iteration`` (one ``C`` and
    one ``C^T`` product per step, two vectors kept), flagged as approximate
    unless the eigenvalue's relative change falls below ``tol`` within
    ``max_iter`` steps.  Like the eigenvalue, it approaches sigma_max from
    below."""
    if coupling.rows == 0 or coupling.nnz == 0:
        return SpectralEstimate(0.0, 0, True)
    est = power_iteration(
        lambda v: coupling.apply_transpose(coupling.apply(v)), coupling.cols, tol, max_iter
    )
    return est._replace(value=float(np.sqrt(est.value)))
