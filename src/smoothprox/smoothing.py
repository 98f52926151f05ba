"""Smooth approximation of the structured penalties.

The exact penalty ``f0(beta) = max_{alpha in Q} alpha^T C beta`` is replaced
by ``f_mu(beta) = max_{alpha in Q} (alpha^T C beta - mu/2 * ||alpha||^2)``,
which is smooth with gradient ``C^T alpha*`` and satisfies the sandwich bound
``f0 - mu*D <= f_mu <= f0`` where ``D = max_{alpha in Q} ||alpha||^2 / 2``.
The maximizer ``alpha*`` has a closed form: per-group l2-ball projection for
group penalties, entrywise clipping to [-1, 1] for graph penalties.  Both are
formed at ``z = C beta`` without dividing z by mu (``CouplingMatrix.project_dual``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dasum, ddot

from .losses import SpectralEstimate, power_iteration
from .penalties import CouplingMatrix

#: Lower clamp on the smoothness parameter; avoids 1/mu blow-ups when a tiny
#: target accuracy is combined with a small dual-domain bound.
MU_FLOOR = 1e-12

#: Smoothness parameter used when no target accuracy is supplied.
DEFAULT_MU = 1e-4


def select_mu(epsilon=None, D=None) -> float:
    """Smoothness parameter for a target accuracy: mu = epsilon / (2 D).

    With no target accuracy, returns the fixed default of 1e-4.
    """
    if epsilon is None:
        return DEFAULT_MU
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if D is None or not D > 0:
        raise ValueError("D must be positive")
    return max(epsilon / (2.0 * D), MU_FLOOR)


@dataclass(frozen=True)
class SmoothedPenalty:
    """Smoothed penalty bound to a coupling matrix and a smoothness mu.

    Takes a 1-d beta, or a J x K matrix B whose rows each carry one copy of
    the output-side penalty (``C B^T``, blocks reduced along axis 0).

    ``C B^T`` is the largest array of a solver iteration, so the methods
    below work on it in place.  With two or three live copies of it, glibc
    malloc hands the freed pages back to the system and faults them in again
    on the next iteration; on the multi-output graph design (435 x 200) that
    made each iteration three times slower.  For the same reason each method
    passes over it as few times as it can: ``gradient`` twice after forming
    it on a graph (the clip and the ``C^T`` product; ``1/mu`` is applied to
    the J or J x K result), ``values`` four times (a clip and three BLAS
    reductions; on groups these run on the much smaller block norms).
    """

    coupling: CouplingMatrix
    mu: float
    D: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    def alpha_star(self, beta) -> np.ndarray:
        """Closed-form maximizer of the smoothed dual problem at beta: the
        blockwise projection of C beta / mu onto the unit balls."""
        a, scale = self.coupling.project_dual(self.coupling.apply(beta), self.mu)
        if scale != 1.0:
            a /= scale
        return a

    def values(self, beta):
        """``(f0, f_mu)``, the exact and the smoothed penalty, from one ``C beta``.

        With block norms n and c = min(n, mu), f0 = sum n and
        f_mu = sum c^2 / (2 mu) + sum (n - c): per block n^2 / (2 mu) inside
        the ball, n - mu/2 outside.  On a graph each row is a block and its
        norm the absolute value of its entry of ``C beta``, so ``dasum`` and
        the clip to ``[-mu, mu]`` read the signed entries as they are.
        """
        n = self.coupling.apply(beta)
        blocks = self.coupling.row_blocks is not None
        if blocks:
            n = self.coupling.block_norms(n, out=n)
        n = n.reshape(-1)
        if not n.size:  # BLAS level-1 routines reject empty arrays
            return 0.0, 0.0
        f0 = float(dasum(n))
        # block norms are >= 0, so their clip is a minimum, with the same bits
        # and without np.clip's Python wrappers (a third of a group call)
        c = np.minimum(n, self.mu, out=n) if blocks else np.clip(n, -self.mu, self.mu, out=n)
        return f0, float(ddot(c, c)) / (2.0 * self.mu) + (f0 - float(dasum(c)))

    def value(self, beta) -> float:
        return self.values(beta)[1]

    def gradient(self, beta) -> np.ndarray:
        """``C^T alpha*``, shaped like beta."""
        a, scale = self.coupling.project_dual(self.coupling.apply(beta), self.mu)
        g = self.coupling.apply_transpose(a)
        if scale != 1.0:
            g /= scale
        return g


def smoothed_penalty(coupling, mu, num_inputs=1, epsilon=None) -> SmoothedPenalty:
    """Smooth the penalty whose coupling matrix is ``coupling``; ``mu=None``
    takes ``select_mu(epsilon, D)``.

    For J x K matrix iterates pass ``num_inputs=J``: the dual set holds one
    copy per input, so D is J times the vector bound.
    """
    D = num_inputs * coupling.dual_bound
    if mu is None:
        mu = select_mu(epsilon, D)
    return SmoothedPenalty(coupling=coupling, mu=mu, D=D)


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
