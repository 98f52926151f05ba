"""Smooth approximation of the structured penalties.

The exact penalty ``f0(beta) = max_{alpha in Q} alpha^T C beta`` is replaced
by ``f_mu(beta) = max_{alpha in Q} (alpha^T C beta - mu/2 * ||alpha||^2)``,
which is smooth with gradient ``C^T alpha*`` and satisfies the sandwich bound
``f0 - mu*D <= f_mu <= f0`` where ``D = max_{alpha in Q} ||alpha||^2 / 2``.
The maximizer ``alpha*`` has a closed form: per-group l2-ball projection for
group penalties, entrywise clipping to [-1, 1] for graph penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import SpectralEstimate, power_iteration
from .penalties import (
    CouplingMatrix,
    GraphPenaltySpec,
    GroupPenaltySpec,
    StructureError,
    build_coupling,
)

#: Lower clamp on the smoothness parameter; avoids 1/mu blow-ups when a tiny
#: target accuracy is combined with a small dual-domain bound.
MU_FLOOR = 1e-12

#: Smoothness parameter used when no target accuracy is supplied.
DEFAULT_MU = 1e-4


def dual_domain_bound(spec) -> float:
    """Maximum of ||alpha||^2 / 2 over the dual feasible set.

    Equals (number of groups)/2 for group penalties (product of unit balls)
    and (number of edges)/2 for graph penalties (l-infinity box).
    """
    if isinstance(spec, GroupPenaltySpec):
        return len(spec.groups) / 2.0
    if isinstance(spec, GraphPenaltySpec):
        return len(spec.edges) / 2.0
    raise StructureError(f"unknown penalty spec type {type(spec).__name__}")


def select_mu(epsilon=None, D=None) -> float:
    """Smoothness parameter for a target accuracy: mu = epsilon / (2 D).

    With no target accuracy, returns the fixed default of 1e-4.
    """
    if epsilon is None:
        return DEFAULT_MU
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if D is None or D <= 0:
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
    made each iteration three times slower.
    """

    coupling: CouplingMatrix
    mu: float
    D: float
    kind: str  # "group" | "graph"

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.kind not in ("group", "graph"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "group" and self.coupling.row_blocks is None:
            raise StructureError("group smoothing requires row blocks")

    def alpha_star(self, beta) -> np.ndarray:
        """Closed-form maximizer of the smoothed dual problem at beta: the
        blockwise projection of C beta / mu onto the unit balls."""
        z = self.coupling.apply(beta)
        z /= self.mu
        return self.coupling.project_unit(z)

    def values(self, beta):
        """``(f0, f_mu)``, the exact and the smoothed penalty, from one ``C beta``.

        With block norms n and c = min(n, mu), f0 = sum n and
        f_mu = sum c^2 / (2 mu) + sum (n - c): per block n^2 / (2 mu) inside
        the ball, n - mu/2 outside.
        """
        z = self.coupling.apply(beta)
        n = self.coupling.block_norms(z, out=z)
        f0 = float(n.sum())
        c = np.minimum(n, self.mu, out=n)
        return f0, float(np.vdot(c, c)) / (2.0 * self.mu) + (f0 - float(c.sum()))

    def value(self, beta) -> float:
        return self.values(beta)[1]

    def gradient(self, beta) -> np.ndarray:
        return self.coupling.apply_transpose(self.alpha_star(beta))


def smoothed_penalty(spec, mu, num_features=None, num_inputs=1) -> SmoothedPenalty:
    """Build a SmoothedPenalty from a penalty spec.

    For J x K matrix iterates pass ``num_features=K`` and ``num_inputs=J``:
    the dual set holds one copy per input, so D is J times the vector bound.
    """
    coupling = build_coupling(spec, num_features=num_features)
    kind = "group" if isinstance(spec, GroupPenaltySpec) else "graph"
    return SmoothedPenalty(
        coupling=coupling, mu=mu, D=num_inputs * dual_domain_bound(spec), kind=kind
    )


def alpha_star_group(spec: GroupPenaltySpec, mu, beta, num_features=None) -> np.ndarray:
    """Per-group l2-ball projection of gamma * w_g * beta_g / mu."""
    beta = np.asarray(beta, dtype=float)
    J = beta.shape[0] if num_features is None else num_features
    return smoothed_penalty(spec, mu, num_features=J).alpha_star(beta)


def alpha_star_graph(spec: GraphPenaltySpec, mu, beta) -> np.ndarray:
    """Entrywise clip of C beta / mu to [-1, 1]."""
    return smoothed_penalty(spec, mu).alpha_star(beta)


def coupling_norm_group(spec: GroupPenaltySpec) -> float:
    """Exact operator norm of the group coupling matrix.

    Because each row has a single non-zero, ||C|| is gamma times the largest
    root-sum-of-squares of weights over the groups containing any one index.
    """
    per_index = {}
    for g, w in zip(spec.groups, spec.weights):
        for j in g:
            per_index[j] = per_index.get(j, 0.0) + w * w
    return spec.gamma * float(np.sqrt(max(per_index.values())))


def coupling_norm_graph_bound(spec: GraphPenaltySpec) -> float:
    """Tight upper bound on the graph coupling norm.

    ``sqrt(2 gamma^2 max_j d_j)`` with ``d_j`` the tau^2-weighted degree of
    node j; for unit weights d_j is just the degree.
    """
    degrees = np.zeros(spec.num_nodes)
    for m, l, r in spec.edges:
        tau2 = r * r
        degrees[m] += tau2
        degrees[l] += tau2
    return spec.gamma * float(np.sqrt(2.0 * degrees.max())) if spec.edges else 0.0


def coupling_norm(spec, exact_graph=False) -> float:
    """Operator norm of the coupling matrix for either penalty family.

    For graphs, returns the closed-form upper bound by default (keeps the
    step-size guarantee conservative); set ``exact_graph`` for a power
    iteration estimate.
    """
    if isinstance(spec, GroupPenaltySpec):
        return coupling_norm_group(spec)
    if isinstance(spec, GraphPenaltySpec):
        if exact_graph:
            return spectral_norm_power_iteration(build_coupling(spec)).value
        return coupling_norm_graph_bound(spec)
    raise StructureError(f"unknown penalty spec type {type(spec).__name__}")


def spectral_norm_power_iteration(
    coupling: CouplingMatrix, tol=1e-8, max_iter=5000
) -> SpectralEstimate:
    """Largest singular value of C: the square root of the largest eigenvalue
    of C^T C by ``power_iteration``, flagged as approximate unless the
    eigenvalue's relative change falls to ``tol`` within ``max_iter`` steps."""
    if coupling.rows == 0 or coupling.nnz == 0:
        return SpectralEstimate(0.0, 0, True)
    est = power_iteration(
        lambda v: coupling.apply_transpose(coupling.apply(v)), coupling.cols, tol, max_iter
    )
    return est._replace(value=float(np.sqrt(est.value)))
