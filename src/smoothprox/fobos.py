"""Forward-backward subgradient baseline.

Treats the loss plus the structured penalty as one (non-smooth) term and
takes a subgradient step with rate ``c / sqrt(t)``, followed by the l1 prox.
This is the standard comparison point for the smoothed solver: it needs no
smoothing but converges at the slower O(1/eps^2) rate and its objective
trace is non-monotone, so the best-so-far value is tracked alongside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .penalties import _real
from .solver import Problem, SolverError, Trace, _check_loop_fields, _initial_beta, soft_threshold


@dataclass
class FobosConfig:
    lam: float = 0.0
    c: float = 0.1  # step scale; step_t = c / sqrt(t), t starting at 1
    max_iter: int = 20000
    rel_tol: float = 1e-6
    record_trace: bool = True

    def __post_init__(self):
        _check_loop_fields(self)
        if not 0.0 < _real(self.c, "c", ValueError) < math.inf:
            raise ValueError("step scale c must be positive and finite")


def default_c(N, J, K=None) -> float:
    """Step scale 0.1 / sqrt(N*J) (univariate) or 0.1 / sqrt(N*J*K)."""
    if not (N >= 1 and J >= 1 and (K is None or K >= 1)):
        raise ValueError("dimensions must be positive")
    size = N * J if K is None else N * J * K
    return 0.1 / np.sqrt(size)


def solve_fobos(problem: Problem, config: FobosConfig, beta0=None):
    """Run the subgradient baseline; returns ``(beta_best, trace)``.

    ``beta_best`` is the iterate with the best objective seen, since the
    plain iterates do not decrease monotonically; it is the start when no
    iterate improves on it, and ``trace.final_objective`` is its objective
    either way.  The objective at an
    iterate and the step direction from it share one loss product and one
    ``C beta``; the penalty's subgradient is ``C^T u``, ``u`` the blockwise
    unit direction of ``C beta`` (``CouplingMatrix.value_and_subgradient``).
    """
    beta = _initial_beta(problem, beta0)
    lam = config.lam
    loss = problem.loss
    coupling = problem.coupling

    def objective_and_direction(b):
        p = loss.product(b)
        f = loss.value_from(b, p) + lam * float(np.abs(b).sum())
        direction = loss.gradient_from(p)  # a new array, owned here
        if coupling is not None:
            value, subgradient = coupling.value_and_subgradient(b)
            f += value
            direction += subgradient
        return f, direction

    trace = Trace(
        header={
            "method": "fobos",
            "c": config.c,
            "lam": lam,
            "max_iter": config.max_iter,
            "rel_tol": config.rel_tol,
            "f_smooth_field": "best_objective",
        }
    )
    best_f, direction = objective_and_direction(beta)
    best_beta = beta  # no iterate is written after it is made
    f_prev = None
    start = time.perf_counter()
    status = "max_iter"
    for t in range(1, config.max_iter + 1):
        step = config.c / np.sqrt(t)
        if not np.isfinite(direction).all():
            raise SolverError(f"non-finite subgradient at iteration {t}")
        direction *= step  # the step is built in the direction's buffer
        beta = soft_threshold(np.subtract(beta, direction, out=direction), step * lam)
        f, direction = objective_and_direction(beta)
        if not math.isfinite(f):
            raise SolverError(f"non-finite objective at iteration {t}")
        if f < best_f:
            best_f, best_beta = f, beta
        if config.record_trace:
            trace.record(t, f, best_f, time.perf_counter() - start)
        if f_prev is not None:
            if abs(f - f_prev) / max(1.0, abs(f_prev)) < config.rel_tol:
                status = "converged"
                break
        f_prev = f
    trace.status = status
    trace.final_nnz = int(np.count_nonzero(best_beta))
    trace.final_objective = best_f
    return best_beta, trace
