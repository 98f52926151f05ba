"""Forward-backward subgradient baseline.

Treats the loss plus the structured penalty as one (non-smooth) term and
takes a subgradient step with rate ``c / sqrt(t)``, followed by the l1 prox.
The step scale ``c = 0.1 / sqrt(N J [K])`` comes from the problem's shape.
This is the standard comparison point for the smoothed solver: it needs no
smoothing but converges at the slower O(1/eps^2) rate and its objective
trace is non-monotone, so the best-so-far value is tracked alongside.  It
stops by the rule ``solver.Trace`` applies to both solvers.
"""

from __future__ import annotations

import numpy as np

from .solver import Problem, SolverConfig, SolverError, Trace, _initial_beta, soft_threshold


def solve_fobos(problem: Problem, config: SolverConfig):
    """Run the subgradient baseline from zero; returns ``(beta_best, trace)``.
    It reads ``lam``, ``max_iter`` and ``rel_tol`` from ``config`` and not
    ``epsilon`` or ``mu``: it steps on the exact penalty, with no smoothing.

    ``beta_best`` is the iterate with the best objective seen, since the
    plain iterates do not decrease monotonically; it is the zero start when
    no iterate improves on it, and ``trace.final_objective`` is its objective
    either way, with the loss read through X in float64.  The step at
    iteration t is ``c / sqrt(t)`` with ``c = 0.1 / sqrt(N J)``, or
    ``0.1 / sqrt(N J K)`` for an N x K response; the trace header records
    it.  The objective at an iterate and the step direction from it share one
    loss product (``loss.next_product``, as in ``solver.solve``) and one
    ``C beta``; the penalty's subgradient is ``C^T u``, ``u`` the blockwise
    unit direction of ``C beta`` (``CouplingMatrix.value_and_subgradient``).
    """
    beta = _initial_beta(problem, None)
    lam = config.lam
    c = 0.1 / np.sqrt(problem.X.shape[0] * beta.size)
    loss = problem.loss
    coupling = problem.coupling

    def objective_and_direction(b, p):
        """The objective at b, its l1 and penalty terms, and the step
        direction from b, given ``p = loss.product(b)``."""
        l1, value = lam * float(np.abs(b).sum()), 0.0
        direction = loss.gradient_from(p)  # a new array, owned here
        if coupling is not None:
            value, subgradient = coupling.value_and_subgradient(b)
            direction += subgradient
        return loss.value_from(b, p) + l1 + value, (l1, value), direction

    p = loss.product(beta)
    best_f, best_terms, direction = objective_and_direction(beta, p)
    best_beta = beta  # no iterate is written after it is made
    trace = Trace(header={
        "method": "fobos", "c": c, "lam": lam, "gram": loss.gram, "max_iter": config.max_iter,
        "rel_tol": config.rel_tol, "shape": list(beta.shape), "f_smooth_field": "best_objective",
    })
    for t in range(1, config.max_iter + 1):
        step = c / np.sqrt(t)
        if not np.isfinite(direction).all():
            raise SolverError(f"non-finite subgradient at iteration {t}")
        direction *= step  # the step is built in the direction's buffer
        beta_prev = beta
        beta = soft_threshold(np.subtract(beta, direction, out=direction), step * lam)
        p = loss.next_product(p, beta, beta_prev)
        f, terms, direction = objective_and_direction(beta, p)
        if f < best_f:
            best_f, best_terms, best_beta = f, terms, beta
        if trace.record(f, best_f):
            break
    l1, value = best_terms
    trace.finish(best_beta, loss.value(best_beta) + l1 + value)
    return best_beta, trace
