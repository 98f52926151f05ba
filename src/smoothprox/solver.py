"""Accelerated proximal gradient solver over the smoothed objective.

Minimizes ``f(beta) = g(beta) + Omega(beta) + lam * ||beta||_1`` by running
FISTA on the smoothed surrogate ``g + f_mu + lam * ||.||_1``: a gradient step
on the smooth part followed by entrywise soft-thresholding, with momentum
weights ``theta_t = 2 / (t + 2)``.  The reported and stopping objective is
the exact ``f``, not the surrogate.  The paper's three step-size formulas
live here: ``select_mu`` (``mu = epsilon / (2 D)``), ``total_lipschitz``
(``L = L_loss + ||C||^2 / mu``) and ``iteration_bound``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .losses import LogisticLoss, SquaredLoss, _checked_arrays
from .penalties import GraphPenaltySpec, GroupPenaltySpec, StructureError, _check_fields, _finite

#: Smoothness parameter used when no target accuracy is supplied.
DEFAULT_MU = 1e-4


class SolverError(RuntimeError):
    """Raised when the iteration produces non-finite values."""


@dataclass(frozen=True, eq=False)  # array fields: problems compare and hash by identity
class Problem:
    """A smooth loss over ``(X, y)`` plus an optional structured penalty.  For
    an N x K ``y`` the coefficients are J x K and the penalty, over the K
    outputs, applies to each row.  Shapes and the penalty are checked when
    the problem is made; the ``loss`` (finiteness scan of X and y, Gram) and
    the ``coupling`` are built on first use and kept."""

    X: np.ndarray
    y: np.ndarray
    penalty: object = None  # GroupPenaltySpec | GraphPenaltySpec | None
    make_loss: object = SquaredLoss  # (X, y) -> loss

    def __post_init__(self):
        X, y = _checked_arrays(self.X, self.y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.penalty is not None:
            if not isinstance(self.penalty, (GroupPenaltySpec, GraphPenaltySpec)):
                raise StructureError(f"unknown penalty spec type {type(self.penalty).__name__}")
            self.penalty.validate_against(self.coef_shape[-1])

    @property
    def coef_shape(self) -> tuple:
        """``(J,)`` for a vector response, ``(J, K)`` for an N x K one."""
        return self.X.shape[1:] + self.y.shape[1:]

    @cached_property
    def loss(self):
        return self.make_loss(self.X, self.y)

    @cached_property
    def coupling(self):
        """The penalty's C over the coefficients' last axis; None when the
        penalty is identically zero: no spec, ``gamma == 0``, or a C with no
        non-zeros (a graph without weighted edges)."""
        if self.penalty is None or self.penalty.gamma == 0.0:
            return None
        coupling = self.penalty.coupling(self.coef_shape[-1])
        return coupling if coupling.nnz else None

    @classmethod
    def least_squares(cls, X, y, penalty=None):
        return cls(X, y, penalty, SquaredLoss)

    @classmethod
    def logistic(cls, X, y, penalty=None):
        return cls(X, y, penalty, LogisticLoss)


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.0
    epsilon: float | None = None  # target accuracy; sets mu = epsilon / (2 D)
    mu: float | None = None  # explicit smoothness override
    max_iter: int = 20000
    rel_tol: float = 1e-6

    def __post_init__(self):
        _check_fields(self, lam=0, max_iter=1, rel_tol=0)
        if self.epsilon is not None and self.mu is not None:
            raise ValueError("give either epsilon or mu, not both")


@dataclass
class Trace:
    """The record of one run and the stopping rule that SPG and FOBOS share,
    made from the run's ``header``, whose ``rel_tol`` the rule reads (0 never
    stops).  Every iteration is recorded: entry i of each list is iteration
    i + 1, and ``elapsed`` counts from the making of the trace."""

    header: dict
    objectives: list = field(default_factory=list, init=False)
    smoothed_objectives: list = field(default_factory=list, init=False)
    elapsed: list = field(default_factory=list, init=False)
    status: str = field(default="running", init=False)
    final_nnz: int | None = field(default=None, init=False)  # the nnz and exact objective of the returned beta
    final_objective: float | None = field(default=None, init=False)
    start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def record(self, f, f_second) -> bool:
        """Append an iteration's exact objective ``f``, its second value (the
        smoothed objective; for FOBOS, the best so far) and the time; return
        whether to stop.  A non-finite ``f`` raises ``SolverError``."""
        if not math.isfinite(f):
            raise SolverError(f"non-finite objective at iteration {len(self) + 1}")
        self.objectives.append(f)
        self.smoothed_objectives.append(f_second)
        self.elapsed.append(time.perf_counter() - self.start)
        return self._converged()

    def _converged(self) -> bool:
        """``|f - f_prev| / max(1, |f_prev|) < rel_tol`` on the last two objectives."""
        if len(self) < 2:
            return False
        f_prev, f = self.objectives[-2:]
        return abs(f - f_prev) / max(1.0, abs(f_prev)) < self.header["rel_tol"]

    def finish(self, beta, f):
        """Write the status (``converged`` when the last record met the rule,
        else ``max_iter``) and the nnz and exact objective ``f`` of ``beta``,
        the coefficients the run returns."""
        self.status = "converged" if self._converged() else "max_iter"
        self.final_nnz = int(np.count_nonzero(beta))
        self.final_objective = f

    def summary(self) -> dict:
        """What a run reports: its iterations and status, and the exact
        objective and nnz of the coefficients it returns."""
        return {"iterations": len(self), "objective": self.final_objective,
                "nnz": self.final_nnz, "status": self.status}

    def __len__(self):
        return len(self.objectives)

    def write_jsonl(self, path):
        """The header, one line per recorded iteration, then the summary."""
        lines = [{"header": self.header}]
        records = zip(self.objectives, self.smoothed_objectives, self.elapsed)
        for t, (f, fs, el) in enumerate(records, start=1):
            lines.append({"t": t, "f": f, "f_smooth": fs, "elapsed_s": el})
        lines.append(self.summary())
        with open(path, "w") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in lines)


def soft_threshold(v, threshold) -> np.ndarray:
    """Entrywise sign(v) * max(0, |v| - threshold), computed as
    ``v - clip(v, -threshold, threshold)`` in one new array, in v's layout.

    The two forms are equal bit for bit but for the sign of zero: entries
    with ``|v| <= threshold`` come out as exact +0.0.  The clip is
    ``maximum(minimum(v, t), -t)``, which gives ``np.clip``'s bits (signed
    zeros included, in this order) without its Python wrappers.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be non-negative")
    v = np.asarray(v, dtype=float)
    out = np.minimum(v, threshold, out=np.empty_like(v))
    np.maximum(out, -threshold, out=out)
    return np.subtract(v, out, out=out)


def select_mu(epsilon=None, D=None) -> float:
    """Smoothness parameter for a target accuracy: mu = epsilon / (2 D).

    With no target accuracy, returns the fixed default of 1e-4.  An
    ``epsilon`` or ``D`` that is not a positive, finite real number (a bool
    is not one) is a ValueError, and so is an ``epsilon / (2 D)`` that
    underflows to 0, as no positive float is then small enough to keep the
    smoothing bias ``mu D`` within ``epsilon / 2``, or that overflows.
    """
    if epsilon is None:
        return DEFAULT_MU
    mu = _finite(epsilon, "epsilon", sign="positive") / (2.0 * _finite(D, "D", sign="positive"))
    if not 0.0 < mu < math.inf:
        how = "underflows to 0" if mu == 0.0 else "overflows"
        raise ValueError(f"epsilon / (2 D) {how} at epsilon={epsilon!r}, D={D!r}")
    return mu


def total_lipschitz(loss_lipschitz, coupling_norm_value, mu) -> float:
    """Gradient Lipschitz constant of the smooth part: L_loss + ||C||^2 / mu.

    ``L_loss`` and ``||C||`` must be non-negative and finite and mu positive
    and finite (ValueError).  A sum that overflows is a ``SolverError``: every
    step ``grad / L`` would be 0."""
    L_loss = _finite(loss_lipschitz, "L_loss", sign="non-negative")
    norm_C = _finite(coupling_norm_value, "norm_C", sign="non-negative")
    mu = _finite(mu, "mu", sign="positive")
    try:
        L = L_loss + norm_C ** 2 / mu
    except OverflowError:  # a float's ** 2 raises where it would overflow
        L = math.inf
    if L == math.inf:
        raise SolverError(f"the Lipschitz constant L_loss + ||C||^2 / mu overflows at "
                          f"||C||={norm_C!r}, mu={mu!r}")
    return L


def iteration_bound(dist0, epsilon, loss_lipschitz, dual_bound, coupling_norm_value):
    """Worst-case iteration count to reach accuracy epsilon with mu = eps/(2D):

    sqrt( (4 * dist0^2 / eps) * (L_loss + 2 D ||C||^2 / eps) ).

    Its inputs must be non-negative and finite, epsilon positive, and the
    count finite (ValueError).
    """
    epsilon = _finite(epsilon, "epsilon", sign="positive")
    dist0, L_loss, D, norm_C = (_finite(x, name, sign="non-negative") for x, name in (
        (dist0, "dist0"), (loss_lipschitz, "L_loss"), (dual_bound, "D"), (coupling_norm_value, "norm_C")))
    inner = L_loss + 2.0 * D * norm_C * norm_C / epsilon
    bound = float(np.sqrt(4.0 * dist0 * dist0 / epsilon * inner))
    if not math.isfinite(bound):
        raise ValueError("the iteration bound overflows")
    return bound


def solve(problem: Problem, config: SolverConfig, beta0=None):
    """Run the smoothing proximal gradient method on a ``Problem`` from
    ``beta0`` (zeros when None).  Returns ``(beta, trace)``, beta J x K for
    an N x K response, each row carrying one copy of the penalty.  Stops when
    the relative change of the exact objective drops below ``rel_tol`` or
    ``max_iter`` is reached.

    Each iteration makes one loss product, at the new iterate (on a float32
    Gram, as the last product plus the Gram times the step:
    ``SquaredLoss.next_product``); the product at the momentum point
    ``w = beta + m (beta - beta_prev)`` is the same combination of the last
    two products.  The loss value, the exact penalty
    and the smoothed penalty at the new iterate come from that product and one
    ``C beta``; the smoothed gradient at ``w`` costs ``C w`` and ``C^T alpha``.
    The gradient step ``w - grad / L`` is built in the gradient's own buffer
    (``gradient_from`` returns a new array), and ``w`` and its product are
    formed with no temporaries.  The recorded objectives read the loss off
    the products; ``trace.final_objective`` reads it once more through X, in
    float64, so it is the exact objective of the returned beta even when the
    Gram is float32.
    """
    beta = _initial_beta(problem, beta0)
    loss, coupling = problem.loss, problem.coupling
    mu = D = norm_C = None
    L_loss = L = loss.lipschitz()
    if not L_loss < math.inf:  # every step grad / L would be 0 (or NaN)
        raise SolverError(f"non-finite Lipschitz constant L={L_loss!r}")
    if coupling is not None:
        # the dual set holds one copy of Q per row of a J x K beta
        D = (beta.shape[0] if beta.ndim == 2 else 1) * coupling.dual_bound
        mu = select_mu(config.epsilon, D) if config.mu is None else config.mu
        norm_C = coupling.norm_bound
        L = total_lipschitz(L_loss, norm_C, mu)
    if L <= 0:
        raise SolverError("non-positive Lipschitz constant; nothing to optimize")
    lam = config.lam
    beta_prev = w = beta
    theta = 1.0
    p = p_w = loss.product(beta)  # the loss products at beta and at w
    trace = Trace(header={
        "method": "proxgrad", "mu": mu, "epsilon": config.epsilon, "L_loss": L_loss, "L": L,
        "D": D, "norm_C": norm_C, "lam": lam, "gram": loss.gram,
        "L_loss_source": loss.lipschitz_source, "max_iter": config.max_iter,
        "rel_tol": config.rel_tol, "shape": list(beta.shape),
    })
    for t in range(1, config.max_iter + 1):
        grad = loss.gradient_from(p_w)
        if coupling is not None:
            grad += coupling.smoothed_gradient(w, mu)
        if not np.isfinite(grad).all():
            raise SolverError(f"non-finite gradient at iteration {t}")
        grad /= L
        beta = soft_threshold(np.subtract(w, grad, out=grad), lam / L)
        theta_next = 2.0 / (t + 2.0)
        momentum = (1.0 - theta) / theta * theta_next
        w = _extrapolate(beta, beta_prev, momentum)
        p_next = loss.next_product(p, beta, beta_prev)
        p_w = _extrapolate(p_next, p, momentum)
        beta_prev, p, theta = beta, p_next, theta_next
        l1 = lam * float(np.abs(beta).sum())
        loss_l1 = loss.value_from(beta, p) + l1
        f0, f_mu = coupling.smoothed_values(beta, mu) if coupling is not None else (0.0, 0.0)
        f = loss_l1 + f0
        if trace.record(f, loss_l1 + f_mu):
            break
    trace.finish(beta, loss.value(beta) + l1 + f0)
    return beta, trace


def _extrapolate(x, x_prev, m) -> np.ndarray:
    """``x + m (x - x_prev)`` in one new array, with no temporaries."""
    out = np.subtract(x, x_prev)
    out *= m
    out += x
    return out


def _initial_beta(problem, beta0) -> np.ndarray:
    """A Fortran-ordered copy of the starting point ``beta0``, zeros of the
    problem's ``coef_shape`` when it is None; a given start must be finite
    (ValueError).  The loops keep that layout: a J x K iterate, its Gram
    products and its gradients are all F-ordered, so ``C B^T`` and BLAS read
    them in place."""
    shape = problem.coef_shape
    beta = np.zeros(shape, order="F") if beta0 is None else np.array(beta0, dtype=float, order="F")
    if beta.shape != shape:
        raise StructureError(f"beta0 has shape {beta.shape}, expected {shape}")
    if beta0 is not None and not np.isfinite(beta).all():
        raise ValueError("beta0 must be finite")
    return beta


def regularization_path(problem: Problem, lambdas, config: SolverConfig):
    """Warm-started solves along a strictly descending lambda sequence.

    Returns a list of ``(lam, beta, trace)``; each solve starts from the
    previous solution, and all share the problem's coupling matrix.
    """
    lambdas = [_finite(l, "lambda", sign="non-negative") for l in lambdas]
    if not lambdas:
        raise ValueError("at least one lambda is required")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda sequence must be strictly descending")
    results = []
    beta = None
    for lam in lambdas:
        beta, trace = solve(problem, replace(config, lam=lam), beta0=beta)
        results.append((lam, beta, trace))
    return results
