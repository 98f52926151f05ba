"""Accelerated proximal gradient solver over the smoothed objective.

Minimizes ``f(beta) = g(beta) + Omega(beta) + lam * ||beta||_1`` by running
FISTA on the smoothed surrogate ``g + f_mu + lam * ||.||_1``: a gradient step
on the smooth part followed by entrywise soft-thresholding, with momentum
weights ``theta_t = 2 / (t + 2)``.  The reported and stopping objective is
the exact ``f``, not the surrogate.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .losses import Dataset, LogisticLoss, SquaredLoss, _checked_arrays
from .penalties import GraphPenaltySpec, GroupPenaltySpec, StructureError, _real
from .smoothing import select_mu


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
    make_loss: object = SquaredLoss  # Dataset -> loss

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
        return self.make_loss(Dataset(self.X, self.y))

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
    def least_squares(cls, X, y, penalty=None, precompute=None):
        return cls(X, y, penalty, partial(SquaredLoss, precompute=precompute))

    @classmethod
    def logistic(cls, X, y, penalty=None):
        return cls(X, y, penalty, LogisticLoss)


def _check_loop_fields(config) -> None:
    """Check the fields every solver loop's config has: finite ``lam >= 0``,
    an integer ``max_iter >= 1`` (not a bool) and finite ``rel_tol >= 0`` (0
    never stops on the change).  Each test is written so that NaN fails it,
    and a bool or a non-number fails ``_real``."""
    if not 0.0 <= _real(config.lam, "lam", ValueError) < math.inf:
        raise ValueError("lam must be non-negative and finite")
    if isinstance(config.max_iter, bool) or not isinstance(config.max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {config.max_iter!r}")
    if not config.max_iter >= 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 <= _real(config.rel_tol, "rel_tol", ValueError) < math.inf:
        raise ValueError("rel_tol must be non-negative and finite")


@dataclass
class SolverConfig:
    lam: float = 0.0
    epsilon: float | None = None  # target accuracy; sets mu = epsilon / (2 D)
    mu: float | None = None  # explicit smoothness override
    max_iter: int = 20000
    rel_tol: float = 1e-6
    record_trace: bool = True

    def __post_init__(self):
        _check_loop_fields(self)
        if self.epsilon is not None and self.mu is not None:
            raise ValueError("give either epsilon or mu, not both")
        for name in ("epsilon", "mu"):
            value = getattr(self, name)
            if value is not None and not 0.0 < _real(value, name, ValueError) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class Trace:
    """Per-iteration objective records plus a terminal status."""

    header: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    smoothed_objectives: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    status: str = "running"
    final_nnz: int | None = None  # the nnz and exact objective of the returned beta
    final_objective: float | None = None

    def record(self, t, f, f_smooth, elapsed_s):
        self.iterations.append(t)
        self.objectives.append(f)
        self.smoothed_objectives.append(f_smooth)
        self.elapsed.append(elapsed_s)

    def __len__(self):
        return len(self.iterations)

    def write_jsonl(self, path):
        """The header, one line per recorded iteration, then the final status."""
        lines = [{"header": self.header}]
        for t, f, fs, el in zip(
            self.iterations, self.objectives, self.smoothed_objectives, self.elapsed
        ):
            lines.append({"t": t, "f": f, "f_smooth": fs, "elapsed_s": el})
        lines.append(
            {"status": self.status, "nnz": self.final_nnz, "objective": self.final_objective}
        )
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


def total_lipschitz(loss_lipschitz, coupling_norm_value, mu) -> float:
    """Gradient Lipschitz constant of the smooth part: L_loss + ||C||^2 / mu."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    return float(loss_lipschitz) + float(coupling_norm_value) ** 2 / mu


def iteration_bound(dist0, epsilon, loss_lipschitz, dual_bound, coupling_norm_value):
    """Worst-case iteration count to reach accuracy epsilon with mu = eps/(2D):

    sqrt( (4 * dist0^2 / eps) * (L_loss + 2 D ||C||^2 / eps) ).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    inner = loss_lipschitz + 2.0 * dual_bound * coupling_norm_value**2 / epsilon
    return float(np.sqrt(4.0 * dist0**2 / epsilon * inner))


def _fista(loss, coupling, config, beta):
    """The smoothing proximal gradient loop, for a 1-d beta or a J x K matrix
    whose rows each carry one copy of the penalty with coupling matrix
    ``coupling`` (None for no penalty).

    Each iteration makes one loss product, at the new iterate; the product at
    the momentum point ``w = beta + m (beta - beta_prev)`` is the same
    combination of the last two products.  The loss value, the exact penalty
    and the smoothed penalty at the new iterate come from that product and one
    ``C beta``; the smoothed gradient at ``w`` costs ``C w`` and ``C^T alpha``.
    The gradient step ``w - grad / L`` is built in the gradient's own buffer
    (``gradient_from`` returns a new array), and ``w`` and its product are
    formed with no temporaries.  Returns ``(beta, trace)``.
    """
    mu = D = norm_C = None
    L_loss = L = loss.lipschitz()
    if coupling is not None:
        # the dual set holds one copy of Q per row of a J x K beta
        D = (beta.shape[0] if beta.ndim == 2 else 1) * coupling.dual_bound
        mu = select_mu(config.epsilon, D) if config.mu is None else config.mu
        norm_C = coupling.norm_bound
        L = total_lipschitz(L_loss, norm_C, mu)
    if L <= 0:
        raise SolverError("non-positive Lipschitz constant; nothing to optimize")
    lam = config.lam
    trace = Trace(header={
        "mu": mu, "epsilon": config.epsilon, "L_loss": L_loss, "L": L, "D": D,
        "norm_C": norm_C, "lam": lam,
        "max_iter": config.max_iter, "rel_tol": config.rel_tol, "shape": list(beta.shape),
    })

    beta_prev = w = beta
    theta = 1.0
    p = p_w = loss.product(beta)  # the loss products at beta and at w
    f_prev = None
    start = time.perf_counter()
    status = "max_iter"
    for t in range(config.max_iter):
        grad = loss.gradient_from(p_w)
        if coupling is not None:
            grad += coupling.smoothed_gradient(w, mu)
        if not np.isfinite(grad).all():
            raise SolverError(f"non-finite gradient at iteration {t}")
        grad /= L
        beta = soft_threshold(np.subtract(w, grad, out=grad), lam / L)
        theta_next = 2.0 / (t + 3.0)
        momentum = (1.0 - theta) / theta * theta_next
        w = _extrapolate(beta, beta_prev, momentum)
        beta_prev, theta = beta, theta_next
        p_next = loss.product(beta)
        p_w = _extrapolate(p_next, p, momentum)
        p = p_next
        loss_l1 = loss.value_from(beta, p) + lam * float(np.abs(beta).sum())
        f0, f_mu = coupling.smoothed_values(beta, mu) if coupling is not None else (0.0, 0.0)
        f = loss_l1 + f0
        if not math.isfinite(f):
            raise SolverError(f"non-finite objective at iteration {t + 1}")
        if config.record_trace:
            trace.record(t + 1, f, loss_l1 + f_mu, time.perf_counter() - start)
        if f_prev is not None and abs(f - f_prev) / max(1.0, abs(f_prev)) < config.rel_tol:
            status = "converged"
            break
        f_prev = f
    trace.status = status
    trace.final_nnz = int(np.count_nonzero(beta))
    trace.final_objective = f
    return beta, trace


def _extrapolate(x, x_prev, m) -> np.ndarray:
    """``x + m (x - x_prev)`` in one new array, with no temporaries."""
    out = np.subtract(x, x_prev)
    out *= m
    out += x
    return out


def solve(problem: Problem, config: SolverConfig, beta0=None):
    """Run the smoothing proximal gradient method on a ``Problem``.

    Returns ``(beta, trace)``, beta J x K for an N x K response.  Stops when
    the relative change of the exact objective drops below ``rel_tol`` or
    ``max_iter`` is reached.
    """
    return _fista(problem.loss, problem.coupling, config, _initial_beta(problem, beta0))


def _initial_beta(problem, beta0) -> np.ndarray:
    """A Fortran-ordered copy of the starting point ``beta0``, zeros of the
    problem's ``coef_shape`` when it is None.  The loops keep that layout: a
    J x K iterate, its Gram products and its gradients are all F-ordered, so
    ``C B^T`` and BLAS read them in place."""
    shape = problem.coef_shape
    beta = np.zeros(shape, order="F") if beta0 is None else np.array(beta0, dtype=float, order="F")
    if beta.shape != shape:
        raise StructureError(f"beta0 has shape {beta.shape}, expected {shape}")
    return beta


def regularization_path(problem: Problem, lambdas, config: SolverConfig):
    """Warm-started solves along a strictly descending lambda sequence.

    Returns a list of ``(lam, beta, trace)``; each solve starts from the
    previous solution, and all share the problem's coupling matrix.
    """
    lambdas = [float(l) for l in lambdas]
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
