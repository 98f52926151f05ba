"""Independent reference optimum with a certified duality gap.

The benchmark judges the program's answers against ``f*``, so ``f*`` must not
come from the code under test.  This module solves the same problems with its
own numpy code: FISTA with gradient-based adaptive restart (O'Donoghue &
Candes, 2015) on the smoothed objective, with the smoothing parameter lowered
by 10x each time progress stalls.  Every few iterations it builds a feasible
dual point by scaling the residual and ``alpha*`` (Ndiaye et al., 2017, "Gap
Safe screening rules"), so the returned ``upper - lower`` bounds the distance
of ``upper`` from the true optimum.

The structured penalty is ``max_{alpha in Q} <alpha, C b>`` with ``C`` sparse
and ``Q`` a product of unit l2 balls (row blocks) or the unit l-inf box.  The
iterate ``b`` is a vector of length J, or a K x J matrix (the transpose of the
multi-output coefficient matrix), so ``C @ b`` covers both cases.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp


@dataclass
class Structure:
    """Sparse coupling ``C`` and the dual set ``Q`` (``starts`` None means box)."""

    C: sp.csr_matrix
    starts: np.ndarray | None

    def __post_init__(self):
        self.CT = self.C.T.tocsr()
        if self.starts is not None:
            self.sizes = np.diff(np.append(self.starts, self.C.shape[0]))
        A = abs(self.C)
        # ||C||^2 <= ||C||_1 ||C||_inf (Hoelder), a cheap safe upper bound
        self.norm2_bound = float(A.sum(axis=0).max() * A.sum(axis=1).max())

    def value(self, z) -> float:
        if self.starts is None:
            return float(np.abs(z).sum())
        return float(np.sqrt(np.add.reduceat(z * z, self.starts, axis=0)).sum())

    def project(self, z):
        if self.starts is None:
            return np.clip(z, -1.0, 1.0)
        norms = np.sqrt(np.add.reduceat(z * z, self.starts, axis=0))
        scale = np.repeat(1.0 / np.maximum(1.0, norms), self.sizes, axis=0)
        return z * scale


def group_structure(groups, weights, gamma, num_cols) -> Structure:
    """Rows enumerate (group, member) pairs; row (g, i) holds gamma*w_g at i."""
    cols = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    vals = np.concatenate([np.full(len(g), gamma * w) for g, w in zip(groups, weights)])
    C = sp.csr_matrix((vals, (np.arange(cols.size), cols)), shape=(cols.size, num_cols))
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    return Structure(C, starts)


def graph_structure(edges, gamma, num_cols) -> Structure:
    """Row e = (m, l, r) holds gamma*|r| at m and -gamma*sign(r)*|r| at l."""
    e = np.asarray(edges, dtype=float).reshape(-1, 3)
    m, l, r = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
    rows = np.repeat(np.arange(len(e)), 2)
    cols = np.column_stack([m, l]).ravel()
    vals = np.column_stack([gamma * np.abs(r), -gamma * r]).ravel()
    C = sp.csr_matrix((vals, (rows, cols)), shape=(len(e), num_cols))
    return Structure(C, None)


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class SquaredObjective:
    """0.5 ||Y - X B||^2 in Gram form; ``b`` is B (vector) or B^T (matrix)."""

    def __init__(self, X, Y, structure: Structure, lam):
        self.G = X.T @ X
        XtY = X.T @ Y
        self.Xty = XtY.T if XtY.ndim == 2 else XtY
        self.yty = float(np.sum(Y * Y))
        self.s = structure
        self.lam = float(lam)
        self.L_loss = 1.01 * float(scipy.linalg.eigvalsh(self.G, subset_by_index=[len(self.G) - 1] * 2)[0])
        self.shape = self.Xty.shape

    def with_lam(self, lam):
        """The same loss and structure at another lambda (shares the Gram)."""
        other = copy.copy(self)
        other.lam = float(lam)
        return other

    def loss_and_grad(self, b):
        bG = b @ self.G
        value = 0.5 * float(np.sum(b * bG)) - float(np.sum(b * self.Xty)) + 0.5 * self.yty
        return value, bG - self.Xty

    def dual(self, b, grad, alpha):
        """Dual value at theta = s * residual, alpha scaled by the same s."""
        viol = float(np.abs(-grad - self.s.CT @ alpha).max())
        s = 1.0 if viol <= self.lam else self.lam / viol
        bXty = float(np.sum(b * self.Xty))
        ry = self.yty - bXty
        rr = self.yty - 2.0 * bXty + float(np.sum(b * (grad + self.Xty)))
        return s * ry - 0.5 * s * s * rr


@dataclass
class Reference:
    upper: float  # exact objective at the best iterate: this is f*
    lower: float  # certified dual lower bound on the optimum
    iterations: int
    mu_final: float
    last_stage_change: float  # relative drop of `upper` in the last mu stage
    beta: np.ndarray

    @property
    def certified_gap(self):
        return (self.upper - self.lower) / abs(self.upper)


def exact_objective(obj, b) -> float:
    """The exact (unsmoothed) objective: loss + Omega + lam * ||b||_1."""
    return obj.loss_and_grad(b)[0] + obj.s.value(obj.s.C @ b) + obj.lam * float(np.abs(b).sum())


def solve_reference(obj, b0=None, tol=1e-5, mu0=1e-2, check_every=20, max_iter=100_000) -> Reference:
    """Minimise ``obj``; stop when the certified relative gap is <= tol.

    On graph penalties with many fused edges the dual point built from
    ``alpha*`` stays loose, so the solve also stops once lowering ``mu`` by 10x
    moves the best objective by less than ``tol / 10`` (relative).
    """
    x = np.zeros(obj.shape) if b0 is None else np.array(b0, dtype=float)
    best_upper, best_lower, best_x = np.inf, -np.inf, x
    mu, its, stage_start = mu0, 0, np.inf
    while its < max_iter and mu >= 1e-13:
        L = obj.L_loss + obj.s.norm2_bound / mu
        y, t, history = x.copy(), 1.0, []
        while its < max_iter:
            _, g = obj.loss_and_grad(y)
            g = g + obj.s.CT @ obj.s.project((obj.s.C @ y) / mu)
            x_next = _soft(y - g / L, obj.lam / L)
            its += 1
            if np.sum((y - x_next) * (x_next - x)) > 0:  # restart momentum
                y, t = x_next.copy(), 1.0
            else:
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                y = x_next + (t - 1.0) / t_next * (x_next - x)
                t = t_next
            x = x_next
            if its % check_every:
                continue
            loss, grad = obj.loss_and_grad(x)
            z = obj.s.C @ x
            upper = loss + obj.s.value(z) + obj.lam * float(np.abs(x).sum())
            best_lower = max(best_lower, obj.dual(x, grad, obj.s.project(z / mu)))
            if upper < best_upper:
                best_upper, best_x = upper, x.copy()
            if best_upper - best_lower <= tol * abs(best_upper):
                return Reference(best_upper, best_lower, its, mu, np.nan, best_x)
            # the stage ends once 5 checks gain less than tol / 10 in total
            history.append(best_upper)
            if len(history) > 5 and history[-6] - best_upper < 0.1 * tol * abs(best_upper):
                break
        change = (stage_start - best_upper) / abs(best_upper)
        if change <= 0.1 * tol:
            return Reference(best_upper, best_lower, its, mu, change, best_x)
        stage_start = best_upper
        x = best_x
        mu /= 10.0
    raise RuntimeError(
        f"reference solve did not settle after {its} iterations "
        f"(certified gap {(best_upper - best_lower) / abs(best_upper):.2e})"
    )
