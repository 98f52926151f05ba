"""Smooth convex losses: value, gradient and gradient-Lipschitz constants.

Squared-error and logistic losses over a fixed dataset.  When the number of
features is moderate the Gram matrix X^T X (and X^T y) is precomputed so the
per-iteration cost of a solver is independent of the sample size; otherwise
gradients stream through X.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.special import expit

#: Precompute X^T X automatically up to this many features.
PRECOMPUTE_MAX_FEATURES = 4096


@dataclass(frozen=True)
class Dataset:
    """Design matrix and response. Logistic labels must be in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"y has shape {y.shape}, expected ({X.shape[0]},)"
            )
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite entries in dataset")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def num_samples(self):
        return self.X.shape[0]

    @property
    def num_features(self):
        return self.X.shape[1]


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int
    converged: bool


def power_iteration(matvec, J, tol, max_iter) -> SpectralEstimate:
    """Largest eigenvalue of a symmetric positive semi-definite J x J operator
    ``v -> matvec(v)``, flagged as approximate unless its relative change
    falls to ``tol`` within ``max_iter`` steps.

    While the iterate vanishes it moves on to the next deterministic start:
    all-ones (in the null space of a difference operator, or of X when
    X @ 1 = 0), alternating signs, then a seeded Gaussian.
    """
    starts = [
        np.ones(J) / np.sqrt(J),
        (-1.0) ** np.arange(J) / np.sqrt(J),
        np.random.default_rng(0).standard_normal(J),
    ]
    v = starts.pop(0)
    last = np.inf
    for it in range(1, max_iter + 1):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            if not starts:
                return SpectralEstimate(0.0, it, True)
            v = starts.pop(0)
            continue
        v = w / norm
        if abs(norm - last) <= tol * max(1.0, norm):
            return SpectralEstimate(float(norm), it, True)
        last = norm
    return SpectralEstimate(float(last), max_iter, False)


def _gram_eigenvalue(matvec, X, tol=1e-6, max_iter=1000) -> float:
    """Largest eigenvalue of X^T X (``matvec(v) = X^T X v``), or the always
    valid squared Frobenius norm bound, with a warning, if not converged."""
    est = power_iteration(matvec, X.shape[1], tol, max_iter)
    if est.converged:
        return est.value
    warnings.warn(
        "power iteration for the gradient Lipschitz constant did not "
        "converge; using the Frobenius upper bound",
        RuntimeWarning,
    )
    return float(np.sum(X * X))


def gram_lipschitz(X, tol=1e-6, max_iter=1000) -> float:
    """Largest eigenvalue of X^T X via power iteration through X (two passes
    per step), or the squared Frobenius norm if it has not converged."""
    X = np.asarray(X, dtype=float)
    return _gram_eigenvalue(lambda v: X.T @ (X @ v), X, tol, max_iter)


class _ProductLoss:
    """A loss whose value and gradient are read off one linear product of the
    iterate, ``product(beta)``; a solver can then form the product at a linear
    combination of iterates from theirs, without another pass."""

    def value(self, beta) -> float:
        beta = np.asarray(beta, dtype=float)
        return self.value_from(beta, self.product(beta))

    def gradient(self, beta) -> np.ndarray:
        return self.gradient_from(self.product(np.asarray(beta, dtype=float)))


class SquaredLoss(_ProductLoss):
    """g(beta) = 0.5 * ||y - X beta||^2 with gradient X^T (X beta - y).

    The product is ``X^T X beta`` with the Gram precompute, ``X beta``
    without.  The response may be an N x K matrix, with J x K iterates.
    """

    def __init__(self, data: Dataset, precompute=None):
        self.data = data
        self._setup(data.X, data.y, precompute)

    def _setup(self, X, y, precompute):
        self.X, self.y = X, y
        if precompute is None:
            precompute = X.shape[1] <= PRECOMPUTE_MAX_FEATURES
        self.precompute = bool(precompute)
        if self.precompute:
            # numpy forms X^T X exactly symmetric, so this is the same matrix,
            # F-ordered: dsymv copies a C-ordered one before reading it
            self._XtX = (X.T @ X).T
            self._Xty = X.T @ y
            self._yty = float(np.vdot(y, y))
        self._lipschitz = None

    @property
    def num_features(self):
        return self.X.shape[1]

    def product(self, beta) -> np.ndarray:
        if not self.precompute:
            return self.X @ beta
        return self._gram_vector_product(beta) if np.ndim(beta) == 1 else self._XtX @ beta

    def _gram_vector_product(self, v) -> np.ndarray:
        """``X^T X v`` for a 1-d v, read off one triangle of the Gram."""
        return dsymv(1.0, self._XtX, v)

    def value_from(self, beta, p) -> float:
        """Loss value at beta, given ``p = product(beta)``."""
        if self.precompute:
            return float(0.5 * np.vdot(beta, p) - np.vdot(beta, self._Xty) + 0.5 * self._yty)
        r = p - self.y
        return float(0.5 * np.vdot(r, r))

    def gradient_from(self, p) -> np.ndarray:
        """Gradient at the point whose product is ``p``."""
        return p - self._Xty if self.precompute else self.X.T @ (p - self.y)

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = (
                _gram_eigenvalue(self._gram_vector_product, self.X) if self.precompute
                else gram_lipschitz(self.X)
            )
        return self._lipschitz


class LogisticLoss(_ProductLoss):
    """g(beta) = sum_i log(1 + exp(-y_i x_i^T beta)) for labels in {-1, +1}.

    Values and gradients use logaddexp and expit, safe from overflow; the
    gradient-Lipschitz bound is lambda_max(X^T X) / 4.
    """

    def __init__(self, data: Dataset, precompute=None):
        labels = np.unique(data.y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be in {-1, +1}")
        self.data = data
        self._lipschitz = None

    @property
    def num_features(self):
        return self.data.num_features

    def product(self, beta) -> np.ndarray:
        return self.data.X @ beta

    def value_from(self, beta, p) -> float:
        """Loss value at beta, given ``p = product(beta) = X beta``."""
        return float(np.sum(np.logaddexp(0.0, -(self.data.y * p))))

    def gradient_from(self, p) -> np.ndarray:
        """Gradient at the point whose product is ``p``."""
        y = self.data.y
        # -(X^T v), not -X.T @ v, which would negate a copy of all of X
        return -(self.data.X.T @ (y * expit(-(y * p))))

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = 0.25 * gram_lipschitz(self.data.X)
        return self._lipschitz


def squared_loss_lipschitz(data: Dataset, precompute=None) -> float:
    return SquaredLoss(data, precompute=precompute).lipschitz()


def logistic_loss_lipschitz(data: Dataset) -> float:
    return LogisticLoss(data).lipschitz()
