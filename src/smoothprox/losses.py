"""Smooth convex losses: value, gradient and gradient-Lipschitz constants.

Squared-error and logistic losses over a fixed ``(X, y)``.  The squared loss
precomputes the Gram matrix X^T X (and X^T y) when its shape makes the Gram
the cheaper product, so the per-iteration cost of a solver is independent of
the sample size; otherwise gradients stream through X.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dstebz
from scipy.special import expit

from .penalties import StructureError

#: ``SquaredLoss`` precomputes X^T X for an N x J design iff J is at most
#: PRECOMPUTE_MAX_FEATURES and at most PRECOMPUTE_MAX_FEATURES_PER_SAMPLE * N.
#: A Gram product reads J^2 numbers, a pass through X and back 2 N J, so past
#: J = 2N streaming reads less.  Per product, gradient and value at N = 100,
#: 400 and 1000 (README, "Gram or streaming"), the Gram was 1.03x to 3.5x
#: faster up to J = 2N, and 1.1x to 1.8x slower at J = 4N.
PRECOMPUTE_MAX_FEATURES = 4096
PRECOMPUTE_MAX_FEATURES_PER_SAMPLE = 2


def _checked_arrays(X, y):
    """``X`` and ``y`` as float arrays, X N x J and y (N,) or N x K with
    N, J, K >= 1; a StructureError naming the shape otherwise."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise StructureError(f"X has shape {X.shape}, expected N x J with N, J >= 1")
    if y.ndim not in (1, 2) or y.shape[0] != X.shape[0] or y.size == 0:
        raise StructureError(
            f"y has shape {y.shape}, expected ({X.shape[0]},) or ({X.shape[0]}, K), K >= 1"
        )
    return X, y


#: ``power_iteration`` makes at least this many products (or J) before it
#: tests for convergence.
LANCZOS_MIN_PRODUCTS = 30


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int
    converged: bool


def power_iteration(matvec, J, tol, max_iter) -> SpectralEstimate:
    """Largest eigenvalue of a symmetric positive semi-definite J x J operator
    ``v -> matvec(v)``, flagged as approximate unless its relative change
    falls below ``tol`` within ``max_iter`` products.

    The estimate is the top Ritz value over the span of the power iterates
    ``v, Av, ..., A^(k-1) v``: the top eigenvalue of the Lanczos tridiagonal
    ``T_k`` (the Lanczos method).  It rises with k and stays below the
    largest eigenvalue but for rounding (Paige, 1980), so it is an estimate
    from below, not a bound.  The three-term recurrence keeps two vectors, so
    memory is O(J) whatever the number of products.

    The change is not tested before ``min(J, LANCZOS_MIN_PRODUCTS)`` products.
    A start with a small component along the top eigenvector leaves the
    estimate resting on the second eigenvalue for several products, moving by
    less than ``tol``.  Without this minimum, random PSD ``M^T M`` stopped more
    than 1e-6 short in 7 of 20,000 draws with J <= 30 and in 15 of 4,000 with
    J from 31 to 120, once by 4%; with it, in none of 15,000 draws with
    J <= 80.  With a random start, the chance of a relative error above eps
    after k products is at most ``1.648 sqrt(J) exp(-sqrt(eps) (2k - 1))``
    (Kuczynski & Wozniakowski, 1992).

    Starts: a seeded Gaussian, then all-ones, then alternating signs.  When the
    recurrence breaks down (the Krylov space is invariant, as when the start
    is in the null space) it goes on from the next start as a decoupled block
    of ``T_k``; once all three are used up the estimate is exact.  A product
    that is not finite ends the run, unconverged.
    """
    starts = [
        np.random.default_rng(0).standard_normal(J),
        np.ones(J),
        (-1.0) ** np.arange(J),
    ]
    diag, offdiag = np.empty(max_iter), np.empty(max_iter)  # of T_k
    v = starts.pop(0)
    v /= np.linalg.norm(v)
    v_prev, b = v, 0.0
    theta = last = np.nan
    min_products = min(J, LANCZOS_MIN_PRODUCTS)
    for k in range(1, max_iter + 1):
        w = matvec(v)
        a = float(np.vdot(v, w))
        if np.isfinite(a):
            w = w - a * v - b * v_prev
            b = float(np.linalg.norm(w))
        if not (np.isfinite(a) and np.isfinite(b)):
            return SpectralEstimate(float(theta), k, False)
        diag[k - 1] = a
        # the top eigenvalue of T_k by bisection (dstebz), range by index
        theta = a if k == 1 else dstebz(diag[:k], offdiag[:k - 1], 2, 0.0, 0.0, k, k, 0.0, "E")[1][0]
        if k >= min_products and abs(theta - last) < tol * abs(theta):
            return SpectralEstimate(float(theta), k, True)
        last = theta
        offdiag[k - 1] = b
        if b == 0.0:
            if not starts:
                return SpectralEstimate(float(theta), k, True)
            w = starts.pop(0)
            w /= np.linalg.norm(w)
        else:
            w /= b
        v_prev, v = v, w
    return SpectralEstimate(float(theta), max_iter, False)


def _gram_eigenvalue(matvec, J, frobenius_sq, tol=1e-6, max_iter=1000) -> float:
    """Largest eigenvalue of X^T X (``matvec(v) = X^T X v``), or, with a
    warning if it has not converged, the always valid bound
    ``frobenius_sq() = ||X||_F^2``."""
    est = power_iteration(matvec, J, tol, max_iter)
    if est.converged:
        return est.value
    warnings.warn(
        "Lanczos iteration for the gradient Lipschitz constant did not "
        "converge; using the Frobenius upper bound",
        RuntimeWarning,
    )
    return float(frobenius_sq())


def gram_lipschitz(X, tol=1e-6, max_iter=1000) -> float:
    """Largest eigenvalue of X^T X by ``power_iteration`` through X (two
    passes per product; 30-41 products on the paper's overlap design at
    seeds 0-7), or the squared Frobenius norm if it has not converged."""
    X = np.asarray(X, dtype=float)
    return _gram_eigenvalue(
        lambda v: X.T @ (X @ v), X.shape[1], lambda: np.einsum("ij,ij->", X, X), tol, max_iter
    )


def _inner(a, b) -> float:
    """``sum(a * b)`` over two arrays of one shape.  ``np.vdot`` reads both
    in C order, so it copies F-ordered J x K arrays; their transposes are
    C-ordered and read in place."""
    return float(np.vdot(a.T, b.T))


class _ProductLoss:
    """A loss over ``(X, y)`` whose value and gradient are read off one linear
    product of the iterate, ``product(beta)``; a solver can then form the
    product at a linear combination of iterates from theirs, without another
    pass.  Making one checks the shapes and rejects NaN and inf in X and y."""

    def __init__(self, X, y):
        self.X, self.y = X, y = _checked_arrays(X, y)
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite entries in dataset")
        self._lipschitz = None


class SquaredLoss(_ProductLoss):
    """g(beta) = 0.5 * ||y - X beta||^2 with gradient X^T (X beta - y).

    The product is ``X^T X beta`` with the Gram precompute, ``X beta``
    without; ``precompute`` says which, and follows from the shape of X (see
    ``PRECOMPUTE_MAX_FEATURES``).  The response may be an N x K matrix, with
    J x K iterates; the J x K arrays (Gram products, gradients, ``X^T Y``)
    are Fortran-ordered.
    """

    def __init__(self, X, y):
        super().__init__(X, y)
        X, y = self.X, self.y
        N, J = X.shape
        self.precompute = J <= min(PRECOMPUTE_MAX_FEATURES, PRECOMPUTE_MAX_FEATURES_PER_SAMPLE * N)
        if self.precompute:
            # numpy forms X^T X exactly symmetric, so this is the same matrix,
            # F-ordered: dsymv copies a C-ordered one before reading it
            self._XtX = (X.T @ X).T
            self._Xty = np.asfortranarray(X.T @ y)
            self._yty = float(np.vdot(y, y))

    def product(self, beta) -> np.ndarray:
        if not self.precompute:
            return self.X @ beta
        if beta.ndim == 1:
            return self._gram_vector_product(beta)
        # G B as (B^T G)^T, G symmetric: the same bits, Fortran-ordered, and
        # faster than numpy's C-ordered G @ B
        return (beta.T @ self._XtX).T

    def _gram_vector_product(self, v) -> np.ndarray:
        """``X^T X v`` for a 1-d v, read off one triangle of the Gram."""
        return dsymv(1.0, self._XtX, v)

    def value_from(self, beta, p) -> float:
        """Loss value at beta, given ``p = product(beta)``."""
        if self.precompute:
            return 0.5 * _inner(beta, p) - _inner(beta, self._Xty) + 0.5 * self._yty
        r = p - self.y
        return 0.5 * _inner(r, r)

    def gradient_from(self, p) -> np.ndarray:
        """Gradient at the point whose product is ``p``."""
        # X^T R as (R^T X)^T: the same bits, and a J x K result is F-ordered
        return p - self._Xty if self.precompute else ((p - self.y).T @ self.X).T

    def lipschitz(self) -> float:
        if self._lipschitz is None and self.precompute:
            self._lipschitz = _gram_eigenvalue(
                self._gram_vector_product, self.X.shape[1], lambda: np.trace(self._XtX)
            )
        elif self._lipschitz is None:
            self._lipschitz = gram_lipschitz(self.X)
        return self._lipschitz


class LogisticLoss(_ProductLoss):
    """g(beta) = sum_i log(1 + exp(-y_i x_i^T beta)) for labels in {-1, +1}.

    Values and gradients use logaddexp and expit, safe from overflow; the
    gradient-Lipschitz bound is lambda_max(X^T X) / 4.
    """

    def __init__(self, X, y):
        super().__init__(X, y)
        if not np.all(np.isin(np.unique(self.y), (-1.0, 1.0))):
            raise ValueError("logistic labels must be in {-1, +1}")

    def product(self, beta) -> np.ndarray:
        return self.X @ beta

    def value_from(self, beta, p) -> float:
        """Loss value at beta, given ``p = product(beta) = X beta``."""
        return float(np.sum(np.logaddexp(0.0, -(self.y * p))))

    def gradient_from(self, p) -> np.ndarray:
        """Gradient at the point whose product is ``p``."""
        y = self.y
        # -(X^T v) formed as -(v^T X)^T, F-ordered for an N x K v; not
        # -X.T @ v, which would negate a copy of all of X
        return -((y * expit(-(y * p))).T @ self.X).T

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = 0.25 * gram_lipschitz(self.X)
        return self._lipschitz

