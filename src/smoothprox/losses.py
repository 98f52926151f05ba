"""Smooth convex losses: value, gradient and gradient-Lipschitz constants.

Squared-error and logistic losses over a fixed ``(X, y)``.  The squared loss
precomputes the Gram matrix X^T X (and X^T y) when its shape makes the Gram
the cheaper product, so the per-iteration cost of a solver is independent of
the sample size; otherwise gradients stream through X.  From
``GRAM_FLOAT32_MIN_FEATURES`` features a vector response's Gram is stored in
float32, one triangle of it.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsymv, ssymv
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

#: A vector response's Gram with at least this many features is stored in
#: float32 (its lower triangle), and read by ``ssymv``, unless its diagonal
#: leaves float32's normal range.  A vector product, with its casts, took
#: 16.6 against 25.2 us for ``dsymv`` at J = 512, 89.5 against 158.9 us at
#: J = 910, but 9.7 against 10.6 us at J = 384 (README, "Gram or
#: streaming").  The solvers update the product by the step
#: (``SquaredLoss.next_product``), so its rounding scales with the step.
GRAM_FLOAT32_MIN_FEATURES = 512

#: The float32 Gram is built this many columns at a time, each block in
#: float64 and then rounded, so set-up holds no float64 J x J array.
GRAM_BLOCK_COLUMNS = 128


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

    The start is a seeded Gaussian, which has a component along the top
    eigenvector with probability 1, so when the recurrence breaks down (the
    Krylov space is invariant) the estimate is exact and is returned at once.
    A product that is not finite ends the run, unconverged.
    """
    diag, offdiag = np.empty(max_iter), np.empty(max_iter)  # of T_k
    v = np.random.default_rng(0).standard_normal(J)
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
        if b == 0.0 or (k >= min_products and abs(theta - last) < tol * abs(theta)):
            return SpectralEstimate(float(theta), k, True)
        last = theta
        offdiag[k - 1] = b
        w /= b
        v_prev, v = v, w
    return SpectralEstimate(float(theta), max_iter, False)


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

    #: the dtype of the stored Gram, "float64" or "float32"; None when the
    #: products stream through X
    gram = None

    #: the gradient's Lipschitz constant over lambda_max(X^T X)
    curvature = 1.0

    #: how ``lipschitz()`` found lambda_max(X^T X): "lanczos" or, by the
    #: fallback, "frobenius"; None before its first call
    lipschitz_source = _lipschitz = None

    def __init__(self, X, y):
        self.X, self.y = X, y = _checked_arrays(X, y)
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite entries in dataset")

    def product(self, beta) -> np.ndarray:
        return self.X @ beta

    def next_product(self, p, beta, beta_prev) -> np.ndarray:
        """``product(beta)``, given ``p = product(beta_prev)``."""
        return self.product(beta)

    def value(self, beta) -> float:
        """Loss value at beta, in float64 through X."""
        return self.value_from(beta, self.X @ beta)

    def lipschitz(self) -> float:
        """``curvature`` times the largest eigenvalue of X^T X, computed once
        by ``power_iteration`` on the stored Gram or else through X (30-41
        products on the paper's overlap design at seeds 0-7), or, with a
        warning if that has not converged, by the bound trace(X^T X).  A
        product that overflows from the start gives inf, with no warning, for
        ``solve`` to reject: the trace bound would overflow too."""
        if self._lipschitz is None:
            X = self.X
            matvec = (lambda v: X.T @ (X @ v)) if self.gram is None else self._gram_vector_product
            with np.errstate(over="ignore", invalid="ignore"):  # ends the iteration unconverged
                est = power_iteration(matvec, X.shape[1], 1e-6, 1000)
            value, self.lipschitz_source = est.value, "lanczos"
            if not np.isfinite(value):
                value = np.inf
            elif not est.converged:
                warnings.warn("Lanczos iteration for the gradient Lipschitz constant did not "
                              "converge; using the Frobenius upper bound", RuntimeWarning)
                value = float(np.einsum("ij,ij->", X, X) if self.gram is None
                              else np.trace(self._XtX, dtype=float))
                self.lipschitz_source = "frobenius"
            self._lipschitz = self.curvature * value
        return self._lipschitz


def _float32_lower_gram(X):
    """The lower triangle of X^T X in a Fortran-ordered float32 J x J array,
    formed ``GRAM_BLOCK_COLUMNS`` columns at a time in float64 and rounded.
    Above the diagonal blocks it holds zeros, which ``ssymv`` does not read.

    None when a diagonal entry is inf or subnormal in float32: the diagonal
    bounds every entry (Cauchy-Schwarz), so the rest is then in range too."""
    J = X.shape[1]
    gram = np.zeros((J, J), dtype=np.float32, order="F")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is caught below
        for j0 in range(0, J, GRAM_BLOCK_COLUMNS):
            j1 = min(j0 + GRAM_BLOCK_COLUMNS, J)
            # X[:, j0:]^T X[:, j0:j1] formed as a transpose, so it is F-ordered
            # like the buffer: 1.2x faster to form and round than a C-ordered one
            gram[j0:, j0:j1] = (X[:, j0:j1].T @ X[:, j0:]).T
    diag = np.diagonal(gram)
    if np.isfinite(diag).all() and not ((diag > 0) & (diag < np.finfo(np.float32).tiny)).any():
        return gram
    return None


class SquaredLoss(_ProductLoss):
    """g(beta) = 0.5 * ||y - X beta||^2 with gradient X^T (X beta - y).

    The product is ``X^T X beta`` with the Gram precompute, ``X beta``
    without; ``gram`` says which: the Gram's dtype, or None.  Both
    follow from the shapes of X and y (see ``PRECOMPUTE_MAX_FEATURES`` and
    ``GRAM_FLOAT32_MIN_FEATURES``).  The response may be an N x K matrix,
    with J x K iterates; the J x K arrays (Gram products, gradients,
    ``X^T Y``) are Fortran-ordered.
    """

    def __init__(self, X, y):
        super().__init__(X, y)
        X, y = self.X, self.y
        N, J = X.shape
        if J > min(PRECOMPUTE_MAX_FEATURES, PRECOMPUTE_MAX_FEATURES_PER_SAMPLE * N):
            return
        gram = _float32_lower_gram(X) if y.ndim == 1 and J >= GRAM_FLOAT32_MIN_FEATURES else None
        # an X whose X^T X overflows builds it with no warning: ``lipschitz()``
        # then gives inf, which ``solve`` rejects before the first iteration
        with np.errstate(over="ignore", invalid="ignore"):
            if gram is not None:
                self.gram, self._XtX = "float32", gram
            else:
                # numpy forms X^T X exactly symmetric, so this is the same matrix,
                # F-ordered: dsymv copies a C-ordered one before reading it
                self.gram, self._XtX = "float64", (X.T @ X).T
            self._Xty = np.asfortranarray(X.T @ y)
            self._yty = float(np.vdot(y, y))

    def product(self, beta) -> np.ndarray:
        if self.gram is None:
            return super().product(beta)
        if self.gram == "float32":
            # through X in float64: the float32 Gram would round all of beta,
            # an error that ``next_product`` would carry through a solve
            return self.X.T @ (self.X @ beta)
        if beta.ndim == 1:
            return self._gram_vector_product(beta)
        # G B as (B^T G)^T, G symmetric: the same bits, Fortran-ordered, and
        # faster than numpy's C-ordered G @ B
        return (beta.T @ self._XtX).T

    def _gram_vector_product(self, v) -> np.ndarray:
        """``X^T X v`` for a 1-d v, read off one triangle of the Gram.  On a
        float32 Gram, v is rounded to float32 and the product returned in
        float64."""
        if self.gram == "float32":
            return ssymv(1.0, self._XtX, v, lower=1).astype(float)
        return dsymv(1.0, self._XtX, v)

    def next_product(self, p, beta, beta_prev) -> np.ndarray:
        """``product(beta)``, given ``p = product(beta_prev)``.  On a float32
        Gram it is ``p + G (beta - beta_prev)``, so the rounding error scales
        with the step, not with beta: a float32 product taken afresh would
        put about 1e-5 relative noise into every recorded objective, above
        the change the stopping rule looks for."""
        if self.gram != "float32":
            return self.product(beta)
        out = self._gram_vector_product(beta - beta_prev)
        out += p
        return out

    def value(self, beta) -> float:
        """Loss value at beta, in float64 through X whatever the Gram."""
        r = self.X @ beta - self.y
        return 0.5 * _inner(r, r)

    def value_from(self, beta, p) -> float:
        """Loss value at beta, given ``p = product(beta)``."""
        if self.gram is not None:
            return 0.5 * _inner(beta, p) - _inner(beta, self._Xty) + 0.5 * self._yty
        r = p - self.y
        return 0.5 * _inner(r, r)

    def gradient_from(self, p) -> np.ndarray:
        """Gradient at the point whose product is ``p``."""
        # X^T R as (R^T X)^T: the same bits, and a J x K result is F-ordered
        return p - self._Xty if self.gram is not None else ((p - self.y).T @ self.X).T


class LogisticLoss(_ProductLoss):
    """g(beta) = sum_i log(1 + exp(-y_i x_i^T beta)) for labels in {-1, +1}.

    Values and gradients use logaddexp and expit, safe from overflow; the
    gradient-Lipschitz bound is lambda_max(X^T X) / 4.
    """

    curvature = 0.25

    def __init__(self, X, y):
        super().__init__(X, y)
        if not np.all(np.isin(np.unique(self.y), (-1.0, 1.0))):
            raise ValueError("logistic labels must be in {-1, +1}")

    def value_from(self, beta, p) -> float:
        """Loss value at beta, given ``p = product(beta) = X beta``."""
        return float(np.sum(np.logaddexp(0.0, -(self.y * p))))

    def gradient_from(self, p) -> np.ndarray:
        """Gradient at the point whose product is ``p``."""
        y = self.y
        # -(X^T v) formed as -(v^T X)^T, F-ordered for an N x K v; not
        # -X.T @ v, which would negate a copy of all of X
        return -((y * expit(-(y * p))).T @ self.X).T

