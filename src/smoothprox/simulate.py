"""Seeded synthetic instance generators and the correlation-graph builder.

Two experiment designs are reproduced:

* sliding-window overlapping groups for univariate regression: groups of 100
  adjacent indices overlapping by 10, alternating-sign exponentially decaying
  true coefficients, Gaussian design and unit Gaussian noise;
* block-correlated multi-output regression: planted block supports with a
  constant signal, AR(1)-correlated Gaussian inputs (a stand-in for the
  linkage disequilibrium of genotype data), and a fusion graph obtained by
  thresholding the empirical output correlation matrix.  Its spec sets only
  the sizes, ``rho``, ``gamma`` and the seed; the rest of the design is fixed.

A spec checks its number fields by ``penalties._check_fields`` when it is
built, the graph's ``block_sizes`` as a tiling of its outputs, and ``rho``
in (0, 1].

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a
fixed seed reproduces instances bit-for-bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .multivariate import MultiProblem
from .penalties import GraphPenaltySpec, GroupPenaltySpec, _check_fields, _finite, _tiling
from .solver import Problem


@dataclass(frozen=True)
class OverlapSimSpec:
    num_groups: int = 10
    group_size: int = 100
    overlap: int = 10
    num_samples: int = 1000
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, num_groups=1, num_samples=1, gamma=0, seed=0)
        if not (0 < self.overlap < self.group_size):
            raise ValueError(f"overlap must be between 1 and group_size - 1, got {self.overlap!r}")

    @property
    def num_features(self):
        step = self.group_size - self.overlap
        return step * self.num_groups + self.overlap


def overlap_groups(spec: OverlapSimSpec):
    """Sliding-window groups: {0..99}, {90..189}, ... (0-based)."""
    step = spec.group_size - spec.overlap
    return tuple(
        tuple(range(i * step, i * step + spec.group_size))
        for i in range(spec.num_groups)
    )


def overlap_true_beta(num_features: int) -> np.ndarray:
    """Alternating-sign decay: beta_j = (-1)^j * exp(-(j - 1)/100), 1-based j."""
    j = np.arange(1, num_features + 1)
    return (-1.0) ** j * np.exp(-(j - 1) / 100.0)


def gen_overlap_instance(spec: OverlapSimSpec):
    """Returns ``(Problem, GroupPenaltySpec, true_beta)``: a least-squares
    problem over the generated ``(X, y)`` with the group penalty."""
    rng = np.random.default_rng(spec.seed)
    J = spec.num_features
    beta = overlap_true_beta(J)
    X = rng.standard_normal((spec.num_samples, J))
    y = X @ beta + rng.standard_normal(spec.num_samples)
    penalty = GroupPenaltySpec.with_unit_weights(overlap_groups(spec), spec.gamma)
    return Problem.least_squares(X, y, penalty), penalty, beta


@dataclass(frozen=True)
class GraphSimSpec:
    num_outputs: int = 10
    num_features: int = 30
    num_samples: int = 100
    block_sizes: tuple = (3, 3, 4)
    rho: float = 0.3
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, num_outputs=2, num_features=1, num_samples=2, gamma=0, seed=0)
        _tiling(self.block_sizes, self.num_outputs, "block_sizes")
        if not (0 < self.rho <= 1):
            raise ValueError(f"rho must be in (0, 1], got {self.rho!r}")


# the graph design's fixed numbers (see gen_graph_instance)
_FRAC_ONE_BLOCK, _FRAC_TWO_BLOCKS, _FRAC_THREE_BLOCKS = 0.10, 0.05, 0.01
_SIGNAL = 0.8
_INPUT_CORR = 0.9


def _pick(rng, J, fraction):
    """``max(1, round(fraction * J))`` distinct inputs."""
    return rng.choice(J, size=max(1, int(round(fraction * J))), replace=False)


def gen_graph_instance(spec: GraphSimSpec):
    """Returns ``(MultiProblem, true_B, GraphPenaltySpec)``.

    Output blocks share planted input supports (10% of the inputs each, plus
    5% spanning two and 1% spanning three consecutive blocks, all with
    coefficient 0.8), giving the outputs a block-structured correlation
    matrix; adjacent inputs correlate at 0.9.  The fusion graph is the
    empirical correlation graph thresholded at ``rho``.
    """
    rng = np.random.default_rng(spec.seed)
    J, K, N = spec.num_features, spec.num_outputs, spec.num_samples
    B = np.zeros((J, K))
    blocks = np.split(np.arange(K), np.cumsum(spec.block_sizes)[:-1])
    for block in blocks:
        B[np.ix_(_pick(rng, J, _FRAC_ONE_BLOCK), block)] = _SIGNAL
    for i in range(len(blocks) - 1):
        span = np.concatenate(blocks[i : i + 2])
        B[np.ix_(_pick(rng, J, _FRAC_TWO_BLOCKS), span)] = _SIGNAL
    for i in range(len(blocks) - 2):
        span = np.concatenate(blocks[i : i + 3])
        B[np.ix_(_pick(rng, J, _FRAC_THREE_BLOCKS), span)] = _SIGNAL

    E = rng.standard_normal((N, J))
    X = np.empty((N, J))
    X[:, 0] = E[:, 0]
    ar = _INPUT_CORR
    for j in range(1, J):
        X[:, j] = ar * X[:, j - 1] + np.sqrt(1.0 - ar * ar) * E[:, j]
    Y = X @ B + rng.standard_normal((N, K))
    penalty = threshold_correlation_graph(Y, spec.rho, gamma=spec.gamma)
    return MultiProblem(X, Y, penalty), B, penalty


def threshold_correlation_graph(Y, rho, gamma=1.0) -> GraphPenaltySpec:
    """Edges (m, l, r_ml) for output pairs with empirical |corr| >= rho.

    Constant columns have undefined correlations and are excluded with a
    warning.  ``rho`` must be a real number in (0, 1].
    """
    rho = _finite(rho, "rho")
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho!r}")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ValueError("Y must be 2-d with at least two samples")
    K = Y.shape[1]
    constant = Y.std(axis=0) == 0.0
    if constant.any():
        warnings.warn(
            f"excluding {int(constant.sum())} constant output column(s) from "
            "the correlation graph",
            RuntimeWarning,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.atleast_2d(np.corrcoef(Y, rowvar=False))  # a 0-d array for K = 1
    if not np.isfinite(corr[~constant][:, ~constant]).all():
        raise ValueError("degenerate correlation matrix")
    m, l = np.triu_indices(K, 1)  # the pairs m < l, in row order
    r = corr[m, l]
    keep = ~(constant[m] | constant[l]) & (np.abs(r) >= rho)
    edges = zip(m[keep].tolist(), l[keep].tolist(), r[keep].tolist())
    return GraphPenaltySpec(num_nodes=K, edges=tuple(edges), gamma=gamma)
