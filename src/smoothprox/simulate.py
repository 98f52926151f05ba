"""Seeded synthetic instance generators and the correlation-graph builder.

Two experiment designs are reproduced:

* sliding-window overlapping groups for univariate regression: groups of 100
  adjacent indices overlapping by 10, alternating-sign exponentially decaying
  true coefficients, Gaussian design and unit Gaussian noise;
* block-correlated multi-output regression: planted block supports with a
  constant signal, AR(1)-correlated Gaussian inputs (a stand-in for the
  linkage disequilibrium of genotype data), and a fusion graph obtained by
  thresholding the empirical output correlation matrix.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a
fixed seed reproduces instances bit-for-bit.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .losses import Dataset
from .multivariate import MultiProblem
from .penalties import GraphPenaltySpec, GroupPenaltySpec


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_field_types(spec) -> None:
    """Raise ValueError unless each ``int`` field of ``spec`` holds an integer
    and each ``float`` field a finite real number (a bool is neither).  The
    field types are the annotation strings, as this module postpones them."""
    checks = {"int": (_is_int, "an integer"), "float": (_is_real, "a finite real number")}
    for f in fields(spec):
        if f.type in checks:
            ok, kind = checks[f.type]
            value = getattr(spec, f.name)
            if not ok(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class OverlapSimSpec:
    num_groups: int = 10
    group_size: int = 100
    overlap: int = 10
    num_samples: int = 1000
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.num_groups < 1:
            raise ValueError("num_groups must be positive")
        if not (0 < self.overlap < self.group_size):
            raise ValueError("overlap must be between 1 and group_size - 1")

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
    """Returns ``(Dataset, GroupPenaltySpec, true_beta)``."""
    rng = np.random.default_rng(spec.seed)
    J = spec.num_features
    beta = overlap_true_beta(J)
    X = rng.standard_normal((spec.num_samples, J))
    y = X @ beta + rng.standard_normal(spec.num_samples)
    penalty = GroupPenaltySpec.with_unit_weights(overlap_groups(spec), spec.gamma)
    return Dataset(X, y), penalty, beta


@dataclass(frozen=True)
class GraphSimSpec:
    num_outputs: int = 10
    num_features: int = 30
    num_samples: int = 100
    block_sizes: tuple = (3, 3, 4)
    frac_within: float = 0.10  # inputs relevant to one output block
    frac_two: float = 0.05  # inputs relevant to two consecutive blocks
    frac_three: float = 0.01  # inputs relevant to three consecutive blocks
    signal: float = 0.8
    rho: float = 0.3
    input_corr: float = 0.9  # AR(1) correlation between adjacent inputs
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not all(_is_int(b) for b in self.block_sizes):
            raise ValueError(f"block_sizes must be integers, got {self.block_sizes!r}")
        if sum(self.block_sizes) != self.num_outputs:
            raise ValueError("block sizes must sum to the number of outputs")
        if not (0 < self.rho < 1):
            raise ValueError("rho must be in (0, 1)")
        if not (0 <= self.input_corr < 1):
            raise ValueError("input_corr must be in [0, 1)")
        for f in (self.frac_within, self.frac_two, self.frac_three):
            if not (0 <= f <= 1):
                raise ValueError("association fractions must be in [0, 1]")


def _pick(rng, J, fraction):
    count = max(1, int(round(fraction * J))) if fraction > 0 else 0
    return rng.choice(J, size=count, replace=False) if count else np.array([], dtype=int)


def gen_graph_instance(spec: GraphSimSpec):
    """Returns ``(MultiProblem, true_B, GraphPenaltySpec)``.

    Output blocks share planted input supports (plus weaker supports spanning
    two and three consecutive blocks), giving the outputs a block-structured
    correlation matrix; the fusion graph is the empirical correlation graph
    thresholded at ``rho``.
    """
    rng = np.random.default_rng(spec.seed)
    J, K, N = spec.num_features, spec.num_outputs, spec.num_samples
    B = np.zeros((J, K))
    bounds = np.concatenate(([0], np.cumsum(spec.block_sizes)))
    blocks = [np.arange(bounds[i], bounds[i + 1]) for i in range(len(spec.block_sizes))]
    for block in blocks:
        B[np.ix_(_pick(rng, J, spec.frac_within), block)] = spec.signal
    for i in range(len(blocks) - 1):
        span = np.concatenate(blocks[i : i + 2])
        B[np.ix_(_pick(rng, J, spec.frac_two), span)] = spec.signal
    for i in range(len(blocks) - 2):
        span = np.concatenate(blocks[i : i + 3])
        B[np.ix_(_pick(rng, J, spec.frac_three), span)] = spec.signal

    E = rng.standard_normal((N, J))
    X = np.empty((N, J))
    X[:, 0] = E[:, 0]
    ar = spec.input_corr
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
    if not (_is_real(rho) and 0 < rho <= 1):
        raise ValueError(f"rho must be a real number in (0, 1], got {rho!r}")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ValueError("Y must be 2-d with at least two samples")
    K = Y.shape[1]
    stds = Y.std(axis=0)
    constant = stds == 0.0
    if constant.any():
        warnings.warn(
            f"excluding {int(constant.sum())} constant output column(s) from "
            "the correlation graph",
            RuntimeWarning,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(Y, rowvar=False)
    if K == 1:
        return GraphPenaltySpec(num_nodes=1, edges=(), gamma=gamma)
    if not np.isfinite(corr[~constant][:, ~constant]).all():
        raise ValueError("degenerate correlation matrix")
    edges = []
    for m in range(K):
        if constant[m]:
            continue
        for l in range(m + 1, K):
            if constant[l]:
                continue
            r = float(corr[m, l])
            if abs(r) >= rho:
                edges.append((m, l, r))
    return GraphPenaltySpec(num_nodes=K, edges=tuple(edges), gamma=gamma)
