"""Structured sparsity penalties and their sparse coupling operators.

Two penalty families are supported:

* overlapping group lasso: ``gamma * sum_g w_g * ||beta_g||_2`` over a
  collection of (possibly overlapping) index groups, and
* graph-guided fusion: ``gamma * sum_{(m,l)} tau(r_ml) * |beta_m -
  sign(r_ml) * beta_l|`` over weighted, signed edges.

Both can be written as ``max_{alpha in Q} alpha^T C beta`` for a sparse
coupling matrix ``C``.  Each spec builds its own ``C`` and evaluates its own
exact (non-smoothed) value; ``CouplingMatrix`` reads the constants the
smoothing needs off ``C`` (``D`` and a bound on ``||C||``).  All indices are
0-based in memory; the JSON file format uses 1-based indices.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class StructureError(ValueError):
    """Raised when a penalty specification or dimension is invalid."""


def _index(value, what) -> int:
    """``value`` as an int: an integer, or a float with no fractional part.
    A bool, a fractional or non-finite number or a non-number (a string) is a
    StructureError, not truncated or parsed.
    The spec constructors call it only when ``type(value) is not int``, which
    keeps them as fast as the ``int(value)`` they replace."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, (float, np.floating)) and float(value).is_integer():
                return int(value)
    raise StructureError(f"{what} must be an integer, got {value!r}")


def _coefficients(spec, beta) -> np.ndarray:
    """``beta`` as a float (J,) or (J, K) array whose last axis fits ``spec``."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim not in (1, 2):
        raise StructureError(f"expected a 1-d or 2-d coefficient array, got shape {beta.shape}")
    spec.validate_against(beta.shape[-1])
    return beta


@dataclass(frozen=True)
class GroupPenaltySpec:
    """Overlapping group lasso penalty specification.

    ``groups`` holds 0-based index tuples (overlaps allowed, singletons
    allowed -- a singleton group degrades to a weighted l1 term).  ``weights``
    are per-group positive scalars; ``gamma`` is the overall penalty weight.
    """

    groups: tuple
    weights: tuple
    gamma: float

    def __post_init__(self):
        groups = tuple(
            tuple(i if type(i) is int else _index(i, "group index") for i in g) for g in self.groups
        )
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "gamma", float(self.gamma))
        if len(groups) == 0:
            raise StructureError("at least one group is required")
        if len(weights) != len(groups):
            raise StructureError("weights and groups must have the same length")
        for g in groups:
            if len(g) == 0:
                raise StructureError("empty group")
            if any(i < 0 for i in g):
                raise StructureError("negative group index")
        if not all(0.0 < w < math.inf for w in weights):
            raise StructureError("group weights must be positive and finite")
        if not 0.0 <= self.gamma < math.inf:
            raise StructureError("gamma must be non-negative and finite")

    @classmethod
    def with_unit_weights(cls, groups, gamma):
        return cls(tuple(groups), (1.0,) * len(tuple(groups)), gamma)

    def validate_against(self, num_features):
        for g in self.groups:
            if any(i >= num_features for i in g):
                raise StructureError(
                    f"group index out of range for {num_features} features"
                )

    def coupling(self, num_features) -> CouplingMatrix:
        """The coupling matrix over ``num_features`` features.

        Rows are indexed by (member, group) pairs in group order, then member
        order within each group; row ``(i, g)`` carries ``gamma * w_g`` in
        column ``i``.
        """
        self.validate_against(num_features)
        cols = np.concatenate([np.asarray(g, dtype=np.int64) for g in self.groups])
        vals = np.concatenate(
            [np.full(len(g), self.gamma * w) for g, w in zip(self.groups, self.weights)]
        )
        rows = np.arange(cols.size, dtype=np.int64)
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(cols.size, num_features))
        blocks = []
        start = 0
        for g in self.groups:
            blocks.append((start, start + len(g)))
            start += len(g)
        return CouplingMatrix(matrix=matrix, row_blocks=tuple(blocks))

    def value(self, beta) -> float:
        """Exact overlapping group lasso value: gamma * sum_g w_g * ||beta_g||_2,
        summed over the rows of a J x K beta (groups over its K columns)."""
        beta = _coefficients(self, beta)
        total = 0.0
        for g, w in zip(self.groups, self.weights):
            total += w * float(np.linalg.norm(beta[..., np.asarray(g, dtype=np.int64)], axis=-1).sum())
        return self.gamma * total


@dataclass(frozen=True)
class GraphPenaltySpec:
    """Graph-guided fusion penalty specification.

    ``edges`` holds ``(m, l, r)`` triples with 0-based node indices
    ``m < l`` and a real edge correlation ``r``.  The fusion weight map is
    fixed to ``tau(r) = |r|``.
    """

    num_nodes: int
    edges: tuple
    gamma: float

    def __post_init__(self):
        edges = tuple(
            (
                m if type(m) is int else _index(m, "edge node"),
                l if type(l) is int else _index(l, "edge node"),
                float(r),
            )
            for m, l, r in self.edges
        )
        object.__setattr__(self, "num_nodes", _index(self.num_nodes, "num_nodes"))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.num_nodes < 1:
            raise StructureError("num_nodes must be positive")
        seen = set()
        for m, l, r in edges:
            if m == l:
                raise StructureError(f"self-loop on node {m}")
            if not (0 <= m < l < self.num_nodes):
                raise StructureError(f"edge ({m}, {l}) out of range or not ordered")
            if (m, l) in seen:
                raise StructureError(f"duplicate edge ({m}, {l})")
            seen.add((m, l))
            if not -math.inf < r < math.inf:
                raise StructureError(f"edge ({m}, {l}) has a non-finite correlation")
        if not 0.0 <= self.gamma < math.inf:
            raise StructureError("gamma must be non-negative and finite")

    def validate_against(self, num_features):
        if num_features != self.num_nodes:
            raise StructureError(
                f"graph penalty has {self.num_nodes} nodes, expected {num_features}"
            )

    def coupling(self, num_features=None) -> CouplingMatrix:
        """The signed, weighted edge-vertex incidence matrix: row e = (m, l)
        has ``gamma * tau(r)`` at column m and ``-gamma * sign(r) * tau(r)``
        at column l.  ``num_features``, when given, must be the node count."""
        if num_features is not None:
            self.validate_against(num_features)
        rows, cols, vals = [], [], []
        for e, (m, l, r) in enumerate(self.edges):
            tau = abs(r)
            if tau == 0.0:
                continue
            rows.extend((e, e))
            cols.extend((m, l))
            vals.extend((self.gamma * tau, -self.gamma * np.sign(r) * tau))
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(self.edges), self.num_nodes)
        )
        return CouplingMatrix(matrix=matrix, row_blocks=None)

    def value(self, beta) -> float:
        """Exact graph fusion value: gamma * sum_e tau(r) * |beta_m - sign(r) beta_l|,
        summed over the rows of a J x K beta (nodes are its K columns).

        Equals ``||C beta||_1`` for the incidence matrix ``coupling`` builds.
        """
        beta = _coefficients(self, beta)
        total = 0.0
        for m, l, r in self.edges:
            total += abs(r) * float(np.abs(beta[..., m] - np.sign(r) * beta[..., l]).sum())
        return self.gamma * total


@dataclass(frozen=True)
class CouplingMatrix:
    """Sparse coupling matrix C with optional per-group row blocks.

    For group penalties each row holds a single non-zero ``gamma * w_g`` and
    ``row_blocks`` partitions the rows into per-group blocks (given as
    ``(start, stop)`` offsets in group order).  For graph penalties each row
    is a signed, weighted difference over one edge (two non-zeros, or an
    all-zero row when ``r = 0``, retained to keep rows aligned with the edge
    list).

    ``apply`` and ``apply_transpose`` are the only products with C.  When
    every row of C stores exactly one entry (every group C), a 1-d iterate
    skips scipy: ``C beta`` is the gather ``coef * beta[cols]`` and
    ``C^T alpha`` the sum ``bincount(cols, coef * alpha)``, with ``cols`` and
    ``coef`` read once off the CSR arrays.  Both equal scipy's products bit
    for bit but for the sign of zero, at 40-60% of scipy's per-call cost.
    A graph C, or a J x K iterate, uses scipy's products, which read a
    Fortran-ordered J x K iterate (``C B^T``) and return ``C^T A`` in
    Fortran order with no copy.
    """

    matrix: sp.csr_matrix
    row_blocks: tuple | None = None

    def __post_init__(self):
        m = self.matrix
        # scipy builds a new CSC matrix (sharing C's arrays) on every ``.T``
        object.__setattr__(self, "_transpose", m.T)
        rows = m.shape[0]
        # a CSC matrix's indptr walks columns; with no rows, bincount would
        # return integer zeros
        one_per_row = (
            m.format == "csr" and rows > 0 and np.array_equal(m.indptr, np.arange(rows + 1))
        )
        object.__setattr__(
            self, "_gather", (m.indices.astype(np.intp), m.data) if one_per_row else None
        )
        blocks = self.row_blocks or ()
        object.__setattr__(self, "_starts", np.array([a for a, _ in blocks], dtype=np.int64))
        object.__setattr__(self, "_sizes", np.array([b - a for a, b in blocks], dtype=np.int64))

    def apply(self, beta) -> np.ndarray:
        """``C beta``, or ``C B^T`` for a J x K matrix (one column per input)."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape[-1:] != (self.cols,):
            raise StructureError(f"beta has shape {beta.shape}; C has {self.cols} columns")
        if beta.ndim == 1 and self._gather is not None:
            cols, coef = self._gather
            return coef * beta[cols]
        return self.matrix @ beta.T

    def apply_transpose(self, alpha) -> np.ndarray:
        """``C^T alpha``, shaped like the iterate."""
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape[:1] != (self.rows,):
            raise StructureError(f"alpha has shape {alpha.shape}; C has {self.rows} rows")
        if alpha.ndim == 1 and self._gather is not None:
            cols, coef = self._gather
            return np.bincount(cols, coef * alpha, minlength=self.cols)
        return (self._transpose @ alpha).T

    def block_norms(self, z, out=None) -> np.ndarray:
        """l2 norm of each row block of ``z = C beta`` along axis 0 (of each
        row when there are no blocks); the exact penalty is their sum.
        ``out=z`` overwrites z instead of allocating a copy of it."""
        if self.row_blocks is None:
            return np.abs(z, out=out)
        return np.sqrt(np.add.reduceat(np.square(z, out=out), self._starts, axis=0))

    def divide_blocks(self, z, norms) -> np.ndarray:
        """Divide each row block of ``z`` by its entry of ``norms``, in place."""
        z /= norms if self.row_blocks is None else norms.repeat(self._sizes, axis=0)
        return z

    def project_dual(self, z, mu):
        """The smoothed dual maximizer at ``z = C beta``, formed in z's place up
        to a scalar: returns ``(a, scale)`` with ``alpha* = a / scale``, where
        ``alpha*`` projects each row block of ``z / mu`` onto the unit l2 ball.

        With row blocks, each block of z is divided by ``max(||z_g||, mu)``,
        which is ``alpha*`` itself (scale 1).  With one row per block, z is
        clipped to ``[-mu, mu]`` (scale mu): a caller that maps ``alpha*``
        linearly, as ``C^T alpha*``, divides the smaller result by mu rather
        than z.
        """
        if self.row_blocks is None:
            return np.clip(z, -mu, mu, out=z), mu
        norms = self.block_norms(z)
        return self.divide_blocks(z, np.maximum(norms, mu, out=norms)), 1.0

    def value_and_subgradient(self, beta):
        """The exact penalty (block norms of ``C beta``, summed) and the
        subgradient ``C^T u``, ``u`` the blockwise unit direction of
        ``C beta`` (zero on a zero block), from one ``C beta``."""
        z = self.apply(beta)
        norms = self.block_norms(z)
        value = float(norms.sum())
        norms[norms == 0.0] = 1.0  # the block of z is zero there
        return value, self.apply_transpose(self.divide_blocks(z, norms))

    @property
    def dual_bound(self) -> float:
        """``D = max_{alpha in Q} ||alpha||^2 / 2``: half the number of unit
        balls in Q, one per row block (per row when there are no blocks)."""
        return (self.rows if self.row_blocks is None else len(self.row_blocks)) / 2.0

    @property
    def norm_bound(self) -> float:
        """Upper bound on ``||C||``: sqrt(max row nnz * max column sum of c^2),
        by Cauchy-Schwarz on each row.  Exact for groups, where each row has
        one non-zero and ``C^T C`` is diagonal; ``gamma sqrt(2 max_j d_j)`` on
        a graph, with d_j the tau^2-weighted degree of node j."""
        if self.nnz == 0:
            return 0.0
        m = self.matrix  # read through its arrays: it may be a stand-in
        row_nnz = np.diff(m.indptr).max()
        col_sq = np.bincount(m.indices, weights=np.square(m.data), minlength=self.cols).max()
        return float(np.sqrt(row_nnz * col_sq))

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    @property
    def nnz(self):
        return self.matrix.nnz

    def toarray(self):
        return self.matrix.toarray()


# --- JSON serialization (1-based indices on disk) ---

def penalty_to_json(spec) -> str:
    if isinstance(spec, GroupPenaltySpec):
        doc = {
            "type": "group",
            "gamma": spec.gamma,
            "groups": [[i + 1 for i in g] for g in spec.groups],
            "weights": list(spec.weights),
        }
    elif isinstance(spec, GraphPenaltySpec):
        doc = {
            "type": "graph",
            "gamma": spec.gamma,
            "num_nodes": spec.num_nodes,
            "edges": [[m + 1, l + 1, r] for m, l, r in spec.edges],
        }
    else:
        raise StructureError(f"unknown penalty spec type {type(spec).__name__}")
    return json.dumps(doc, indent=2, sort_keys=True)


def penalty_from_json(text: str):
    doc = json.loads(text)
    kind = doc.get("type")
    if kind == "group":
        groups = tuple(tuple(_index(i, "group index") - 1 for i in g) for g in doc["groups"])
        weights = doc.get("weights")  # absent or null: unit weights; [] fails the length check
        weights = tuple([1.0] * len(groups) if weights is None else weights)
        return GroupPenaltySpec(groups=groups, weights=weights, gamma=doc["gamma"])
    if kind == "graph":
        edges = tuple(
            (_index(m, "edge node") - 1, _index(l, "edge node") - 1, r) for m, l, r in doc["edges"]
        )
        return GraphPenaltySpec(
            num_nodes=doc["num_nodes"], edges=edges, gamma=doc["gamma"]
        )
    raise StructureError(f"unknown penalty type {kind!r} in JSON document")
