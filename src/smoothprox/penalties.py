"""Structured sparsity penalties and their sparse coupling operators.

Two penalty families are supported:

* overlapping group lasso: ``gamma * sum_g w_g * ||beta_g||_2`` over a
  collection of (possibly overlapping) index groups, and
* graph-guided fusion: ``gamma * sum_{(m,l)} tau(r_ml) * |beta_m -
  sign(r_ml) * beta_l|`` over weighted, signed edges.

Both can be written as ``max_{alpha in Q} alpha^T C beta`` for a sparse
coupling matrix ``C``.  Each spec checks its structure and builds its own
``C``; ``CouplingMatrix`` computes everything the solvers need from ``C``:
the exact value and a subgradient, the smoothed value and gradient at a
given ``mu``, ``D``, and ``||C||`` (a Lanczos estimate and an upper bound).
All indices are 0-based in memory; the JSON file format uses 1-based
indices.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dasum, ddot


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


def _real(value, what, error=StructureError) -> float:
    """``value`` as a float: an int, a float or a numpy real.  A bool or a
    non-number (a string) raises ``error``, not converted.  Like ``_index``,
    the spec constructors' loops call it only when ``type(value) is not float``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise error(f"{what} must be a real number, got {value!r}")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: a bool or a float is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_fields(record, error=ValueError, **least) -> None:
    """Check the number fields of the settings dataclass ``record``, whose
    annotations are strings: an ``int`` holds an integer and a ``float`` a
    finite real number, each at least ``least[field]`` when given, and a
    ``float | None`` None or a finite real above 0 (a bool is no number, and
    NaN fails every bound).  Floats are stored back as Python floats.  The
    first field that fails raises ``error("<field> must be <rule>, got <value>")``."""
    for f in fields(record):
        value, low, ok = getattr(record, f.name), least.get(f.name), True
        at_least = {0: "non-negative", 1: "positive"}.get(low, f"at least {low}")
        if f.type == "int":
            if not _is_int(value):
                raise error(f"{f.name} must be an integer, got {value!r}")
            ok, rule = low is None or value >= low, at_least
        elif f.type == "float" or (f.type == "float | None" and value is not None):
            x = _real(value, f.name, error)
            object.__setattr__(record, f.name, x)
            if f.type != "float":
                ok, rule = 0.0 < x < math.inf, "positive and finite"
            elif low is None:
                ok, rule = math.isfinite(x), "finite"
            else:
                ok, rule = low <= x < math.inf, f"{at_least} and finite"
        if not ok:
            raise error(f"{f.name} must be {rule}, got {value!r}")


def _tiling(sizes, total, what) -> None:
    """Raise StructureError naming ``what`` unless ``sizes`` are integers
    (not bools or floats), each at least 1, that sum to ``total``."""
    if not all(_is_int(s) for s in sizes):
        raise StructureError(f"{what} must be integers, got {sizes!r}")
    if min(sizes, default=1) < 1 or sum(sizes) != total:
        raise StructureError(f"{what} must each be at least 1 and sum to {total}, got {sizes!r}")


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
        weights = tuple(w if type(w) is float else _real(w, "group weight") for w in self.weights)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "weights", weights)
        _check_fields(self, StructureError, gamma=0)
        if len(groups) == 0:
            raise StructureError("at least one group is required")
        if len(weights) != len(groups):
            raise StructureError("weights and groups must have the same length")
        for g in groups:
            if len(g) == 0:
                raise StructureError("empty group")
            if any(i < 0 for i in g):
                raise StructureError("negative group index")
            if len(set(g)) != len(g):
                raise StructureError("a group lists an index more than once")
        if not all(0.0 < w < math.inf for w in weights):
            raise StructureError("group weights must be positive and finite")

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
        sizes = tuple(len(g) for g in self.groups)
        cols = np.concatenate([np.asarray(g, dtype=np.int64) for g in self.groups])
        # Python floats: an overflowing product is inf with no numpy warning,
        # and CouplingMatrix rejects it
        vals = np.repeat([self.gamma * w for w in self.weights], sizes)
        matrix = sp.csr_matrix((vals, cols, np.arange(cols.size + 1)), (cols.size, num_features))
        return CouplingMatrix(matrix=matrix, block_sizes=sizes)


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
                r if type(r) is float else _real(r, "edge correlation"),
            )
            for m, l, r in self.edges
        )
        object.__setattr__(self, "num_nodes", _index(self.num_nodes, "num_nodes"))
        object.__setattr__(self, "edges", edges)
        _check_fields(self, StructureError, num_nodes=1, gamma=0)
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
            vals.extend((self.gamma * tau, -self.gamma * math.copysign(1.0, r) * tau))
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(self.edges), self.num_nodes)
        )
        return CouplingMatrix(matrix=matrix)


@dataclass(frozen=True, eq=False)  # a scipy field: couplings compare and hash by identity
class CouplingMatrix:
    """Sparse coupling matrix C with optional per-group row blocks.  ``matrix``
    may be in any scipy sparse format; it is kept as a CSR matrix, which the
    products and ``norm_bound`` read by rows.

    For group penalties each row holds a single non-zero ``gamma * w_g`` and
    ``block_sizes`` holds the row count of each consecutive row block, one
    per group in group order (integers of at least 1 summing to the rows).
    ``None``, one row per block, is the graph's l-inf box: each row is a
    signed, weighted difference over one edge (two non-zeros, or an all-zero
    row when ``r = 0``, retained to keep rows aligned with the edge list).
    Every entry must be finite.

    ``apply`` and ``apply_transpose`` are the only products with C.  When
    every row of C stores exactly one entry (every group C), a 1-d iterate
    skips scipy: ``C beta`` is the gather ``coef * beta[cols]`` and
    ``C^T alpha`` the sum ``bincount(cols, coef * alpha)``, with ``cols`` and
    ``coef`` read once off the CSR arrays.  Both equal scipy's products bit
    for bit but for the sign of zero, at 40-60% of scipy's per-call cost.
    A graph C, or a J x K iterate, uses scipy's products, which read a
    Fortran-ordered J x K iterate (``C B^T``) and return ``C^T A`` in
    Fortran order with no copy.

    The smoothed penalty at smoothness mu is
    ``f_mu(beta) = max_{alpha in Q} (alpha^T C beta - mu/2 ||alpha||^2)``,
    whose maximizer ``alpha*`` projects each row block of ``C beta / mu``
    onto the unit l2 ball.  ``C B^T`` is the largest array of a solver
    iteration, so ``smoothed_values`` and ``smoothed_gradient`` work on it in
    place.  With two or three live copies of it, glibc malloc hands the freed
    pages back to the system and faults them in again on the next iteration;
    on the multi-output graph design (435 x 200) that made each iteration
    three times slower.  For the same reason each passes over it as few times
    as it can: ``smoothed_gradient`` twice after forming it on a graph (the
    clip and the ``C^T`` product; ``1/mu`` is applied to the J or J x K
    result), ``smoothed_values`` four times (a clip and three BLAS reductions;
    on groups these run on the much smaller block norms).  A graph clip takes
    its bounds as 0-d arrays, with the same bits as float bounds and faster
    (39 against 45 us on a 435 x 200 ``C B^T``).
    """

    matrix: sp.csr_matrix
    block_sizes: tuple | None = None

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix)  # no copy of a CSR input
        if not np.isfinite(m.data).all():
            raise StructureError(
                "C has a non-finite entry: a penalty's gamma times a group weight or an edge's |r| overflows"
            )
        object.__setattr__(self, "matrix", m)
        # scipy builds a new CSC matrix (sharing C's arrays) on every ``.T``
        object.__setattr__(self, "_transpose", m.T)
        rows = m.shape[0]
        # with no rows, bincount would return integer zeros
        one_per_row = rows > 0 and np.array_equal(m.indptr, np.arange(rows + 1))
        object.__setattr__(
            self, "_gather", (m.indices.astype(np.intp), m.data) if one_per_row else None
        )
        if self.block_sizes is not None:
            _tiling(self.block_sizes, rows, "block_sizes")
        sizes = np.array(self.block_sizes or (), dtype=np.int64)
        object.__setattr__(self, "_starts", np.cumsum(sizes) - sizes)
        object.__setattr__(self, "_sizes", sizes)

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
        if self.block_sizes is None:
            return np.abs(z, out=out)
        return np.sqrt(np.add.reduceat(np.square(z, out=out), self._starts, axis=0))

    def divide_blocks(self, z, norms) -> np.ndarray:
        """Divide each row block of ``z`` by its entry of ``norms``, in place."""
        z /= norms if self.block_sizes is None else norms.repeat(self._sizes, axis=0)
        return z

    def smoothed_values(self, beta, mu):
        """``(f0, f_mu)``, the exact and the smoothed penalty, from one ``C beta``.

        With block norms n and c = min(n, mu), f0 = sum n and
        f_mu = sum c^2 / (2 mu) + sum (n - c): per block n^2 / (2 mu) inside
        the ball, n - mu/2 outside.  On a graph each row is a block and its
        norm the absolute value of its entry of ``C beta``, so ``dasum`` and
        the clip to ``[-mu, mu]`` read the signed entries as they are.
        """
        if not mu > 0:
            raise ValueError("mu must be positive")
        n = self.apply(beta)
        blocks = self.block_sizes is not None
        if blocks:
            n = self.block_norms(n, out=n)
        n = n.reshape(-1)
        if not n.size:  # BLAS level-1 routines reject empty arrays
            return 0.0, 0.0
        f0 = float(dasum(n))
        # block norms are >= 0, so their clip is a minimum, with the same bits
        # and without np.clip's Python wrappers (a third of a group call)
        c = np.minimum(n, mu, out=n) if blocks else np.clip(n, np.array(-mu), np.array(mu), out=n)
        return f0, float(ddot(c, c)) / (2.0 * mu) + (f0 - float(dasum(c)))

    def smoothed_gradient(self, beta, mu) -> np.ndarray:
        """``C^T alpha*``, shaped like beta, formed in the place of ``C beta``.

        With row blocks, each block of ``z = C beta`` is divided by
        ``max(||z_g||, mu)``, which is ``alpha*`` itself.  With one row per
        block, z is clipped to ``[-mu, mu]``, which is ``mu alpha*``, and the
        smaller result of ``C^T`` is divided by mu rather than z.
        """
        if not mu > 0:
            raise ValueError("mu must be positive")
        z = self.apply(beta)
        if self.block_sizes is None:
            g = self.apply_transpose(np.clip(z, np.array(-mu), np.array(mu), out=z))
            g /= mu
            return g
        norms = self.block_norms(z)
        return self.apply_transpose(self.divide_blocks(z, np.maximum(norms, mu, out=norms)))

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
        return (self.rows if self.block_sizes is None else len(self.block_sizes)) / 2.0

    @property
    def norm_bound(self) -> float:
        """Upper bound on ``||C||``: sqrt(max row nnz * max column sum of c^2),
        by Cauchy-Schwarz on each row.  Exact for groups, where each row has
        one non-zero and ``C^T C`` is diagonal; ``gamma sqrt(2 max_j d_j)`` on
        a graph, with d_j the tau^2-weighted degree of node j."""
        if self.nnz == 0:
            return 0.0
        m = self.matrix
        row_nnz = np.diff(m.indptr).max()
        col_sq = np.bincount(m.indices, weights=np.square(m.data), minlength=self.cols).max()
        return float(np.sqrt(row_nnz * col_sq))

    def spectral_norm(self, tol=1e-8, max_iter=5000):
        """``||C||``, the largest singular value of C: the square root of the
        largest eigenvalue of C^T C by the Lanczos iteration of
        ``losses.power_iteration`` (one ``C`` and one ``C^T`` product per
        step, two vectors kept), as a ``SpectralEstimate`` flagged as
        approximate unless the eigenvalue's relative change falls below
        ``tol`` within ``max_iter`` steps.  Like the eigenvalue, it approaches
        sigma_max from below; ``norm_bound`` bounds it from above."""
        from .losses import power_iteration  # losses imports this module

        est = power_iteration(lambda v: self.apply_transpose(self.apply(v)), self.cols, tol, max_iter)
        return est._replace(value=float(np.sqrt(est.value)))

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    @property
    def nnz(self):
        return self.matrix.nnz


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


def _json_list(value, what, length=None):
    """``value`` if it is a JSON list, of ``length`` items when given; a
    StructureError naming ``what`` otherwise."""
    if isinstance(value, list) and (length is None or len(value) == length):
        return value
    items = "" if length is None else f" of {length} items"
    raise StructureError(f"{what} must be a list{items}, got {value!r}")


#: The fields a penalty JSON document of each type may carry.
_JSON_FIELDS = {
    "group": {"type", "gamma", "groups", "weights"},
    "graph": {"type", "gamma", "num_nodes", "edges"},
}


def penalty_from_json(text: str):
    """The spec in a JSON document.  A document of the wrong shape (not an
    object, an unknown type, a missing or unknown field, a field that is not
    a list where one is due, an edge that is not ``[m, l, r]``) raises
    StructureError naming the field."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructureError(f"penalty JSON must be an object, got {type(doc).__name__}")
    kind = doc.get("type")
    if not (isinstance(kind, str) and kind in _JSON_FIELDS):
        raise StructureError(f"unknown penalty type {kind!r} in JSON document")
    unknown = ", ".join(repr(key) for key in sorted(set(doc) - _JSON_FIELDS[kind]))
    if unknown:
        raise StructureError(f"{kind} penalty JSON has unknown fields: {unknown}")
    try:
        if kind == "group":
            groups = tuple(
                tuple(_index(i, "group index") - 1 for i in _json_list(g, "each group"))
                for g in _json_list(doc["groups"], "groups")
            )
            weights = doc.get("weights")  # absent or null: unit weights; [] fails the length check
            weights = [1.0] * len(groups) if weights is None else _json_list(weights, "weights")
            return GroupPenaltySpec(groups=groups, weights=tuple(weights), gamma=doc["gamma"])
        edges = []
        for edge in _json_list(doc["edges"], "edges"):
            m, l, r = _json_list(edge, "each edge", 3)
            edges.append((_index(m, "edge node") - 1, _index(l, "edge node") - 1, r))
        return GraphPenaltySpec(num_nodes=doc["num_nodes"], edges=tuple(edges), gamma=doc["gamma"])
    except KeyError as exc:  # only the document's fields are looked up by key
        raise StructureError(f"penalty JSON has no {exc.args[0]!r} field") from None
