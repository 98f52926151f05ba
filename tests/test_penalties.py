import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothprox import (
    CouplingMatrix,
    GraphPenaltySpec,
    GraphSimSpec,
    GroupPenaltySpec,
    OverlapSimSpec,
    Problem,
    SolverConfig,
    StructureError,
    penalty_from_json,
    penalty_to_json,
    solve,
    solve_fobos,
)
from conftest import (
    MALFORMED_PENALTY_IDS,
    MALFORMED_PENALTY_JSON,
    block_bounds,
    penalty_value,
    random_graph_spec,
    random_group_spec,
)


def two_group_spec(gamma=1.0):
    return GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), gamma)


class TestGroupCoupling:
    def test_overlapping_two_groups(self):
        C = two_group_spec().coupling(3)
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_array_equal(C.matrix.toarray(), expected)
        assert C.nnz == 4
        assert C.block_sizes == (2, 2)

    def test_single_element_group_scales_by_gamma_weight(self):
        spec = GroupPenaltySpec(groups=((0,),), weights=(2.0,), gamma=3.0)
        C = spec.coupling(1)
        np.testing.assert_allclose(C.matrix.toarray(), [[6.0]])

    def test_sliding_window_layout(self):
        # 10 groups of 100 overlapping by 10: 1000 rows over 910 columns
        groups = tuple(tuple(range(90 * i, 90 * i + 100)) for i in range(10))
        spec = GroupPenaltySpec.with_unit_weights(groups, 1.0)
        C = spec.coupling(910)
        assert (C.rows, C.cols) == (1000, 910)
        assert C.nnz == 1000

    def test_matches_a_coo_built_reference(self, rng):
        """C's CSR arrays equal, dtype and bits, those scipy builds from the
        COO triplets: row (i, g) holds ``gamma * w_g`` in column i, rows in
        group order."""
        for _ in range(40):
            J = int(rng.integers(1, 12))
            spec = random_group_spec(rng, num_features=J, max_groups=5)
            cols = np.concatenate([np.asarray(g, dtype=np.int64) for g in spec.groups])
            vals = np.concatenate(
                [np.full(len(g), spec.gamma * w) for g, w in zip(spec.groups, spec.weights)]
            )
            reference = sp.csr_matrix((vals, (np.arange(cols.size), cols)), shape=(cols.size, J))
            C = spec.coupling(J)
            assert C.block_sizes == tuple(len(g) for g in spec.groups)
            for name in ("data", "indices", "indptr"):
                got, want = getattr(C.matrix, name), getattr(reference, name)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name

    @pytest.mark.parametrize("sizes", [(2, 1), (2, 0, 2), (2, -1, 3), (2.0, 2.0), (True, 3)],
                             ids=["short", "zero", "negative", "float", "bool"])
    def test_block_sizes_must_tile_the_rows(self, sizes):
        """Sizes that do not cover the rows once each, or are not integers,
        are an error: the kernels would read them as some other partition."""
        with pytest.raises(StructureError, match="block_sizes must"):
            CouplingMatrix(sp.csr_matrix(np.eye(4)), block_sizes=sizes)

    def test_index_out_of_range(self):
        with pytest.raises(StructureError):
            two_group_spec().coupling(2)

    def test_empty_group_rejected(self):
        with pytest.raises(StructureError):
            GroupPenaltySpec(groups=((),), weights=(1.0,), gamma=1.0)

    def test_repeated_index_rejected(self):
        # C would carry column 0 twice in the block: sqrt(2) at beta = (1, 0),
        # where ||beta_g|| is 1
        with pytest.raises(StructureError, match="lists an index more than once"):
            GroupPenaltySpec(((0, 0),), (1.0,), 1.0)

    @pytest.mark.parametrize("groups, weights, message", [
        ((), (), "at least one group is required"),
        (((0, -1),), (1.0,), "negative group index"),
    ], ids=["no-groups", "negative-index"])
    def test_malformed_groups_rejected(self, groups, weights, message):
        with pytest.raises(StructureError, match=message):
            GroupPenaltySpec(groups, weights, 1.0)

    def test_nnz_equals_total_group_size(self, rng):
        for _ in range(20):
            spec = random_group_spec(rng, num_features=8)
            C = spec.coupling(8)
            assert C.nnz == sum(len(g) for g in spec.groups)


class TestGraphCoupling:
    def test_negative_correlation_sums_coefficients(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, -0.5),), gamma=2.0)
        C = spec.coupling()
        np.testing.assert_allclose(C.matrix.toarray(), [[1.0, 1.0]])
        np.testing.assert_allclose(C.apply([1.0, 1.0]), [2.0])

    def test_unit_edge_is_difference_operator(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.0)
        np.testing.assert_allclose(spec.coupling().matrix.toarray(), [[1.0, -1.0]])

    def test_chain_recovers_fused_lasso_differences(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=1.0
        )
        np.testing.assert_allclose(
            spec.coupling().matrix.toarray(), [[1, -1, 0], [0, 1, -1]]
        )

    def test_zero_weight_edge_keeps_zero_row(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 0.0), (1, 2, 1.0)), gamma=1.0
        )
        C = spec.coupling()
        assert C.rows == 2
        np.testing.assert_allclose(C.matrix.toarray()[0], [0, 0, 0])
        assert C.nnz == 2

    def test_self_loop_and_duplicates_rejected(self):
        with pytest.raises(StructureError):
            GraphPenaltySpec(num_nodes=2, edges=((0, 0, 1.0),), gamma=1.0)
        with pytest.raises(StructureError):
            GraphPenaltySpec(
                num_nodes=3, edges=((0, 1, 1.0), (0, 1, 0.5)), gamma=1.0
            )

    @pytest.mark.parametrize("num_nodes, edges, message", [
        (0, (), "num_nodes must be positive"),
        (3, ((2, 1, 0.5),), r"edge \(2, 1\) out of range or not ordered"),
        (3, ((1, 3, 0.5),), r"edge \(1, 3\) out of range or not ordered"),
    ], ids=["no-nodes", "unordered-edge", "edge-past-last-node"])
    def test_malformed_graph_rejected(self, num_nodes, edges, message):
        with pytest.raises(StructureError, match=message):
            GraphPenaltySpec(num_nodes=num_nodes, edges=edges, gamma=1.0)

    def test_nnz_at_most_two_per_edge(self, rng):
        for _ in range(20):
            spec = random_graph_spec(rng, num_nodes=6)
            C = spec.coupling()
            assert C.nnz <= 2 * len(spec.edges)
            if all(r != 0 for _, _, r in spec.edges):
                assert C.nnz == 2 * len(spec.edges)


class TestPenaltyValues:
    def test_group_value(self):
        assert penalty_value(two_group_spec(), [3.0, 4.0, 0.0]) == pytest.approx(9.0)

    def test_group_zero_vector(self):
        assert penalty_value(two_group_spec(), np.zeros(3)) == 0.0

    def test_group_gamma_zero(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 0.0)
        assert penalty_value(spec, rng.standard_normal(3)) == 0.0

    def test_graph_value(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, -0.5)), gamma=1.0
        )
        assert penalty_value(spec, [1.0, 0.0, 2.0]) == pytest.approx(2.0)

    def test_graph_constant_vector_fuses_to_zero(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=2.0
        )
        assert penalty_value(spec, [1.7, 1.7, 1.7]) == pytest.approx(0.0)

    def test_graph_two_nodes_absolute_difference(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.0)
        assert penalty_value(spec, [2.0, -3.0]) == pytest.approx(5.0)

    def test_graph_value_equals_l1_of_coupling_product(self, rng):
        for _ in range(20):
            spec = random_graph_spec(rng, num_nodes=6)
            C = spec.coupling()
            beta = rng.standard_normal(6)
            assert penalty_value(spec, beta) == pytest.approx(
                np.abs(C.apply(beta)).sum(), rel=1e-12
            )

    def test_group_value_is_dual_maximum(self, rng):
        # max over the product of unit balls, solved exactly per block:
        # the maximizing alpha_g is beta_g / ||beta_g||
        for _ in range(10):
            spec = random_group_spec(rng, num_features=4, max_groups=3)
            C = spec.coupling(4)
            beta = rng.standard_normal(4)
            z = C.apply(beta)
            best = sum(
                np.linalg.norm(z[a:b]) for a, b in block_bounds(C)
            )
            assert penalty_value(spec, beta) == pytest.approx(best, rel=1e-10)

    def test_nonnegative_homogeneous_convex(self, rng):
        for _ in range(10):
            gspec = random_group_spec(rng, num_features=5)
            hspec = random_graph_spec(rng, num_nodes=5)
            for value in (
                lambda b: penalty_value(gspec, b),
                lambda b: penalty_value(hspec, b),
            ):
                b1, b2 = rng.standard_normal((2, 5))
                t = float(rng.uniform(0.1, 5.0))
                assert value(b1) >= 0.0
                assert value(t * b1) == pytest.approx(t * value(b1), rel=1e-10)
                mid = value(0.5 * (b1 + b2))
                assert mid <= 0.5 * (value(b1) + value(b2)) + 1e-10


class TestCouplingApply:
    def test_couplings_compare_by_identity(self):
        """Two couplings over equal matrices are different objects; ``==``
        once raised on the scipy field and ``hash`` on the unhashable one."""
        C = CouplingMatrix(sp.csr_matrix(np.eye(3)))
        other = CouplingMatrix(sp.csr_matrix(np.eye(3)))
        assert C == C and C != other
        assert hash(C) == hash(C)
        assert len({C, C, other}) == 2 and other not in {C}

    def test_scalar(self):
        spec = GroupPenaltySpec(groups=((0,),), weights=(2.0,), gamma=3.0)
        C = spec.coupling(1)
        np.testing.assert_allclose(C.apply([2.0]), [12.0])

    def test_group_expansion(self):
        C = two_group_spec().coupling(3)
        np.testing.assert_allclose(C.apply([3.0, 4.0, 0.0]), [3, 4, 4, 0])

    def test_zero_vector(self):
        C = two_group_spec().coupling(3)
        np.testing.assert_allclose(C.apply(np.zeros(3)), np.zeros(4))

    def test_transpose_group(self):
        C = two_group_spec().coupling(3)
        np.testing.assert_allclose(
            C.apply_transpose(np.ones(4)), [1.0, 2.0, 1.0]
        )

    def test_transpose_zero(self):
        C = two_group_spec().coupling(3)
        np.testing.assert_allclose(C.apply_transpose(np.zeros(4)), np.zeros(3))

    def test_transpose_chain(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=1.0
        )
        C = spec.coupling()
        np.testing.assert_allclose(
            C.apply_transpose(np.ones(2)), [1.0, 0.0, -1.0]
        )

    def test_dimension_mismatch(self):
        C = two_group_spec().coupling(3)
        with pytest.raises(StructureError):
            C.apply(np.zeros(4))
        with pytest.raises(StructureError):
            C.apply_transpose(np.zeros(3))

    def test_matrix_dimension_mismatch(self):
        """J x K iterates: the last axis of B must be C's column count, and
        the first axis of the dual variable its row count."""
        C = two_group_spec().coupling(3)
        assert C.apply(np.zeros((5, 3))).shape == (4, 5)
        assert C.apply_transpose(np.zeros((4, 5))).shape == (5, 3)
        with pytest.raises(StructureError):
            C.apply(np.zeros((5, 4)))
        with pytest.raises(StructureError):
            C.apply_transpose(np.zeros((3, 5)))

    def test_matches_dense_gram_product(self, rng):
        for _ in range(10):
            spec = random_group_spec(rng, num_features=12)
            C = spec.coupling(12)
            dense = C.matrix.toarray()
            beta = rng.standard_normal(12)
            np.testing.assert_allclose(
                C.apply_transpose(C.apply(beta)),
                dense.T @ (dense @ beta),
                atol=1e-12,
            )


class TestNonFiniteNumbers:
    """Each number of a spec must be finite; NaN fails every check."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_group_gamma(self, value):
        with pytest.raises(StructureError, match="gamma"):
            GroupPenaltySpec.with_unit_weights(((0, 1),), value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_group_weight(self, value):
        with pytest.raises(StructureError, match="weights"):
            GroupPenaltySpec(groups=((0, 1), (1, 2)), weights=(1.0, value), gamma=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_graph_gamma(self, value):
        with pytest.raises(StructureError, match="gamma"):
            GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_graph_edge_correlation(self, value):
        with pytest.raises(StructureError, match="non-finite correlation"):
            GraphPenaltySpec(num_nodes=3, edges=((0, 1, 1.0), (1, 2, value)), gamma=1.0)

    @pytest.mark.parametrize("make", [
        lambda: GroupPenaltySpec(((0, 1),), (1e300,), 1e300).coupling(2),
        lambda: GraphPenaltySpec(2, ((0, 1, 1e300),), 1e300).coupling(2),
        lambda: CouplingMatrix(sp.csr_matrix(np.array([[1.0, math.inf], [math.nan, 0.0]]))),
    ], ids=["group", "graph", "hand-made"])
    def test_coupling_entry(self, make):
        """Finite numbers whose product overflows: C is rejected with no
        numpy overflow warning first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureError, match="non-finite entry"):
                make()

    @pytest.mark.parametrize("doc", [
        '{"type": "group", "gamma": NaN, "groups": [[1, 2]]}',
        '{"type": "graph", "gamma": 1.0, "num_nodes": 2, "edges": [[1, 2, NaN]]}',
    ])
    def test_json_nan_literal(self, doc):
        with pytest.raises(StructureError):
            penalty_from_json(doc)


class TestJsonRoundTrip:
    def test_group(self):
        spec = GroupPenaltySpec(groups=((0, 1), (1, 2)), weights=(1.0, 0.5), gamma=2.0)
        assert penalty_from_json(penalty_to_json(spec)) == spec

    def test_graph(self):
        spec = GraphPenaltySpec(
            num_nodes=4, edges=((0, 1, 0.7), (2, 3, -0.4)), gamma=1.5
        )
        assert penalty_from_json(penalty_to_json(spec)) == spec

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(StructureError, match="unknown penalty spec type object"):
            penalty_to_json(object())

    def test_indices_are_one_based_on_disk(self):
        import json

        doc = json.loads(penalty_to_json(two_group_spec()))
        assert doc["groups"] == [[1, 2], [2, 3]]

    @pytest.mark.parametrize("weights", ['', ', "weights": null'], ids=["absent", "null"])
    def test_missing_weights_are_unit(self, weights):
        doc = '{"type": "group", "gamma": 1.0, "groups": [[1, 2], [2, 3]]%s}' % weights
        assert penalty_from_json(doc).weights == (1.0, 1.0)

    @pytest.mark.parametrize("weights", ["[]", "[2.0]"], ids=["empty", "short"])
    def test_weights_of_the_wrong_length_fail(self, weights):
        doc = '{"type": "group", "gamma": 1.0, "groups": [[1, 2], [2, 3]], "weights": %s}' % weights
        with pytest.raises(StructureError, match="same length"):
            penalty_from_json(doc)

    @pytest.mark.parametrize("doc, field", MALFORMED_PENALTY_JSON, ids=MALFORMED_PENALTY_IDS)
    def test_malformed_document_names_the_field(self, doc, field):
        with pytest.raises(StructureError, match=field):
            penalty_from_json(doc)


class TestIntegerIndices:
    """Indices are integers; a fractional number or a bool is an error, not
    truncated.  A float with no fractional part is the integer it equals."""

    @pytest.mark.parametrize("groups", [
        ((0.7, 1.2),), ((0, 2.5),), ((True, 1),), ((0, np.True_),), ((0, math.nan),), ((0, "1"),),
    ], ids=["fractions", "one-fraction", "bool", "numpy-bool", "nan", "str"])
    def test_group_index_must_be_an_integer(self, groups):
        with pytest.raises(StructureError, match="group index must be an integer"):
            GroupPenaltySpec(groups=groups, weights=(1.0,), gamma=1.0)

    def test_integral_floats_and_numpy_integers_are_accepted(self):
        spec = GroupPenaltySpec(groups=((0.0, 2.0), (np.int64(1), np.int32(2))), weights=(1.0, 1.0), gamma=1.0)
        assert spec.groups == ((0, 2), (1, 2))
        assert all(type(i) is int for g in spec.groups for i in g)

    @pytest.mark.parametrize("edges, num_nodes", [
        (((0, 1.6, 0.5),), 3),
        (((0.5, 2, 0.5),), 3),
        (((False, 1, 0.5),), 3),
        (((0, 1, 0.5),), 3.7),
        (((0, 1, 0.5),), True),
    ], ids=["fractional-node", "fractional-first-node", "bool-node", "fractional-count", "bool-count"])
    def test_graph_indices_must_be_integers(self, edges, num_nodes):
        with pytest.raises(StructureError, match="must be an integer"):
            GraphPenaltySpec(num_nodes=num_nodes, edges=edges, gamma=1.0)

    def test_graph_integral_floats_are_accepted(self):
        spec = GraphPenaltySpec(num_nodes=3.0, edges=((0.0, 2.0, 0.5),), gamma=1.0)
        assert (spec.num_nodes, spec.edges) == (3, ((0, 2, 0.5),))

    @pytest.mark.parametrize("doc", [
        '{"type": "group", "gamma": 1.0, "groups": [[1.5, 2.9]]}',
        '{"type": "group", "gamma": 1.0, "groups": [[true, 2]]}',
        '{"type": "graph", "gamma": 1.0, "num_nodes": 3.7, "edges": [[1, 2, 0.5]]}',
        '{"type": "graph", "gamma": 1.0, "num_nodes": 3, "edges": [[1, 2.6, 0.5]]}',
        '{"type": "graph", "gamma": 1.0, "num_nodes": 3, "edges": [[true, 2, 0.5]]}',
        '{"type": "group", "gamma": 1.0, "groups": [["1", 2]]}',
    ], ids=["group-fractions", "group-bool", "graph-node-count", "graph-edge", "graph-bool", "group-str"])
    def test_json_indices_must_be_integers(self, doc):
        with pytest.raises(StructureError, match="must be an integer"):
            penalty_from_json(doc)

    def test_json_integral_floats_are_accepted(self):
        doc = '{"type": "graph", "gamma": 1.0, "num_nodes": 3.0, "edges": [[1.0, 3.0, 0.5]]}'
        assert penalty_from_json(doc) == GraphPenaltySpec(num_nodes=3, edges=((0, 2, 0.5),), gamma=1.0)
        doc = '{"type": "group", "gamma": 1.0, "groups": [[1.0, 2]]}'
        assert penalty_from_json(doc).groups == ((0, 1),)


class TestRealNumbers:
    """gamma, group weights and edge correlations are real numbers; a bool or
    a string is an error, not converted.  Ints and numpy reals are floats."""

    @pytest.mark.parametrize("value", [True, np.True_, "5", None, [1.0]], ids=["bool", "numpy-bool", "str", "none", "list"])
    @pytest.mark.parametrize("make, what", [
        (lambda v: GroupPenaltySpec.with_unit_weights(((0, 1),), v), "gamma"),
        (lambda v: GroupPenaltySpec(groups=((0, 1), (1, 2)), weights=(1.0, v), gamma=1.0), "group weight"),
        (lambda v: GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=v), "gamma"),
        (lambda v: GraphPenaltySpec(num_nodes=3, edges=((0, 1, 1.0), (1, 2, v)), gamma=1.0), "edge correlation"),
    ], ids=["group-gamma", "group-weight", "graph-gamma", "graph-edge"])
    def test_must_be_real(self, make, what, value):
        with pytest.raises(StructureError, match=f"{what} must be a real number"):
            make(value)

    def test_ints_and_numpy_reals_are_floats(self):
        group = GroupPenaltySpec(groups=((0, 1), (1, 2)), weights=(2, np.float32(0.5)), gamma=np.int64(3))
        assert (group.weights, group.gamma) == ((2.0, 0.5), 3.0)
        graph = GraphPenaltySpec(num_nodes=3, edges=((0, 1, 1), (1, 2, np.float64(-0.5))), gamma=2)
        assert (graph.edges, graph.gamma) == (((0, 1, 1.0), (1, 2, -0.5)), 2.0)
        assert all(type(x) is float for x in (*group.weights, group.gamma, graph.gamma, *(r for *_, r in graph.edges)))

    @pytest.mark.parametrize("doc, what", [
        ('{"type": "group", "gamma": true, "groups": [[1, 2]]}', "gamma"),
        ('{"type": "group", "gamma": "5", "groups": [[1, 2]]}', "gamma"),
        ('{"type": "group", "gamma": 1.0, "groups": [[1, 2]], "weights": ["2"]}', "group weight"),
        ('{"type": "group", "gamma": 1.0, "groups": [[1, 2]], "weights": [false]}', "group weight"),
        ('{"type": "graph", "gamma": true, "num_nodes": 2, "edges": [[1, 2, 0.5]]}', "gamma"),
        ('{"type": "graph", "gamma": 1.0, "num_nodes": 2, "edges": [[1, 2, "0.5"]]}', "edge correlation"),
        ('{"type": "graph", "gamma": 1.0, "num_nodes": 2, "edges": [[1, 2, true]]}', "edge correlation"),
    ], ids=["group-gamma-bool", "group-gamma-str", "weight-str", "weight-bool", "graph-gamma-bool",
            "edge-str", "edge-bool"])
    def test_json_numbers_must_be_real(self, doc, what):
        with pytest.raises(StructureError, match=f"{what} must be a real number"):
            penalty_from_json(doc)

    def test_json_ints_are_floats(self):
        doc = '{"type": "graph", "gamma": 2, "num_nodes": 2, "edges": [[1, 2, 1]]}'
        assert penalty_from_json(doc) == GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=2.0)


#: Every settings record, the keyword arguments of a valid one, and its error class.
SETTINGS_RECORDS = [
    (SolverConfig, {}, ValueError),
    (OverlapSimSpec, {}, ValueError),
    (GraphSimSpec, {}, ValueError),
    (GroupPenaltySpec, {"groups": ((0, 1),), "weights": (1.0,), "gamma": 1.0}, StructureError),
    (GraphPenaltySpec, {"num_nodes": 2, "edges": ((0, 1, 0.5),), "gamma": 1.0}, StructureError),
]


def number_fields(*kinds):
    """A ``(make, kwargs, error, field)`` case for each field of each record
    whose annotation is one of ``kinds``, alone or with ``| None``."""
    return [
        pytest.param(make, kwargs, error, f.name, id=f"{make.__name__}-{f.name}")
        for make, kwargs, error in SETTINGS_RECORDS
        for f in dataclasses.fields(make)
        if f.type.split(" | ")[0] in kinds
    ]


class TestSettingsFields:
    """One check covers every number field of every settings record, so a
    field added later is covered here with no new test."""

    @pytest.mark.parametrize("value", [True, "1", math.nan], ids=["bool", "str", "nan"])
    @pytest.mark.parametrize("make, kwargs, error, field", number_fields("int", "float"))
    def test_bools_strings_and_nan_are_rejected(self, make, kwargs, error, field, value):
        with pytest.raises(error) as info:
            make(**{**kwargs, field: value})
        assert type(info.value) is error
        assert f"{field} must be " in str(info.value) and f", got {value!r}" in str(info.value)

    @pytest.mark.parametrize("value", [1, np.float32(0.5)], ids=["int", "float32"])
    @pytest.mark.parametrize("make, kwargs, error, field", number_fields("float"))
    def test_reals_are_stored_as_floats(self, make, kwargs, error, field, value):
        stored = getattr(make(**{**kwargs, field: value}), field)
        assert type(stored) is float and stored == value


class TestGatherForm:
    """On a 1-d iterate a group C forms ``C beta`` as a gather and ``C^T alpha``
    as a bincount; every result equals its definition through scipy's CSR
    products and per-block loops."""

    @staticmethod
    def assert_close(actual, desired):
        np.testing.assert_allclose(actual, desired, rtol=1e-15, atol=0.0)

    def test_equals_the_csr_definitions(self, rng):
        for _ in range(60):
            J = int(rng.integers(1, 12))
            spec = random_group_spec(rng, num_features=J, max_groups=5)
            C = spec.coupling(J)
            M = C.matrix
            beta = rng.standard_normal(J) * rng.choice([1e-3, 1e-1, 1.0])
            beta[rng.random(J) < 0.3] = 0.0
            alpha = rng.standard_normal(C.rows)
            mu = float(rng.choice([1e-3, 1e-2, 1e-1]))
            self.assert_close(C.apply(beta), M @ beta)
            self.assert_close(C.apply_transpose(alpha), M.T @ alpha)

            z = M @ beta
            blocks = [z[a:b] for a, b in block_bounds(C)]
            norms = np.array([np.sqrt(np.sum(zg**2)) for zg in blocks])
            alpha_star = np.concatenate([zg / max(n, mu) for zg, n in zip(blocks, norms)])
            f0, f_mu = C.smoothed_values(beta, mu)
            self.assert_close(f0, norms.sum())
            self.assert_close(f_mu, np.sum(np.where(norms <= mu, norms**2 / (2 * mu), norms - mu / 2)))
            self.assert_close(C.smoothed_gradient(beta, mu), M.T @ alpha_star)

            value, subgradient = C.value_and_subgradient(beta)
            u = np.concatenate([zg / (n if n > 0 else 1.0) for zg, n in zip(blocks, norms)])
            self.assert_close(value, norms.sum())
            self.assert_close(subgradient, M.T @ u)

    def test_sliding_window_products_are_bit_identical(self, rng):
        """On the paper's overlap layout the gather and the bincount sum the
        same products in the same order as scipy."""
        groups = tuple(tuple(range(90 * i, 90 * i + 100)) for i in range(10))
        C = GroupPenaltySpec(groups, tuple(rng.uniform(0.5, 2.0, 10)), 2.0).coupling(910)
        beta, alpha = rng.standard_normal(910), rng.standard_normal(1000)
        np.testing.assert_array_equal(C.apply(beta), C.matrix @ beta)
        np.testing.assert_array_equal(C.apply_transpose(alpha), C.matrix.T @ alpha)

    @staticmethod
    def count_sparse_products(mp):
        calls = []
        for cls in (sp.csr_matrix, sp.csc_matrix):
            original = cls.__matmul__

            def counted(self, other, original=original):
                calls.append(type(self).__name__)
                return original(self, other)

            mp.setattr(cls, "__matmul__", counted)
        return calls

    @staticmethod
    def exercise(C, beta):
        """Every use of C a solver makes at ``beta``."""
        C.smoothed_gradient(beta, 1e-2)
        C.smoothed_values(beta, 1e-2)
        C.value_and_subgradient(beta)

    def test_group_vector_makes_no_sparse_product(self, rng):
        spec = random_group_spec(rng, num_features=8)
        C = spec.coupling(8)
        X, y = rng.standard_normal((30, 8)), rng.standard_normal(30)
        problem = Problem.least_squares(X, y, spec)
        with pytest.MonkeyPatch.context() as mp:
            calls = self.count_sparse_products(mp)
            self.exercise(C, rng.standard_normal(8))
            C.spectral_norm()
            solve(problem, SolverConfig(lam=0.1, mu=1e-2, max_iter=5))
            solve_fobos(problem, SolverConfig(lam=0.1, max_iter=5))
        assert calls == []

    @pytest.mark.parametrize("case", ["graph-vector", "group-matrix", "graph-matrix"])
    def test_graph_or_matrix_iterate_uses_scipy(self, rng, case):
        if case.startswith("graph"):
            C = GraphPenaltySpec(num_nodes=4, edges=((0, 1, 0.5), (1, 3, -0.8)), gamma=1.0).coupling()
        else:
            C = two_group_spec().coupling(3)
        beta = rng.standard_normal((5, C.cols) if case.endswith("matrix") else C.cols)
        with pytest.MonkeyPatch.context() as mp:
            calls = self.count_sparse_products(mp)
            self.exercise(C, beta)
        assert "csr_matrix" in calls and "csc_matrix" in calls

    @pytest.mark.parametrize("make", [
        sp.csc_matrix, sp.csc_array, sp.coo_matrix, sp.coo_array, sp.lil_matrix, sp.dok_matrix,
        sp.dia_matrix, sp.bsr_matrix, sp.csr_array,
    ], ids=["csc", "csc_array", "coo", "coo_array", "lil", "dok", "dia", "bsr", "csr_array"])
    def test_csc_matrix_is_not_read_as_rows(self, make):
        """C is kept as CSR whatever its format: a square CSC matrix with one
        entry per column has the row pointer a CSR matrix with one entry per
        row would have, BSR's pointer runs over blocks, and COO, LIL, DOK and
        DIA have no row pointer."""
        dense = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        C = CouplingMatrix(make(dense))
        beta = np.array([1.0, 10.0, 100.0])
        np.testing.assert_array_equal(C.apply(beta), dense @ beta)
        np.testing.assert_array_equal(C.apply_transpose(beta), dense.T @ beta)
        assert C.norm_bound >= np.linalg.norm(dense, 2)

    def test_csr_input_is_not_copied(self):
        matrix = sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
        C = CouplingMatrix(matrix)
        assert C.matrix.format == "csr"
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(C.matrix, name), getattr(matrix, name))

    @pytest.mark.parametrize("matrix", [
        sp.csr_matrix((0, 4)),
        GraphPenaltySpec(num_nodes=4, edges=(), gamma=1.0).coupling().matrix,
    ], ids=["empty-csr", "edgeless-graph"])
    def test_no_rows(self, matrix):
        C = CouplingMatrix(matrix)
        assert C.apply(np.ones(4)).shape == (0,)
        np.testing.assert_array_equal(C.apply_transpose(np.zeros(0)), np.zeros(4))
        assert C.apply(np.ones((3, 4))).shape == (0, 3)
        np.testing.assert_array_equal(C.apply_transpose(np.zeros((0, 3))), np.zeros((3, 4)))
        assert C.smoothed_values(np.ones(4), 1e-2) == (0.0, 0.0)
        np.testing.assert_array_equal(C.smoothed_gradient(np.ones(4), 1e-2), np.zeros(4))
        assert C.value_and_subgradient(np.ones(4))[0] == 0.0


class TestCachedTranspose:
    @pytest.mark.parametrize("max_iter", [5, 25])
    def test_solve_builds_a_fixed_number_of_sparse_matrices(self, rng, max_iter):
        X = rng.standard_normal((30, 6))
        problem = Problem.least_squares(X, rng.standard_normal(30), two_group_spec())
        config = SolverConfig(lam=0.1, mu=0.05, max_iter=max_iter, rel_tol=1e-300)
        built = []
        init = sp.csc_matrix.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sp.csc_matrix, "__init__", counted)
            _, trace = solve(problem, config)
        assert len(trace) == max_iter
        # C^T once per coupling, not once per iteration
        assert len(built) <= 2


@st.composite
def group_specs(draw):
    J = draw(st.integers(1, 8))
    groups = draw(st.lists(
        st.lists(st.integers(0, J - 1), min_size=1, max_size=J, unique=True), min_size=1, max_size=6
    ))
    weights = draw(st.lists(st.floats(0.1, 3.0), min_size=len(groups), max_size=len(groups)))
    return GroupPenaltySpec(tuple(map(tuple, groups)), tuple(weights), draw(st.floats(0.1, 5.0)))


@st.composite
def graph_specs(draw):
    J = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(J), 2))), unique=True))
    rs = draw(st.lists(st.just(0.0) | st.floats(-1.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return GraphPenaltySpec(J, tuple((m, l, r) for (m, l), r in zip(pairs, rs)), draw(st.floats(0.1, 5.0)))


def sigma_max(coupling):
    dense = coupling.matrix.toarray()
    return float(np.linalg.svd(dense, compute_uv=False)[0]) if dense.size else 0.0


class TestCouplingConstants:
    """``dual_bound`` and ``norm_bound`` read off the built coupling matrix."""

    @settings(max_examples=200, deadline=None)
    @given(spec=group_specs())
    def test_group_norm_bound_is_the_spectral_norm(self, spec):
        coupling = spec.coupling(max(max(g) for g in spec.groups) + 1)
        assert coupling.norm_bound == pytest.approx(sigma_max(coupling), rel=1e-10)
        assert coupling.dual_bound == len(spec.groups) / 2

    @settings(max_examples=200, deadline=None)
    @given(spec=graph_specs())
    @example(spec=GraphPenaltySpec(num_nodes=3, edges=(), gamma=2.0))
    @example(spec=GraphPenaltySpec(num_nodes=3, edges=((0, 1, 0.0), (1, 2, 0.0)), gamma=2.0))
    def test_graph_norm_bound_is_an_upper_bound(self, spec):
        coupling = spec.coupling()
        sigma = sigma_max(coupling)
        assert coupling.norm_bound >= sigma - 1e-12 * max(1.0, sigma)
        assert coupling.dual_bound == len(spec.edges) / 2
        if all(r == 0.0 for _, _, r in spec.edges):
            assert coupling.norm_bound == 0.0

    @pytest.mark.parametrize("num_features", [3, 7])
    def test_graph_node_count_must_match_features(self, num_features):
        spec = GraphPenaltySpec(num_nodes=5, edges=((0, 1, 1.0),), gamma=1.0)
        with pytest.raises(StructureError, match=f"has 5 nodes, expected {num_features}"):
            spec.coupling(num_features)
        assert spec.coupling(5).rows == 1
