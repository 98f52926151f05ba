import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothprox import (
    GraphPenaltySpec,
    GroupPenaltySpec,
    Problem,
    SolverConfig,
    StructureError,
    penalty_from_json,
    penalty_to_json,
    solve,
)
from conftest import random_graph_spec, random_group_spec


def two_group_spec(gamma=1.0):
    return GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), gamma)


class TestGroupCoupling:
    def test_overlapping_two_groups(self):
        C = two_group_spec().coupling(3)
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_array_equal(C.toarray(), expected)
        assert C.nnz == 4
        assert C.row_blocks == ((0, 2), (2, 4))

    def test_single_element_group_scales_by_gamma_weight(self):
        spec = GroupPenaltySpec(groups=((0,),), weights=(2.0,), gamma=3.0)
        C = spec.coupling(1)
        np.testing.assert_allclose(C.toarray(), [[6.0]])

    def test_sliding_window_layout(self):
        # 10 groups of 100 overlapping by 10: 1000 rows over 910 columns
        groups = tuple(tuple(range(90 * i, 90 * i + 100)) for i in range(10))
        spec = GroupPenaltySpec.with_unit_weights(groups, 1.0)
        C = spec.coupling(910)
        assert (C.rows, C.cols) == (1000, 910)
        assert C.nnz == 1000

    def test_index_out_of_range(self):
        with pytest.raises(StructureError):
            two_group_spec().coupling(2)

    def test_empty_group_rejected(self):
        with pytest.raises(StructureError):
            GroupPenaltySpec(groups=((),), weights=(1.0,), gamma=1.0)

    def test_nnz_equals_total_group_size(self, rng):
        for _ in range(20):
            spec = random_group_spec(rng, num_features=8)
            C = spec.coupling(8)
            assert C.nnz == sum(len(g) for g in spec.groups)


class TestGraphCoupling:
    def test_negative_correlation_sums_coefficients(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, -0.5),), gamma=2.0)
        C = spec.coupling()
        np.testing.assert_allclose(C.toarray(), [[1.0, 1.0]])
        np.testing.assert_allclose(C.apply([1.0, 1.0]), [2.0])

    def test_unit_edge_is_difference_operator(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.0)
        np.testing.assert_allclose(spec.coupling().toarray(), [[1.0, -1.0]])

    def test_chain_recovers_fused_lasso_differences(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=1.0
        )
        np.testing.assert_allclose(
            spec.coupling().toarray(), [[1, -1, 0], [0, 1, -1]]
        )

    def test_zero_weight_edge_keeps_zero_row(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 0.0), (1, 2, 1.0)), gamma=1.0
        )
        C = spec.coupling()
        assert C.rows == 2
        np.testing.assert_allclose(C.toarray()[0], [0, 0, 0])
        assert C.nnz == 2

    def test_self_loop_and_duplicates_rejected(self):
        with pytest.raises(StructureError):
            GraphPenaltySpec(num_nodes=2, edges=((0, 0, 1.0),), gamma=1.0)
        with pytest.raises(StructureError):
            GraphPenaltySpec(
                num_nodes=3, edges=((0, 1, 1.0), (0, 1, 0.5)), gamma=1.0
            )

    def test_nnz_at_most_two_per_edge(self, rng):
        for _ in range(20):
            spec = random_graph_spec(rng, num_nodes=6)
            C = spec.coupling()
            assert C.nnz <= 2 * len(spec.edges)
            if all(r != 0 for _, _, r in spec.edges):
                assert C.nnz == 2 * len(spec.edges)


class TestPenaltyValues:
    def test_group_value(self):
        assert two_group_spec().value([3.0, 4.0, 0.0]) == pytest.approx(9.0)

    def test_group_zero_vector(self):
        assert two_group_spec().value(np.zeros(3)) == 0.0

    def test_group_gamma_zero(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 0.0)
        assert spec.value(rng.standard_normal(3)) == 0.0

    def test_graph_value(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, -0.5)), gamma=1.0
        )
        assert spec.value([1.0, 0.0, 2.0]) == pytest.approx(2.0)

    def test_graph_constant_vector_fuses_to_zero(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=2.0
        )
        assert spec.value([1.7, 1.7, 1.7]) == pytest.approx(0.0)

    def test_graph_two_nodes_absolute_difference(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.0)
        assert spec.value([2.0, -3.0]) == pytest.approx(5.0)

    def test_graph_value_equals_l1_of_coupling_product(self, rng):
        for _ in range(20):
            spec = random_graph_spec(rng, num_nodes=6)
            C = spec.coupling()
            beta = rng.standard_normal(6)
            assert spec.value(beta) == pytest.approx(
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
                np.linalg.norm(z[a:b]) for a, b in C.row_blocks
            )
            assert spec.value(beta) == pytest.approx(best, rel=1e-10)

    def test_nonnegative_homogeneous_convex(self, rng):
        for _ in range(10):
            gspec = random_group_spec(rng, num_features=5)
            hspec = random_graph_spec(rng, num_nodes=5)
            for value in (
                lambda b: gspec.value(b),
                lambda b: hspec.value(b),
            ):
                b1, b2 = rng.standard_normal((2, 5))
                t = float(rng.uniform(0.1, 5.0))
                assert value(b1) >= 0.0
                assert value(t * b1) == pytest.approx(t * value(b1), rel=1e-10)
                mid = value(0.5 * (b1 + b2))
                assert mid <= 0.5 * (value(b1) + value(b2)) + 1e-10


class TestCouplingApply:
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
            dense = C.toarray()
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
    dense = coupling.toarray()
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
