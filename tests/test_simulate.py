import dataclasses
import math

import numpy as np
import pytest

from smoothprox import (
    GraphSimSpec,
    OverlapSimSpec,
    Problem,
    SquaredLoss,
    gen_graph_instance,
    gen_overlap_instance,
    overlap_groups,
    overlap_true_beta,
    threshold_correlation_graph,
)


class TestOverlapInstance:
    def test_default_dimensions(self):
        spec = OverlapSimSpec()
        assert spec.num_features == 910
        problem, penalty, beta = gen_overlap_instance(spec)
        assert problem.X.shape == (1000, 910)
        assert problem.y.shape == (1000,)
        assert beta.shape == (910,)
        assert len(penalty.groups) == 10

    def test_returns_a_least_squares_problem(self):
        problem, penalty, _ = gen_overlap_instance(OverlapSimSpec(num_groups=2, seed=0))
        assert isinstance(problem, Problem)
        assert problem.penalty is penalty
        assert "loss" not in vars(problem)  # built on first use, as for any problem
        assert isinstance(problem.loss, SquaredLoss)

    def test_group_layout(self):
        groups = overlap_groups(OverlapSimSpec())
        assert groups[0][:3] == (0, 1, 2)
        assert groups[1][0] == 90
        for a, b in zip(groups, groups[1:]):
            assert len(set(a) & set(b)) == 10
        assert sorted(set().union(*groups)) == list(range(910))

    def test_true_beta_values(self):
        beta = overlap_true_beta(910)
        assert beta[0] == pytest.approx(-1.0)
        assert beta[1] == pytest.approx(np.exp(-0.01))
        assert beta[2] == pytest.approx(-np.exp(-0.02))
        assert np.abs(beta[-1]) < np.abs(beta[0])
        assert (np.sign(beta) == (-1.0) ** np.arange(1, 911)).all()

    def test_seed_reproducibility(self):
        d1, _, _ = gen_overlap_instance(OverlapSimSpec(seed=7))
        d2, _, _ = gen_overlap_instance(OverlapSimSpec(seed=7))
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.y, d2.y)
        d3, _, _ = gen_overlap_instance(OverlapSimSpec(seed=8))
        assert not np.array_equal(d1.X, d3.X)

    def test_noise_added(self):
        problem, _, beta = gen_overlap_instance(OverlapSimSpec(num_groups=2, seed=0))
        residual = problem.y - problem.X @ beta
        assert residual.std() == pytest.approx(1.0, abs=0.1)

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            OverlapSimSpec(group_size=10, overlap=10)

    def test_no_groups(self):
        with pytest.raises(ValueError, match="num_groups must be positive"):
            OverlapSimSpec(num_groups=0)


class TestGraphInstance:
    def test_default_dimensions(self):
        prob, B, penalty = gen_graph_instance(GraphSimSpec())
        assert prob.X.shape == (100, 30)
        assert prob.Y.shape == (100, 10)
        assert B.shape == (30, 10)
        assert penalty.num_nodes == 10

    def test_planted_signal_amplitude(self):
        _, B, _ = gen_graph_instance(GraphSimSpec())
        values = np.unique(B)
        assert set(values) <= {0.0, 0.8}
        assert (B == 0.8).any()

    def test_block_supports_shared_within_block(self):
        spec = GraphSimSpec()
        _, B, _ = gen_graph_instance(spec)
        bounds = np.concatenate(([0], np.cumsum(spec.block_sizes)))
        for i in range(len(spec.block_sizes)):
            block = B[:, bounds[i] : bounds[i + 1]]
            # every output inside one block has the same support
            support = block != 0.0
            assert (support == support[:, :1]).all()

    def test_correlated_blocks_produce_edges(self):
        _, _, penalty = gen_graph_instance(GraphSimSpec())
        assert len(penalty.edges) > 0
        for m, l, r in penalty.edges:
            assert 0 <= m < l < 10
            assert abs(r) >= 0.3

    def test_seed_reproducibility(self):
        p1, B1, g1 = gen_graph_instance(GraphSimSpec(seed=3))
        p2, B2, g2 = gen_graph_instance(GraphSimSpec(seed=3))
        np.testing.assert_array_equal(p1.X, p2.X)
        np.testing.assert_array_equal(p1.Y, p2.Y)
        np.testing.assert_array_equal(B1, B2)
        assert g1 == g2

    def test_block_size_mismatch(self):
        with pytest.raises(ValueError):
            GraphSimSpec(block_sizes=(5, 6))

    def test_one_output_is_an_error(self):
        # a one-output correlation graph has no edges, and its N x 1 response
        # would read back from CSV as a vector
        with pytest.raises(ValueError, match="num_outputs must be at least 2, got 1"):
            GraphSimSpec(num_outputs=1, block_sizes=(1,))

    def test_fractional_block_size(self):
        with pytest.raises(ValueError, match="block_sizes must be integers"):
            GraphSimSpec(block_sizes=(3, 3, 4.0))

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.5], ids=["zero", "negative", "above-one"])
    def test_rho_must_be_in_the_half_open_unit_interval(self, rho):
        with pytest.raises(ValueError, match=r"rho must be in \(0, 1\]"):
            GraphSimSpec(rho=rho)

    def test_rho_one_keeps_only_perfect_correlations(self):
        """The spec accepts every rho ``threshold_correlation_graph`` accepts."""
        prob, _, penalty = gen_graph_instance(GraphSimSpec(rho=1.0))
        assert penalty.num_nodes == prob.Y.shape[1]
        assert all(abs(r) >= 1.0 for _, _, r in penalty.edges)

    def test_fields_are_sizes_threshold_gamma_and_seed(self):
        """The shares of relevant inputs, the signal and the input correlation
        are fixed numbers of the design, not settings."""
        assert [f.name for f in dataclasses.fields(GraphSimSpec)] == [
            "num_outputs", "num_features", "num_samples", "block_sizes", "rho", "gamma", "seed"]


class TestThresholdCorrelationGraph:
    def test_identical_columns_get_unit_edge(self, rng):
        col = rng.standard_normal(50)
        Y = np.column_stack([col, col])
        penalty = threshold_correlation_graph(Y, 0.3)
        assert len(penalty.edges) == 1
        m, l, r = penalty.edges[0]
        assert (m, l) == (0, 1)
        assert r == pytest.approx(1.0)

    def test_threshold_above_max_correlation_gives_no_edges(self, rng):
        Y = rng.standard_normal((200, 4))
        max_abs = np.abs(np.corrcoef(Y, rowvar=False) - np.eye(4)).max()
        penalty = threshold_correlation_graph(Y, min(0.999, max_abs + 0.01))
        assert penalty.edges == ()

    def test_edges_match_manual_correlations(self, rng):
        Y = rng.standard_normal((80, 5))
        Y[:, 1] = Y[:, 0] + 0.1 * rng.standard_normal(80)
        rho = 0.5
        penalty = threshold_correlation_graph(Y, rho)
        corr = np.corrcoef(Y, rowvar=False)
        expected = {
            (m, l): corr[m, l]
            for m in range(5)
            for l in range(m + 1, 5)
            if abs(corr[m, l]) >= rho
        }
        got = {(m, l): r for m, l, r in penalty.edges}
        assert set(got) == set(expected)
        for key in got:
            assert got[key] == pytest.approx(expected[key], rel=1e-12)

    def test_anticorrelated_columns_get_negative_weight(self, rng):
        col = rng.standard_normal(50)
        Y = np.column_stack([col, -col])
        penalty = threshold_correlation_graph(Y, 0.3)
        assert penalty.edges[0][2] == pytest.approx(-1.0)

    def test_constant_column_excluded_with_warning(self, rng):
        Y = np.column_stack([rng.standard_normal(30), np.full(30, 2.0)])
        with pytest.warns(RuntimeWarning):
            penalty = threshold_correlation_graph(Y, 0.1)
        assert penalty.edges == ()

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            threshold_correlation_graph(np.ones((1, 3)), 0.3)

    def test_one_output_is_a_node_without_edges(self, rng):
        penalty = threshold_correlation_graph(rng.standard_normal((20, 1)), 0.3)
        assert (penalty.num_nodes, penalty.edges) == (1, ())

    def test_nan_response_is_degenerate(self, rng):
        Y = rng.standard_normal((20, 3))
        Y[4, 1] = math.nan
        with pytest.raises(ValueError, match="degenerate correlation matrix"):
            threshold_correlation_graph(Y, 0.3)
        with pytest.raises(ValueError, match="degenerate correlation matrix"):
            threshold_correlation_graph(Y[:, 1:2], 0.3)

    @pytest.mark.parametrize("rho", [math.nan, 1.5, -0.5, 0.0, math.inf, True, "0.5", None],
                             ids=["nan", "above-one", "negative", "zero", "inf", "bool", "str", "none"])
    def test_rho_must_be_a_real_number_in_unit_interval(self, rng, rho):
        with pytest.raises(ValueError, match="rho must be a real number in"):
            threshold_correlation_graph(rng.standard_normal((20, 3)), rho)

    @pytest.mark.parametrize("rho", [1, 1.0, np.float64(0.5)], ids=["int-one", "one", "numpy"])
    def test_rho_accepts_reals_up_to_one(self, rng, rho):
        Y = rng.standard_normal((20, 3))
        Y[:, 1] = Y[:, 0]
        corr = np.corrcoef(Y, rowvar=False)
        penalty = threshold_correlation_graph(Y, rho)
        expected = [(m, l) for m in range(3) for l in range(m + 1, 3) if abs(corr[m, l]) >= rho]
        assert [(m, l) for m, l, _ in penalty.edges] == expected
