import numpy as np
import pytest
import scipy.sparse as sp

from smoothprox import (
    CouplingMatrix,
    GraphPenaltySpec,
    GroupPenaltySpec,
    select_mu,
)
from smoothprox.solver import DEFAULT_MU
from conftest import (
    alpha_star,
    block_bounds,
    central_difference_gradient,
    penalty_value,
    random_graph_spec,
    random_group_spec,
)


def single_group_spec(gamma=1.0, weight=1.0):
    return GroupPenaltySpec(groups=((0, 1),), weights=(weight,), gamma=gamma)


class TestDualDomainBound:
    def test_group_count(self, rng):
        spec = GroupPenaltySpec.with_unit_weights(
            tuple((i,) for i in range(10)), 1.0
        )
        assert spec.coupling(10).dual_bound == 5.0

    def test_edge_count(self):
        spec = GraphPenaltySpec(
            num_nodes=5,
            edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)),
            gamma=1.0,
        )
        assert spec.coupling().dual_bound == 2.0

    def test_single_group(self):
        assert single_group_spec().coupling(2).dual_bound == 0.5


class TestSelectMu:
    def test_formula(self):
        assert select_mu(0.01, 5.0) == pytest.approx(0.001)

    def test_epsilon_twice_bound(self):
        assert select_mu(6.0, 3.0) == pytest.approx(1.0)

    def test_default(self):
        assert select_mu() == DEFAULT_MU == 1e-4

    def test_no_lower_clamp(self):
        """The paper's multi-output design has D = 200 * 435 / 2: a tiny
        epsilon gets its own mu, below 1e-12, not a clamped one."""
        assert select_mu(1e-8, 43500.0) == 1e-8 / 87000.0

    def test_underflow_is_an_error(self):
        with pytest.raises(ValueError, match="underflows to 0"):
            select_mu(5e-324, 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            select_mu(-1.0, 5.0)
        with pytest.raises(ValueError):
            select_mu(1.0, 0.0)


class TestAlphaStar:
    def test_group_projects_large_block(self):
        alpha = alpha_star(single_group_spec().coupling(2), [3.0, 4.0], 1.0)
        np.testing.assert_allclose(alpha, [0.6, 0.8])

    def test_group_interior_unchanged(self):
        alpha = alpha_star(single_group_spec().coupling(2), [0.1, 0.0], 1.0)
        np.testing.assert_allclose(alpha, [0.1, 0.0])

    def test_group_zero(self):
        alpha = alpha_star(single_group_spec().coupling(2), np.zeros(2), 1.0)
        np.testing.assert_allclose(alpha, np.zeros(2))

    def test_graph_clipping(self):
        spec = GraphPenaltySpec(
            num_nodes=4,
            edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
            gamma=1.0,
        )
        beta = np.array([1.5, 0.0, 3.0, 2.6])  # C beta = (1.5, -3, 0.4)
        np.testing.assert_allclose(
            alpha_star(spec.coupling(), beta, 1.0), [1.0, -1.0, 0.4]
        )

    def test_feasibility(self, rng):
        for _ in range(20):
            gspec = random_group_spec(rng, num_features=6)
            C = gspec.coupling(6)
            alpha = alpha_star(C, rng.standard_normal(6) * 3, 0.3)
            for a, b in block_bounds(C):
                assert np.linalg.norm(alpha[a:b]) <= 1.0 + 1e-12
            hspec = random_graph_spec(rng, num_nodes=6)
            alpha = alpha_star(hspec.coupling(), rng.standard_normal(6) * 3, 0.3)
            assert np.all(np.abs(alpha) <= 1.0 + 1e-12)


class TestSmoothValue:
    def test_zero_beta(self):
        C = single_group_spec().coupling(2)
        assert C.smoothed_values(np.zeros(2), 1.0)[1] == 0.0

    def test_projected_block_value(self):
        C = single_group_spec().coupling(2)
        # alpha* = (0.6, 0.8): value 5 - 0.5
        assert C.smoothed_values([3.0, 4.0], 1.0)[1] == pytest.approx(4.5)

    def test_sandwich_bound(self, rng):
        for _ in range(50):
            if rng.uniform() < 0.5:
                spec = random_group_spec(rng, num_features=7)
                J = 7
            else:
                spec = random_graph_spec(rng, num_nodes=7)
                J = 7
            mu = float(rng.uniform(1e-4, 1.0))
            C = spec.coupling(J)
            beta = rng.standard_normal(J) * rng.uniform(0.1, 5.0)
            exact = penalty_value(spec, beta)
            smooth = C.smoothed_values(beta, mu)[1]
            assert smooth <= exact + 1e-10
            assert smooth >= exact - mu * C.dual_bound - 1e-10

    def test_monotone_in_mu(self, rng):
        spec = random_group_spec(rng, num_features=5)
        beta = rng.standard_normal(5)
        values = [
            spec.coupling(5).smoothed_values(beta, mu)[1]
            for mu in (1e-4, 1e-2, 0.1, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestSmoothGradient:
    def test_zero_beta(self):
        C = single_group_spec().coupling(2)
        np.testing.assert_allclose(C.smoothed_gradient(np.zeros(2), 1.0), np.zeros(2))

    def test_single_group_gradient(self):
        C = single_group_spec().coupling(2)
        np.testing.assert_allclose(C.smoothed_gradient([3.0, 4.0], 1.0), [0.6, 0.8])

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            spec = random_group_spec(rng, num_features=6)
            C = spec.coupling(6)
            beta = rng.standard_normal(6)
            h = 1e-5 * (1.0 + np.abs(beta).max())
            fd = central_difference_gradient(lambda b: C.smoothed_values(b, 0.2)[1], beta, h)
            np.testing.assert_allclose(C.smoothed_gradient(beta, 0.2), fd, rtol=1e-6, atol=1e-8)

    def test_gradient_lipschitz(self, rng):
        spec = random_group_spec(rng, num_features=6, unit_weights=True)
        mu = 0.05
        C = spec.coupling(6)
        L = C.norm_bound ** 2 / mu
        for _ in range(20):
            b1, b2 = rng.standard_normal((2, 6)) * 2
            lhs = np.linalg.norm(C.smoothed_gradient(b1, mu) - C.smoothed_gradient(b2, mu))
            assert lhs <= L * np.linalg.norm(b1 - b2) + 1e-12


class TestCouplingNorms:
    def test_group_overlap(self):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        assert spec.coupling(3).norm_bound == pytest.approx(np.sqrt(2.0))

    def test_disjoint_groups(self):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (2, 3)), 1.0)
        assert spec.coupling(4).norm_bound == pytest.approx(1.0)

    def test_gamma_homogeneity(self):
        base = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        doubled = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 2.0)
        assert doubled.coupling(3).norm_bound == pytest.approx(
            2.0 * base.coupling(3).norm_bound
        )

    def test_group_matches_power_iteration(self, rng):
        for _ in range(20):
            spec = random_group_spec(rng, num_features=8)
            est = spec.coupling(8).spectral_norm()
            assert est.converged
            assert spec.coupling(8).norm_bound == pytest.approx(est.value, rel=1e-6)

    def test_graph_single_edge_tight(self):
        spec = GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.0)
        bound = spec.coupling().norm_bound
        assert bound == pytest.approx(np.sqrt(2.0))
        exact = np.linalg.svd(spec.coupling().matrix.toarray(), compute_uv=False)[0]
        assert bound == pytest.approx(exact, rel=1e-12)

    def test_graph_weighted_degrees(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, -0.5)), gamma=1.0
        )
        assert spec.coupling().norm_bound == pytest.approx(np.sqrt(2.5))

    def test_star_graph(self):
        k = 5
        spec = GraphPenaltySpec(
            num_nodes=k + 1, edges=tuple((0, i, 1.0) for i in range(1, k + 1)), gamma=1.0
        )
        assert spec.coupling().norm_bound == pytest.approx(np.sqrt(2.0 * k))

    def test_graph_bound_dominates_power_iteration(self, rng):
        for _ in range(20):
            spec = random_graph_spec(rng, num_nodes=7)
            est = spec.coupling().spectral_norm()
            assert spec.coupling().norm_bound >= est.value - 1e-6


class TestPowerIteration:
    def test_scalar(self):
        spec = GroupPenaltySpec(groups=((0,),), weights=(2.0,), gamma=3.0)
        est = spec.coupling(1).spectral_norm()
        assert est.value == pytest.approx(6.0)

    def test_chain_graph(self):
        spec = GraphPenaltySpec(
            num_nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)), gamma=1.0
        )
        est = spec.coupling().spectral_norm()
        assert est.value == pytest.approx(np.sqrt(3.0), rel=1e-6)

    @pytest.mark.parametrize("C, rows", [
        (GraphPenaltySpec(num_nodes=2, edges=((0, 1, 0.0),), gamma=1.0).coupling(), 1),
        (CouplingMatrix(sp.csr_matrix((0, 4))), 0),
    ], ids=["zero-edge", "no-rows"])
    def test_zero_coupling(self, C, rows):
        """A graph whose only edge has r = 0 stores no entries, and a C with no
        rows has none to store; the norm is 0."""
        assert (C.rows, C.nnz) == (rows, 0)
        est = C.spectral_norm()
        assert (est.value, est.converged) == (0.0, True)

    def test_nonconvergence_flagged(self):
        spec = GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
        est = spec.coupling(3).spectral_norm(tol=0.0, max_iter=3)
        assert not est.converged


def _coupling_case(kind, rng):
    """``(spec, J)`` with couplings the kernels branch on: row blocks, one row
    per edge, an all-zero row (an edge with r = 0), and no rows at all."""
    if kind == "group":
        return random_group_spec(rng, 7), 7
    if kind == "graph":
        return random_graph_spec(rng, 6), 6
    if kind == "graph-zero-edge":
        return GraphPenaltySpec(5, ((0, 1, 0.8), (1, 3, 0.0), (2, 4, -0.5)), 1.3), 5
    return GraphPenaltySpec(4, (), 1.0), 4  # "empty": a 0 x 4 coupling


@pytest.mark.parametrize("num_inputs", [0, 3], ids=["vector", "matrix"])
@pytest.mark.parametrize("kind", ["group", "graph", "graph-zero-edge", "empty"])
def test_kernels_match_their_definitions(kind, num_inputs, rng):
    """``alpha_star`` is the blockwise projection of ``C beta / mu`` onto the
    unit balls, ``smoothed_gradient`` is ``C^T alpha*``, and
    ``smoothed_values`` gives the spec's exact value and the Huber sum over
    block norms, computed here by loops over the blocks from a dense C.  mu is
    the median block norm, so blocks fall on both sides of the ball's
    boundary."""
    spec, J = _coupling_case(kind, rng)
    coupling = spec.coupling(J)
    beta = rng.standard_normal((num_inputs, J) if num_inputs else J)
    beta[..., 0] = 0.0
    C = coupling.matrix.toarray()
    Z = C @ np.atleast_2d(beta).T  # rows x inputs
    blocks = [(a, b, k) for a, b in block_bounds(coupling) for k in range(Z.shape[1])]
    norms = [float(np.linalg.norm(Z[a:b, k])) for a, b, k in blocks]
    mu = float(np.median(norms)) if norms else 0.4
    alpha = np.zeros_like(Z)
    huber = 0.0
    for (a, b, k), n in zip(blocks, norms):
        alpha[a:b, k] = Z[a:b, k] / mu / max(1.0, n / mu)
        huber += n * n / (2.0 * mu) if n <= mu else n - mu / 2.0
    if not num_inputs:
        alpha = alpha[:, 0]
    np.testing.assert_allclose(alpha_star(coupling, beta, mu), alpha, rtol=1e-13, atol=1e-15)
    gradient = coupling.smoothed_gradient(beta, mu)
    np.testing.assert_allclose(gradient, (C.T @ alpha).T, rtol=1e-12, atol=1e-14)
    assert gradient.shape == beta.shape
    f0, f_mu = coupling.smoothed_values(beta, mu)
    assert f0 == pytest.approx(penalty_value(spec, beta), rel=1e-13, abs=1e-300)
    assert f0 == pytest.approx(sum(norms), rel=1e-13, abs=1e-300)
    assert f_mu == pytest.approx(huber, rel=1e-13, abs=1e-300)
    if kind == "empty":
        assert (f0, f_mu) == (0.0, 0.0)
        assert not gradient.any()


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("kernel", ["smoothed_values", "smoothed_gradient"])
def test_kernels_reject_non_positive_mu(kernel, mu):
    for coupling in (single_group_spec().coupling(2), GraphPenaltySpec(2, ((0, 1, 1.0),), 1.0).coupling()):
        with pytest.raises(ValueError):
            getattr(coupling, kernel)(np.ones(2), mu)


@pytest.mark.parametrize("mu", [0.5, 1.0, 5e-324])
def test_graph_clip_bounds_keep_the_bits(mu):
    """The graph kernels clip ``C beta`` with 0-d array bounds; that clip has
    the bits of the clip with float bounds on ties at +-mu, signed zeros,
    NaN, infinities and subnormals, and so does the gradient built on it."""
    tie = np.nextafter(mu, np.inf)
    z = np.array([mu, -mu, tie, -tie, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 3.0])
    expected = np.clip(z, -mu, mu)
    assert np.clip(z, np.array(-mu), np.array(mu), out=np.empty_like(z)).tobytes() == expected.tobytes()
    C = CouplingMatrix(sp.identity(z.size, format="csr"))
    for beta in (z, np.vstack([z, -z])):  # a 1-d and a 2 x J iterate
        with np.errstate(invalid="ignore", over="ignore"):
            reference = C.apply_transpose(np.clip(C.apply(beta), -mu, mu))
            reference /= mu
            assert C.smoothed_gradient(beta, mu).tobytes() == reference.tobytes()
