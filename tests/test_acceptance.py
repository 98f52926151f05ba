"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
together they cover the approximation gap, gradient and norm constants, the
prox and small-instance oracles, convergence ordering against the
subgradient baseline, the theoretical iteration bound, the multi-output
reduction, the qualitative sparsity-pattern comparison, and the CLI
round-trip.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

import smoothprox as spx
from smoothprox.cli import cli_main
from conftest import (
    central_difference_gradient,
    loss_gradient,
    loss_value,
    penalty_value,
    random_graph_spec,
    random_group_spec,
)


def _report(name, ok):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


def test_01_approximation_gap():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    ok = True
    for i in range(200):
        J = int(rng.integers(3, 12))
        if i % 2 == 0:
            spec = random_group_spec(rng, num_features=J)
        else:
            spec = random_graph_spec(rng, num_nodes=J)
        mu = float(rng.uniform(1e-4, 1.0))
        C = spec.coupling(J)
        beta = rng.standard_normal(J) * rng.uniform(0.1, 5.0)
        exact = penalty_value(spec, beta)
        smooth = C.smoothed_values(beta, mu)[1]
        ok &= smooth <= exact + 1e-10
        ok &= smooth >= exact - mu * C.dual_bound - 1e-10
    ok &= (time.perf_counter() - start) < 5.0
    _report("01 approximation-gap", ok)


def test_02_smoothed_gradient():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    J, N = 8, 30
    gspec = random_group_spec(rng, num_features=J)
    hspec = random_graph_spec(rng, num_nodes=J)
    X = rng.standard_normal((N, J))
    y_sq = rng.standard_normal(N)
    y_lg = np.sign(rng.standard_normal(N))
    y_lg[y_lg == 0] = 1.0
    losses = [
        spx.SquaredLoss(X, y_sq),
        spx.LogisticLoss(X, y_lg),
    ]
    max_rel = 0.0
    for loss in losses:
        for spec in (gspec, hspec):
            C = spec.coupling(J)
            h_value = lambda b: loss_value(loss, b) + C.smoothed_values(b, 0.1)[1]
            h_grad = lambda b: loss_gradient(loss, b) + C.smoothed_gradient(b, 0.1)
            for _ in range(25):
                beta = rng.standard_normal(J)
                fd = central_difference_gradient(h_value, beta, 1e-6)
                g = h_grad(beta)
                max_rel = max(
                    max_rel,
                    float(np.abs(g - fd).max() / max(1.0, np.abs(g).max())),
                )
    ok = max_rel < 1e-5 and (time.perf_counter() - start) < 30.0
    _report("02 smoothed-gradient", ok)


def test_03_norm_constants():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(50):
        spec = random_group_spec(rng, num_features=int(rng.integers(3, 12)))
        J = max(max(g) for g in spec.groups) + 1
        est = spec.coupling(J).spectral_norm()
        closed = spec.coupling(J).norm_bound
        ok &= abs(closed - est.value) <= 1e-6 * max(1.0, est.value)
    for _ in range(50):
        spec = random_graph_spec(rng, num_nodes=int(rng.integers(3, 12)))
        est = spec.coupling().spectral_norm()
        ok &= spec.coupling().norm_bound >= est.value - 1e-6
    single = spx.GraphPenaltySpec(num_nodes=2, edges=((0, 1, 1.0),), gamma=1.5)
    exact = np.linalg.svd(single.coupling().matrix.toarray(), compute_uv=False)[0]
    ok &= abs(single.coupling().norm_bound - exact) <= 1e-6
    _report("03 norm-constants", ok)


def test_04_prox_oracle():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        v = float(rng.uniform(-5.0, 5.0))
        thr = float(rng.uniform(0.0, 3.0))
        obj = lambda x: 0.5 * (x - v) ** 2 + thr * abs(x)
        grid = np.linspace(-6.0, 6.0, 4001)
        best = grid[np.argmin([obj(x) for x in grid])]
        res = minimize_scalar(obj, bounds=(best - 0.01, best + 0.01), method="bounded")
        oracle = res.x if obj(res.x) <= obj(0.0) else 0.0
        got = float(spx.soft_threshold([v], thr)[0])
        ok &= abs(got - oracle) <= 1e-8
        if abs(v) <= thr:
            ok &= got == 0.0
    _report("04 prox-oracle", ok)


def _objective(prob, spec, lam, beta):
    val = loss_value(prob.loss, beta) + lam * float(np.abs(beta).sum())
    if spec is not None:
        val += penalty_value(spec, beta)
    return val


def test_05a_lasso_reference():
    rng = np.random.default_rng(50)
    X = rng.standard_normal((40, 8))
    bt = np.zeros(8)
    bt[:3] = 1.0
    y = X @ bt + 0.1 * rng.standard_normal(40)
    prob = spx.Problem.least_squares(X, y)
    L = prob.loss.lipschitz()
    ok = True
    for lam in (1.0, 0.3, 0.1):
        beta, _ = spx.solve(prob, spx.SolverConfig(lam=lam, rel_tol=1e-15, max_iter=100000))
        # independent plain FISTA on the same problem
        b = np.zeros(8)
        w = b.copy()
        theta = 1.0
        for t in range(100000):
            grad = X.T @ (X @ w - y)
            v = w - grad / L
            b_next = np.sign(v) * np.maximum(0.0, np.abs(v) - lam / L)
            theta_next = 2.0 / (t + 3.0)
            w = b_next + (1.0 - theta) / theta * theta_next * (b_next - b)
            if np.abs(b_next - b).max() < 1e-15:
                b = b_next
                break
            b, theta = b_next, theta_next
        ok &= abs(_objective(prob, None, lam, beta) - _objective(prob, None, lam, b)) <= 1e-10
    _report("05a lasso-reference", ok)


def test_05b_disjoint_group_bcd_reference():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((50, 10))
    bt = np.zeros(10)
    bt[:3] = 1.0
    y = X @ bt + 0.2 * rng.standard_normal(50)
    groups = ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    spec = spx.GroupPenaltySpec.with_unit_weights(groups, 1.5)
    prob = spx.Problem.least_squares(X, y, spec)
    beta, _ = spx.solve(
        prob, spx.SolverConfig(lam=0.0, mu=1e-7, rel_tol=1e-14, max_iter=500000)
    )
    f_ours = _objective(prob, spec, 0.0, beta)

    # proximal block-coordinate reference: per-block ISTA steps to a fixed point
    b = np.zeros(10)
    blocks = [np.array(g) for g in groups]
    Ls = [np.linalg.eigvalsh(X[:, g].T @ X[:, g]).max() for g in blocks]
    f_prev = np.inf
    for _ in range(200000):
        for g, Lg in zip(blocks, Ls):
            grad_g = X[:, g].T @ (X @ b - y)
            v = b[g] - grad_g / Lg
            norm = np.linalg.norm(v)
            b[g] = v * max(0.0, 1.0 - spec.gamma / (Lg * norm)) if norm > 0 else 0.0
        f = _objective(prob, spec, 0.0, b)
        if abs(f - f_prev) < 1e-14:
            break
        f_prev = f
    f_ref = _objective(prob, spec, 0.0, b)
    ok = abs(f_ours - f_ref) <= 1e-4 * max(1.0, abs(f_ref))
    _report("05b disjoint-group-bcd", ok)


def test_05c_chain_fused_signal_reference():
    rng = np.random.default_rng(52)
    J = 8
    y = np.concatenate([np.full(3, 2.0), np.full(3, -1.0), np.full(2, 0.5)])
    y += 0.3 * rng.standard_normal(J)
    gamma = 0.7
    spec = spx.GraphPenaltySpec(
        num_nodes=J, edges=tuple((i, i + 1, 1.0) for i in range(J - 1)), gamma=gamma
    )
    prob = spx.Problem.least_squares(np.eye(J), y, spec)
    beta, _ = spx.solve(
        prob, spx.SolverConfig(lam=0.0, mu=1e-7, rel_tol=1e-14, max_iter=500000)
    )
    f_ours = _objective(prob, spec, 0.0, beta)

    # epigraph QP reference: min 0.5||x-y||^2 + gamma * sum t,  t_i >= |x_i+1 - x_i|
    def pack_obj(z):
        x, t = z[:J], z[J:]
        return 0.5 * np.sum((x - y) ** 2) + gamma * np.sum(t)

    cons = []
    for i in range(J - 1):
        cons.append({"type": "ineq", "fun": lambda z, i=i: z[J + i] - (z[i + 1] - z[i])})
        cons.append({"type": "ineq", "fun": lambda z, i=i: z[J + i] + (z[i + 1] - z[i])})
    z0 = np.concatenate([y, np.abs(np.diff(y)) + 0.1])
    res = minimize(pack_obj, z0, method="SLSQP", constraints=cons,
                   options={"maxiter": 2000, "ftol": 1e-14})
    f_ref = pack_obj(res.x)
    ok = res.success and abs(f_ours - f_ref) <= 1e-3 * max(1.0, abs(f_ref))
    _report("05c chain-fused-reference", ok)


def test_06_convergence_ordering():
    start = time.perf_counter()
    prob, pen, _ = spx.gen_overlap_instance(spx.OverlapSimSpec(seed=0, gamma=2.0))
    lam = 2.0
    beta_ref, _ = spx.solve(
        prob,
        spx.SolverConfig(lam=lam, mu=1e-4, rel_tol=1e-12, max_iter=1000000),
    )
    target = 1.001 * _objective(prob, pen, lam, beta_ref)

    _, tr_p = spx.solve(prob, spx.SolverConfig(lam=lam, mu=1e-4))
    obj_p = np.array(tr_p.objectives)
    hit_p = (obj_p <= target).any()
    it_p = int(np.argmax(obj_p <= target)) + 1 if hit_p else np.inf
    time_p = tr_p.elapsed[it_p - 1] if hit_p else np.inf

    _, tr_f = spx.solve_fobos(prob, spx.SolverConfig(lam=lam, rel_tol=1e-12))
    obj_f = np.array(tr_f.objectives)
    hit_f = (obj_f <= target).any()
    it_f = int(np.argmax(obj_f <= target)) + 1 if hit_f else np.inf
    time_f = tr_f.elapsed[it_f - 1] if hit_f else np.inf

    elapsed = time.perf_counter() - start
    ok = hit_p and it_p < it_f and time_p < time_f and elapsed < 120.0
    _report("06 convergence-ordering", ok)


def test_07_iteration_bound():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((60, 20))
    bt = np.zeros(20)
    bt[:6] = 1.0
    y = X @ bt + 0.2 * rng.standard_normal(60)
    spec = spx.GroupPenaltySpec.with_unit_weights(
        (tuple(range(0, 8)), tuple(range(6, 14)), tuple(range(12, 20))), 1.0
    )
    prob = spx.Problem.least_squares(X, y, spec)
    lam = 0.5
    coupling = spec.coupling(20)
    D, norm_c = coupling.dual_bound, coupling.norm_bound
    loss_L = prob.loss.lipschitz()

    beta_ref, _ = spx.solve(
        prob, spx.SolverConfig(lam=lam, mu=1e-8, rel_tol=1e-15, max_iter=500000)
    )
    f_star = _objective(prob, spec, lam, beta_ref)
    d0 = np.linalg.norm(beta_ref)  # beta0 = 0

    epsilons = (1e-1, 1e-2, 1e-3)
    iters = []
    ok = True
    for eps in epsilons:
        mu = spx.select_mu(eps, D)
        _, tr = spx.solve(
            prob, spx.SolverConfig(lam=lam, mu=mu, rel_tol=1e-16, max_iter=200000)
        )
        obj = np.array(tr.objectives)
        hit = (obj <= f_star + eps).any()
        t_eps = int(np.argmax(obj <= f_star + eps)) + 1 if hit else np.inf
        bound = spx.iteration_bound(d0, eps, loss_L, D, norm_c)
        ok &= hit and t_eps <= bound
        iters.append(t_eps)
    slope = np.polyfit(np.log(1.0 / np.array(epsilons)), np.log(iters), 1)[0]
    ok &= slope <= 1.2
    _report("07 iteration-bound", ok)


def test_08_multivariate_reduction():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(20):
        N, J = int(rng.integers(15, 40)), int(rng.integers(3, 10))
        X = rng.standard_normal((N, J))
        y = rng.standard_normal(N)
        spec = spx.GroupPenaltySpec.with_unit_weights(((0,),), 1.0)
        vec_spec = spx.GroupPenaltySpec.with_unit_weights(
            tuple((j,) for j in range(J)), 1.0
        )
        config = spx.SolverConfig(lam=0.3, mu=1e-3, rel_tol=1e-12)
        B, _ = spx.solve(spx.Problem.least_squares(X, y.reshape(-1, 1), spec), config)
        beta, _ = spx.solve(spx.Problem.least_squares(X, y, vec_spec), config)
        ok &= np.abs(B[:, 0] - beta).max() <= 1e-12

    # finite-difference check of the full smooth multivariate gradient
    J, K, N = 4, 3, 20
    X = rng.standard_normal((N, J))
    Y = rng.standard_normal((N, K))
    spec = spx.GroupPenaltySpec.with_unit_weights(((0, 1), (1, 2)), 1.0)
    C = spec.coupling(K)
    h_value = lambda v: (
        0.5 * np.sum((X @ v.reshape(J, K) - Y) ** 2) + C.smoothed_values(v.reshape(J, K), 0.1)[1]
    )
    B = rng.standard_normal((J, K))
    grad = (X.T @ (X @ B - Y) + C.smoothed_gradient(B, 0.1)).ravel()
    fd = central_difference_gradient(h_value, B.ravel(), 1e-6)
    ok &= np.abs(grad - fd).max() / max(1.0, np.abs(grad).max()) < 1e-5
    _report("08 multivariate-reduction", ok)


def test_09_fewer_false_positives():
    def fp_at_full_tp(B_hat, B_true):
        support = (B_true != 0.0).ravel()
        target = int(support.sum())
        order = np.argsort(-np.abs(B_hat).ravel())
        tp = fp = 0
        for idx in order:
            if support[idx]:
                tp += 1
            else:
                fp += 1
            if tp >= target:
                return fp
        return fp

    wins = 0
    for seed in range(10):
        prob, B_true, pen = spx.gen_graph_instance(
            spx.GraphSimSpec(seed=seed, gamma=5.0)
        )
        config = spx.SolverConfig(lam=5.0, mu=1e-3, rel_tol=1e-9, max_iter=8000)
        B_fused, _ = spx.solve(spx.Problem.least_squares(prob.X, prob.y, pen), config)
        B_lasso, _ = spx.solve(spx.Problem.least_squares(prob.X, prob.y, None), config)
        if fp_at_full_tp(B_fused, B_true) < fp_at_full_tp(B_lasso, B_true):
            wins += 1
    _report("09 fewer-false-positives", wins >= 8)


def test_10_cli_round_trip(tmp_path):
    spec = {"num_groups": 2, "num_samples": 60}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    ok = True
    objectives = []
    for run in ("a", "b"):
        inst = tmp_path / run
        ok &= cli_main(
            ["simulate", "overlap", "--spec", str(spec_path),
             "--seed", "0", "--out-dir", str(inst)]
        ) == 0
        trace_path = inst / "trace.jsonl"
        ok &= cli_main(
            ["solve",
             "--x", str(inst / "X.csv"), "--y", str(inst / "y.csv"),
             "--penalty", str(inst / "penalty.json"),
             "--lambda", "2.0", "--gamma", "2.0", "--mu", "1e-4",
             "--out", str(inst / "beta.csv"), "--trace", str(trace_path)]
        ) == 0
        ok &= cli_main(
            ["bench", "--instance", str(inst), "--lambda", "2.0",
             "--max-iter", "500", "--report", str(inst / "report.json")]
        ) == 0
        last = json.loads(trace_path.read_text().splitlines()[-1])
        ok &= last["status"] == "converged"
        objectives.append(
            json.loads(trace_path.read_text().splitlines()[-2])["f"]
        )
    for name in ("X.csv", "y.csv", "beta_true.csv", "penalty.json"):
        ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ok &= (tmp_path / "a" / "beta.csv").read_bytes() == (tmp_path / "b" / "beta.csv").read_bytes()
    ok &= abs(objectives[0] - objectives[1]) <= 1e-12 * max(1.0, abs(objectives[0]))
    _report("10 cli-round-trip", ok)
