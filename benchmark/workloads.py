"""The benchmark workloads.

Each workload makes its inputs from a seed, sets up a problem from in-memory
arrays (timed as ``setup_s``), makes one timed call into the package
(``solve_s``) and judges the answers with the benchmark's own objective code
against a reference optimum ``f*`` (``reference.py``).  The package is
reached through its module attributes at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

DEFAULT_SEED = 0


def fingerprint(*parts) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class Answer:
    """One answer of a timed call, judged against reference ``ref_index``.

    ``beta`` is the coefficient vector (or B^T) when the program returns one;
    otherwise ``objective`` is the value the program reported.  An answer
    that is not ``gated`` need not reach the accuracy gate, but must still be
    finite and must not undercut the certified lower bound.
    """

    status: str
    beta: np.ndarray | None = None
    objective: float | None = None
    ref_index: int = 0
    gated: bool = True


class Workload:
    name = ""
    why = ""

    def __init__(self, spx, tiny=False):
        self.spx = spx  # the imported package
        self.tiny = tiny  # small sizes, for the benchmark's own tests

    def inputs(self, seed):
        raise NotImplementedError

    def fingerprint(self, inputs) -> str:
        raise NotImplementedError

    def objectives(self, inputs):
        """Reference objectives, one per answer, in answer order."""
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def problem(self, inputs):
        """The problem one timed solve gets: a fresh set-up, because the
        package caches work on it (the multi-output Lipschitz constant)."""
        return self.setup(inputs)

    def solve(self, problem, inputs, max_iter=None):
        """The timed call; ``max_iter`` caps every solve (memory pass only)."""
        raise NotImplementedError

    def answers(self, result) -> list:
        raise NotImplementedError

    def iterations(self, result) -> dict:
        raise NotImplementedError

    def objective_traces(self, result) -> list:
        """``(ref_index, objectives per iteration)`` of each solve, as the
        program recorded them."""
        raise NotImplementedError


class OverlapPath(Workload):
    name = "overlap_path"
    why = "paper overlap design (N=1000, J=910, 10 groups): warm-started 8-lambda path, Gram loss, 250 iterations per lambda"
    lambdas = tuple(np.geomspace(40.0, 1.0, 8))
    gamma = 2.0
    budget = 250  # per lambda
    tiny_sizes = {"num_groups": 3, "group_size": 12, "overlap": 2, "num_samples": 50}

    def sizes(self):
        return self.tiny_sizes if self.tiny else {}

    def inputs(self, seed):
        spec = self.spx.simulate.OverlapSimSpec(seed=seed, gamma=self.gamma, **self.sizes())
        data, penalty, _ = self.spx.simulate.gen_overlap_instance(spec)
        return {"X": data.X, "y": data.y, "groups": penalty.groups}

    def fingerprint(self, inputs):
        return fingerprint(inputs["X"], inputs["y"], inputs["groups"])

    def objectives(self, inputs, lambdas=None):
        groups = inputs["groups"]
        s = ref.group_structure(groups, [1.0] * len(groups), self.gamma, inputs["X"].shape[1])
        base = ref.SquaredObjective(inputs["X"], inputs["y"], s, 0.0)
        return [base.with_lam(lam) for lam in lambdas or self.lambdas]

    def setup(self, inputs):
        spx = self.spx
        penalty = spx.penalties.GroupPenaltySpec.with_unit_weights(inputs["groups"], self.gamma)
        problem = spx.solver.Problem.least_squares(inputs["X"], inputs["y"], penalty)
        problem.loss.lipschitz()
        return problem

    def solve(self, problem, inputs, max_iter=None):
        # A fixed budget ends every solve, as in the other workloads: the
        # default stopping rule stops at seed-dependent points and, at seed
        # 23, at a 2.2e-3 gap.  250 per lambda reached <= 3.2e-4 at seeds 0-39.
        config = self.spx.solver.SolverConfig(epsilon=1e-3, rel_tol=1e-15, max_iter=max_iter or self.budget)
        return self.spx.solver.regularization_path(problem, self.lambdas, config)

    def answers(self, result):
        return [Answer(trace.status, beta=beta, ref_index=i) for i, (_, beta, trace) in enumerate(result)]

    def iterations(self, result):
        return {"solver": sum(len(trace) for _, _, trace in result)}

    def objective_traces(self, result):
        return [(i, trace.objectives) for i, (_, _, trace) in enumerate(result)]


class GraphMulti(Workload):
    name = "graph_multi"
    why = "paper multi-output design (K=30, J=200, N=200, 435 edges): matrix iterates, fixed 900-iteration budget"
    gamma = 5.0
    mu = 1e-3
    budget = 900

    def inputs(self, seed):
        sizes = {"num_outputs": 30, "num_features": 200, "num_samples": 200, "block_sizes": (10, 10, 10)}
        if self.tiny:
            sizes = {"num_outputs": 6, "num_features": 20, "num_samples": 40, "block_sizes": (2, 2, 2)}
        spec = self.spx.simulate.GraphSimSpec(rho=0.5, gamma=self.gamma, seed=seed, **sizes)
        problem, _, penalty = self.spx.simulate.gen_graph_instance(spec)
        lam = 0.3 * float(np.abs(problem.X.T @ problem.Y).max())
        return {"X": problem.X, "Y": problem.Y, "edges": penalty.edges, "lam": lam}

    def fingerprint(self, inputs):
        return fingerprint(inputs["X"], inputs["Y"], inputs["edges"], inputs["lam"])

    def objectives(self, inputs):
        K = inputs["Y"].shape[1]
        s = ref.graph_structure(inputs["edges"], self.gamma, K)
        return [ref.SquaredObjective(inputs["X"], inputs["Y"], s, inputs["lam"])]

    def setup(self, inputs):
        spx = self.spx
        K = inputs["Y"].shape[1]
        penalty = spx.penalties.GraphPenaltySpec(K, inputs["edges"], self.gamma)
        return spx.multivariate.MultiProblem(inputs["X"], inputs["Y"], penalty)

    def solve(self, problem, inputs, max_iter=None):
        # rel_tol is set so low that the fixed budget ends every solve: the
        # default stopping rule fires at seed-dependent iterations (415-950 at
        # seeds 0-4), which would make solve_s measure the seed, not the code
        config = self.spx.solver.SolverConfig(
            lam=inputs["lam"], mu=self.mu, rel_tol=1e-15, max_iter=max_iter or self.budget
        )
        return self.spx.multivariate.solve_multivariate(problem, config)

    def answers(self, result):
        B, trace = result
        return [Answer(trace.status, beta=np.asarray(B).T)]

    def iterations(self, result):
        return {"solver": len(result[1])}

    def objective_traces(self, result):
        return [(0, result[1].objectives)]


class CliBenchOverlap(Workload):
    """``smoothprox simulate`` writes the CSV instance (this is ``setup_s``);
    the timed call is ``smoothprox bench``: CSV load, proxgrad and FOBOS,
    each for the fixed budget of 1000 iterations."""

    name = "cli_bench_overlap"
    why = "CLI end to end on the overlap design: CSV parse, then 1000 proxgrad and 1000 FOBOS subgradient iterations"
    lam = 2.0
    gamma = 2.0

    def __init__(self, spx, workdir, tiny=False):
        super().__init__(spx, tiny)
        self.overlap = OverlapPath(spx, tiny)
        self.dir = Path(workdir)
        self.report = self.dir / "report.json"

    def instance_dir(self, inputs):
        return self.dir / f"seed-{inputs['seed']}"

    def inputs(self, seed):
        return {**self.overlap.inputs(seed), "seed": seed}

    def fingerprint(self, inputs):
        return self.overlap.fingerprint(inputs)

    def objectives(self, inputs):
        return self.overlap.objectives(inputs, lambdas=[self.lam])

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.spx.cli.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"smoothprox {argv[0]} exited with {code}")

    def setup(self, inputs):
        out = self.instance_dir(inputs)
        argv = ["simulate", "overlap", "--seed", str(inputs["seed"]), "--out-dir", str(out)]
        if self.overlap.sizes():
            spec = self.dir / "spec.json"
            spec.write_text(json.dumps(self.overlap.sizes()))
            argv += ["--spec", str(spec)]
        self._cli(argv)
        return out

    def problem(self, inputs):
        """``bench`` reads the instance afresh on every call, so one written
        instance serves every solve."""
        out = self.instance_dir(inputs)
        return out if (out / "meta.json").is_file() else self.setup(inputs)

    def check_instance(self, inputs):
        """The CSV files must parse back to the generator's arrays exactly."""
        out = self.instance_dir(inputs)
        X = np.loadtxt(out / "X.csv", delimiter=",", ndmin=2)
        y = np.loadtxt(out / "y.csv", delimiter=",", ndmin=2)[:, 0]
        return np.array_equal(X, inputs["X"]) and np.array_equal(y, inputs["y"])

    def solve(self, problem, inputs, max_iter=None):
        if self.report.exists():
            self.report.unlink()
        self._cli([
            "bench", "--instance", str(problem), "--lambda", str(self.lam), "--gamma", str(self.gamma),
            "--mu", "1e-4", "--max-iter", str(max_iter or 1000), "--rel-tol", "1e-15",
            "--report", str(self.report),
        ])
        return json.loads(self.report.read_text())

    def answers(self, result):
        methods = {m["name"]: m for m in result["methods"]}
        prox, fobos = methods["proxgrad"], methods["fobos"]
        # FOBOS is the slow O(1/eps^2) baseline, so it is not gated
        return [
            Answer(prox["status"], objective=prox["objective"]),
            Answer(fobos["status"], objective=fobos["objective"], gated=False),
        ]

    def iterations(self, result):
        methods = {m["name"]: m for m in result["methods"]}
        return {"solver": methods["proxgrad"]["iterations"], "fobos": methods["fobos"]["iterations"]}

    def objective_traces(self, result):
        return []  # the bench report has no per-iteration objectives


def make(name, spx, workdir, tiny=False):
    table = {w.name: w for w in (OverlapPath, GraphMulti)}
    if name == CliBenchOverlap.name:
        return CliBenchOverlap(spx, workdir, tiny)
    if name not in table:
        raise KeyError(f"unknown workload {name!r}")
    return table[name](spx, tiny)


NAMES = (OverlapPath.name, GraphMulti.name, CliBenchOverlap.name)
