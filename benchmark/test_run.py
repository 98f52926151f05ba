"""Self-checks of the benchmark (not part of the package's test suite).

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

spx = run.import_package()

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_overlap():
    wl = workloads.OverlapPath(spx, tiny=True)
    inputs = wl.inputs(1)
    objs = wl.objectives(inputs)
    return wl, inputs, objs, run.compute_references(objs, run.RUNTIME_TOL)


class Perturbed(workloads.OverlapPath):
    """The tiny overlap workload with its answers altered after the solve."""

    def __init__(self, alter):
        super().__init__(spx, tiny=True)
        self.alter = alter

    def solve(self, problem, inputs, max_iter=None):
        return [self.alter(lam, beta, trace) for lam, beta, trace in super().solve(problem, inputs, max_iter)]


def perturb_beta(lam, beta, trace):
    return lam, beta + 0.5, trace


def error_status(lam, beta, trace):
    trace.status = "error"
    return lam, beta, trace


@pytest.mark.parametrize("alter", [perturb_beta, error_status])
def test_bad_answers_count_as_failures(alter):
    _, inputs, objs, refs = tiny_overlap()
    sampler = run.Sampler(Perturbed(alter), inputs, refs, objs)
    assert not sampler.one()
    assert (sampler.attempted, sampler.failed) == (1, 1)


def test_unaltered_answers_pass():
    wl, inputs, objs, refs = tiny_overlap()
    sampler = run.Sampler(wl, inputs, refs, objs)
    assert sampler.one(), sampler.reasons
    assert (sampler.attempted, sampler.failed) == (1, 0)
    assert max(sampler.gaps) <= run.GATE


def test_objective_below_certified_lower_bound_fails():
    _, _, objs, refs = tiny_overlap()
    answer = workloads.Answer("converged", objective=refs[0].lower * (1 - 1e-6))
    ok, _, reasons = run.judge([answer], refs, objs)
    assert not ok and "lower bound" in reasons[0]


def test_iterations_to_gate_counts_until_the_recorded_objective_passes():
    refs = [ref.Reference(100.0, 99.0, 0, 0.0, 0.0, None)]
    assert run.iterations_to_gate([(0, [130.0, 100.2, 100.05, 100.0])], refs) == 3
    assert run.iterations_to_gate([(0, [130.0, 120.0])] * 2, refs) == 4


def test_reference_brackets_the_package_optimum():
    _, inputs, objs, refs = tiny_overlap()
    problem = spx.solver.Problem.least_squares(inputs["X"], inputs["y"], spx.penalties.GroupPenaltySpec.with_unit_weights(inputs["groups"], 2.0))
    lam = workloads.OverlapPath.lambdas[-1]
    beta, _ = spx.solver.solve(problem, spx.solver.SolverConfig(lam=lam, mu=1e-6, rel_tol=1e-14, max_iter=200_000))
    f = ref.exact_objective(objs[-1], beta)
    assert refs[-1].lower <= f
    assert (f - refs[-1].upper) / refs[-1].upper < 1e-5
    assert refs[-1].lower <= refs[-1].upper


def test_changed_generator_output_fails_loudly(tmp_path, monkeypatch):
    frozen = json.loads(run.REFERENCES.read_text())
    frozen["workloads"]["overlap_path"]["sha256"] = "0" * 64
    fake = tmp_path / "references.json"
    fake.write_text(json.dumps(frozen))
    monkeypatch.setattr(run, "REFERENCES", fake)
    wl = workloads.OverlapPath(spx)
    inputs = wl.inputs(1)
    with pytest.raises(SystemExit) as exc:
        run.references_for(wl, inputs, 1, [], tiny=False)
    assert exc.value.code == 3


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in out)
        assert np.isfinite(result["metrics"][name]["value"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "overlap_path", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
