import argparse
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import smoothprox
from smoothprox import GroupPenaltySpec, penalty_to_json
from smoothprox.cli import _build_parser, _load_matrix, cli_main, main
from conftest import MALFORMED_PENALTY_IDS, MALFORMED_PENALTY_JSON, loss_value, penalty_value


def write_csv(path, arr):
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


@pytest.fixture
def toy_instance(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 4))
    beta = np.array([1.0, -1.0, 0.0, 0.0])
    y = X @ beta + 0.05 * rng.standard_normal(20)
    write_csv(tmp_path / "X.csv", X)
    write_csv(tmp_path / "y.csv", y[:, None])
    spec = GroupPenaltySpec.with_unit_weights(((0, 1), (2, 3)), 0.5)
    (tmp_path / "penalty.json").write_text(penalty_to_json(spec))
    return tmp_path


class TestSolveCommand:
    def test_lasso_roundtrip(self, toy_instance, capsys):
        out = toy_instance / "beta.csv"
        rc = cli_main(
            [
                "solve",
                "--x", str(toy_instance / "X.csv"),
                "--y", str(toy_instance / "y.csv"),
                "--lambda", "0.1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        beta = np.loadtxt(out, delimiter=",")
        assert beta.shape == (4,)
        assert "status=converged" in capsys.readouterr().out

    def test_penalized_with_trace(self, toy_instance):
        out = toy_instance / "beta.csv"
        trace_path = toy_instance / "trace.jsonl"
        rc = cli_main(
            [
                "solve",
                "--x", str(toy_instance / "X.csv"),
                "--y", str(toy_instance / "y.csv"),
                "--penalty", str(toy_instance / "penalty.json"),
                "--lambda", "0.1",
                "--mu", "1e-4",
                "--out", str(out),
                "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[0])["header"]["mu"] == 1e-4
        assert json.loads(lines[-1])["status"] == "converged"

    def test_trace_header_names_the_method(self, toy_instance):
        trace_path = toy_instance / "trace.jsonl"
        assert cli_main(["solve", "--x", str(toy_instance / "X.csv"), "--y", str(toy_instance / "y.csv"),
                         "--lambda", "0.1", "--mu", "1e-2", "--max-iter", "3",
                         "--out", str(toy_instance / "beta.csv"), "--trace", str(trace_path)]) == 0
        header = json.loads(trace_path.read_text().splitlines()[0])["header"]
        assert header["method"] == "proxgrad"

    def test_trace_ends_with_the_run_summary(self, toy_instance, capsys):
        """The last line of a trace file is the summary ``solve`` prints; its
        ``iterations`` counts the iteration lines between header and summary."""
        trace_path = toy_instance / "trace.jsonl"
        rc = cli_main(["solve", "--x", str(toy_instance / "X.csv"), "--y", str(toy_instance / "y.csv"),
                       "--penalty", str(toy_instance / "penalty.json"), "--lambda", "0.1",
                       "--max-iter", "7", "--rel-tol", "0", "--out", str(toy_instance / "beta.csv"),
                       "--trace", str(trace_path)])
        assert rc == 0
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        last, iterations = lines[-1], lines[1:-1]
        assert set(last) == {"iterations", "objective", "nnz", "status"}
        assert last["iterations"] == len(iterations) == 7
        assert [line["t"] for line in iterations] == list(range(1, 8))
        assert (f"status=max_iter iterations=7 objective={last['objective']:.12g} nnz={last['nnz']}"
                in capsys.readouterr().out)

    def test_multioutput_inferred_from_y_shape(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((15, 3))
        Y = rng.standard_normal((15, 2))
        write_csv(tmp_path / "X.csv", X)
        write_csv(tmp_path / "y.csv", Y)
        out = tmp_path / "B.csv"
        rc = cli_main(
            [
                "solve",
                "--x", str(tmp_path / "X.csv"),
                "--y", str(tmp_path / "y.csv"),
                "--lambda", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert np.loadtxt(out, delimiter=",").shape == (3, 2)

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        rc = cli_main(
            [
                "solve",
                "--x", str(tmp_path / "missing.csv"),
                "--y", str(tmp_path / "missing.csv"),
                "--lambda", "0.1",
                "--out", str(tmp_path / "beta.csv"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
    def test_solver_error_exits_nonzero(self, tmp_path, capsys):
        """Entries whose squares overflow give an infinite Lipschitz constant,
        rejected before the first iteration: an error message and exit code
        1, not a traceback, and no numpy overflow warning before it."""
        X = np.full((4, 3), 1e200)
        X[0, 0] = 2e200
        write_csv(tmp_path / "X.csv", X)
        write_csv(tmp_path / "y.csv", np.ones((4, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(
                [
                    "solve",
                    "--x", str(tmp_path / "X.csv"),
                    "--y", str(tmp_path / "y.csv"),
                    "--lambda", "0.1",
                    "--out", str(tmp_path / "beta.csv"),
                ]
            )
        assert rc == 1
        assert capsys.readouterr().err == "error: non-finite Lipschitz constant L=inf\n"

    def test_nan_gamma_exits_nonzero(self, toy_instance, capsys):
        rc = cli_main(
            [
                "solve",
                "--x", str(toy_instance / "X.csv"),
                "--y", str(toy_instance / "y.csv"),
                "--penalty", str(toy_instance / "penalty.json"),
                "--gamma", "nan",
                "--lambda", "0.1",
                "--out", str(toy_instance / "beta.csv"),
            ]
        )
        assert rc == 1
        assert "error: gamma must be non-negative and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--mu", "1e-310"], ["--epsilon", "1e-320"]], ids=["mu", "epsilon"])
    def test_overflowing_lipschitz_constant_exits_nonzero(self, flag, tmp_path, capsys):
        """A subnormal mu makes ``L`` infinite; the run once printed
        ``status=converged iterations=2`` at the zero start and exited 0."""
        spec_path, inst = tmp_path / "spec.json", tmp_path / "inst"
        spec_path.write_text(json.dumps({"num_groups": 3, "group_size": 12, "overlap": 2, "num_samples": 50}))
        assert cli_main(["simulate", "overlap", "--seed", "0", "--spec", str(spec_path),
                         "--out-dir", str(inst)]) == 0
        rc = cli_main(["solve", "--x", str(inst / "X.csv"), "--y", str(inst / "y.csv"),
                       "--penalty", str(inst / "penalty.json"), "--lambda", "1", *flag,
                       "--out", str(tmp_path / "beta.csv")])
        captured = capsys.readouterr()
        assert rc == 1 and "status=" not in captured.out
        assert re.fullmatch(r"error: the Lipschitz constant L_loss \+ \|\|C\|\|\^2 / mu overflows "
                            r"at \|\|C\|\|=\S+, mu=\S+\n", captured.err)
        if flag[0] == "--mu":
            assert captured.err.endswith(", mu=1e-310\n")


class TestSimulateCommand:
    def test_overlap_outputs_and_determinism(self, tmp_path):
        spec = {"num_groups": 2, "num_samples": 30}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc = cli_main(
                ["simulate", "overlap", "--spec", str(spec_path),
                 "--seed", "5", "--out-dir", str(d)]
            )
            assert rc == 0
        for name in ("X.csv", "y.csv", "beta_true.csv", "penalty.json", "meta.json", "X.npy", "y.npy"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        meta = json.loads((d1 / "meta.json").read_text())
        assert meta["seed"] == 5 and meta["kind"] == "overlap"
        assert np.loadtxt(d1 / "X.csv", delimiter=",").shape == (30, 190)
        # the binaries hold the CSVs' numbers, bit for bit, a vector as one column
        for stem in ("X", "y"):
            parsed = np.loadtxt(d1 / f"{stem}.csv", delimiter=",", ndmin=2)
            assert np.load(d1 / f"{stem}.npy").tobytes() == parsed.tobytes()
            assert np.load(d1 / f"{stem}.npy").shape == parsed.shape

    def test_graph_outputs(self, tmp_path):
        d = tmp_path / "g"
        rc = cli_main(["simulate", "graph", "--out-dir", str(d)])
        assert rc == 0
        assert np.loadtxt(d / "y.csv", delimiter=",").shape == (100, 10)
        assert np.loadtxt(d / "B_true.csv", delimiter=",").shape == (30, 10)
        doc = json.loads((d / "penalty.json").read_text())
        assert doc["type"] == "graph"


@pytest.fixture
def small_overlap_instance(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_groups": 2, "num_samples": 40}))
    inst = tmp_path / "inst"
    assert cli_main(
        ["simulate", "overlap", "--spec", str(spec_path), "--out-dir", str(inst)]
    ) == 0
    return inst


class TestBenchCommand:
    def test_two_method_report(self, small_overlap_instance, tmp_path, capsys):
        inst = small_overlap_instance
        report_path = tmp_path / "report.json"
        rc = cli_main(
            [
                "bench",
                "--instance", str(inst),
                "--lambda", "1.0",
                "--max-iter", "300",
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        names = [m["name"] for m in report["methods"]]
        assert names == ["proxgrad", "fobos"]
        for m in report["methods"]:
            assert m["wall_time_s"] > 0
            assert m["iterations"] >= 1
            assert np.isfinite(m["objective"])
        out = capsys.readouterr().out
        assert "proxgrad:" in out and "fobos:" in out

    def test_shared_setup_is_outside_both_runs(self, small_overlap_instance, tmp_path,
                                               monkeypatch):
        """The loss and C are built before the first timed run, so proxgrad's
        wall time does not carry the set-up FOBOS then reuses."""
        import smoothprox.solver

        solve, built = smoothprox.solver.solve, []

        def checked_solve(problem, config):
            built.append({"loss", "coupling"} <= set(problem.__dict__))
            return solve(problem, config)

        monkeypatch.setattr(smoothprox.solver, "solve", checked_solve)
        report_path = tmp_path / "report.json"
        assert cli_main(["bench", "--instance", str(small_overlap_instance), "--lambda", "1.0",
                         "--max-iter", "20", "--report", str(report_path)]) == 0
        assert built == [True]
        setup_s = json.loads(report_path.read_text())["setup_s"]
        assert np.isfinite(setup_s) and setup_s >= 0


    def run_bench(self, inst, path, *extra):
        assert cli_main(["bench", "--instance", str(inst), "--lambda", "1.0", *extra,
                         "--report", str(path)]) == 0
        methods = json.loads(path.read_text())["methods"]
        return {m["name"]: {k: m[k] for k in ("iterations", "objective", "nnz", "status")}
                for m in methods}

    def test_fobos_ignores_mu(self, small_overlap_instance, tmp_path):
        """One settings record serves both methods: ``--mu`` sets proxgrad's
        smoothing and changes no number of FOBOS's run."""
        plain = self.run_bench(small_overlap_instance, tmp_path / "plain.json", "--max-iter", "50")
        smoothed = self.run_bench(small_overlap_instance, tmp_path / "mu.json", "--max-iter", "50",
                                  "--mu", "1e-1")
        assert smoothed["fobos"] == plain["fobos"]
        assert smoothed["proxgrad"] != plain["proxgrad"]

    def test_both_methods_read_max_iter_and_rel_tol(self, small_overlap_instance, tmp_path):
        report = self.run_bench(small_overlap_instance, tmp_path / "report.json",
                                "--max-iter", "13", "--rel-tol", "0")
        assert [(m["iterations"], m["status"]) for m in report.values()] == [(13, "max_iter")] * 2

    def test_binary_and_csv_instances_give_one_report(self, small_overlap_instance, tmp_path):
        """``bench`` reads the ``.npy`` files ``simulate`` writes, and the
        CSVs of an instance that has none, to the same numbers."""
        inst = small_overlap_instance
        binary = self.run_bench(inst, tmp_path / "binary.json", "--max-iter", "50")
        (inst / "X.npy").unlink()
        (inst / "y.npy").unlink()
        assert self.run_bench(inst, tmp_path / "csv.json", "--max-iter", "50") == binary

    def test_csv_edited_after_simulate_wins(self, small_overlap_instance, tmp_path):
        """A CSV newer than its ``.npy`` is read: the binary holds stale data."""
        inst = small_overlap_instance
        original = self.run_bench(inst, tmp_path / "original.json", "--max-iter", "50")
        X = np.loadtxt(inst / "X.csv", delimiter=",", ndmin=2)
        write_csv(inst / "X.csv", 2.0 * X)
        npy_time = (inst / "X.npy").stat().st_mtime_ns
        os.utime(inst / "X.csv", ns=(npy_time + 10**9, npy_time + 10**9))
        edited = self.run_bench(inst, tmp_path / "edited.json", "--max-iter", "50")
        (inst / "X.npy").unlink()
        assert edited == self.run_bench(inst, tmp_path / "csv.json", "--max-iter", "50")
        assert edited["proxgrad"]["objective"] != original["proxgrad"]["objective"]


class TestBinaryMatrices:
    def solve(self, x, y, out, *extra):
        assert cli_main(["solve", "--x", str(x), "--y", str(y), "--lambda", "1.0",
                         "--max-iter", "50", *extra, "--out", str(out)]) == 0

    def test_solve_reads_npy_as_its_csv(self, small_overlap_instance, tmp_path, capsys):
        inst = small_overlap_instance
        penalty = ["--penalty", str(inst / "penalty.json")]
        self.solve(inst / "X.npy", inst / "y.npy", tmp_path / "binary.csv", *penalty)
        binary = capsys.readouterr().out
        self.solve(inst / "X.csv", inst / "y.csv", tmp_path / "text.csv", *penalty)
        assert capsys.readouterr().out == binary
        assert (tmp_path / "binary.csv").read_bytes() == (tmp_path / "text.csv").read_bytes()

    def test_out_npy_round_trips(self, small_overlap_instance, tmp_path):
        """``--out beta.npy`` holds the CSV's numbers, a vector as one column,
        and reads back as the same matrix."""
        inst = small_overlap_instance
        for out in ("beta.npy", "beta.csv"):
            self.solve(inst / "X.csv", inst / "y.csv", tmp_path / out)
        text = np.loadtxt(tmp_path / "beta.csv", delimiter=",", ndmin=2)
        assert np.load(tmp_path / "beta.npy").tobytes() == text.tobytes()
        assert _load_matrix(tmp_path / "beta.npy").shape == text.shape == (190, 1)

    def test_graph_instance_gives_matrix_coefficients(self, graph_instance, tmp_path):
        """The graph instance's ``y.npy`` is N x K, so the coefficients are J x K."""
        assert np.load(graph_instance / "y.npy").shape == (100, 10)
        self.solve(graph_instance / "X.npy", graph_instance / "y.npy", tmp_path / "B.npy",
                   "--penalty", str(graph_instance / "penalty.json"))
        self.solve(graph_instance / "X.csv", graph_instance / "y.csv", tmp_path / "B.csv",
                   "--penalty", str(graph_instance / "penalty.json"))
        B = np.load(tmp_path / "B.npy")
        assert B.shape == (30, 10)
        assert np.array_equal(B, np.loadtxt(tmp_path / "B.csv", delimiter=","))

    def test_one_dimensional_npy_is_a_column(self, toy_instance, tmp_path):
        y = np.loadtxt(toy_instance / "y.csv", delimiter=",")
        np.save(tmp_path / "y.npy", y)
        assert _load_matrix(tmp_path / "y.npy").tobytes() == y.tobytes()
        assert _load_matrix(tmp_path / "y.npy").shape == (20, 1)

    REAL_NUMBERS = "array, expected a vector or matrix of real numbers"

    @pytest.mark.parametrize("write, message", [
        (lambda path: np.save(path, np.array([[1.0], [{}]], dtype=object), allow_pickle=True),
         "Object arrays cannot be loaded when allow_pickle=False"),
        (lambda path: path.write_bytes(pickle.dumps([[1.0], [2.0]])), "the magic string is not correct"),
        (lambda path: np.save(path, np.ones((20, 4)) + 1j), f"a 2-d complex128 {REAL_NUMBERS}"),
        (lambda path: np.save(path, np.full((20, 4), "1.0")), f"a 2-d <U3 {REAL_NUMBERS}"),
        (lambda path: np.save(path, np.ones((20, 4), dtype=bool)), f"a 2-d bool {REAL_NUMBERS}"),
    ], ids=["object", "pickled", "complex", "string", "bool"])
    def test_npy_of_no_real_numbers_is_an_error(self, write, message, toy_instance, tmp_path, capsys):
        """An error line and exit code 1: no traceback, no ComplexWarning from
        a cast that drops the imaginary part, no unpickling."""
        write(tmp_path / "X.npy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["solve", "--x", str(tmp_path / "X.npy"), "--y", str(toy_instance / "y.csv"),
                           "--lambda", "0.1", "--out", str(tmp_path / "beta.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'X.npy'}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "beta.csv").exists()


class TestPathCommand:
    def test_writes_one_file_per_lambda(self, toy_instance):
        out = toy_instance / "path"
        lambdas = ",".join(str(v) for v in np.geomspace(2.0, 0.01, 20))
        rc = cli_main(
            [
                "path",
                "--x", str(toy_instance / "X.csv"),
                "--y", str(toy_instance / "y.csv"),
                "--penalty", str(toy_instance / "penalty.json"),
                "--lambdas", lambdas,
                "--mu", "1e-4",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        files = sorted(out.glob("beta_*.csv"))
        assert len(files) == 20
        summary = json.loads((out / "path.json").read_text())
        assert len(summary) == 20
        assert summary[0]["lambda"] == pytest.approx(2.0)
        # sparsity relaxes as lambda decreases
        assert summary[-1]["nnz"] >= summary[0]["nnz"]

    def test_non_descending_lambdas_fail(self, toy_instance):
        rc = cli_main(
            [
                "path",
                "--x", str(toy_instance / "X.csv"),
                "--y", str(toy_instance / "y.csv"),
                "--lambdas", "1.0,1.0",
                "--out-dir", str(toy_instance / "p"),
            ]
        )
        assert rc == 1


def test_threads_set_before_numpy_loads(tmp_path):
    """``--threads`` sets the BLAS variables, and nothing loads numpy earlier."""
    code = (
        "import os, sys\n"
        "from smoothprox.cli import cli_main\n"
        "assert 'numpy' not in sys.modules, 'importing the CLI loaded numpy'\n"
        "rc = cli_main(['--threads', '2', 'simulate', 'overlap', '--spec', sys.argv[1], '--out-dir', sys.argv[2]])\n"
        "print(rc, 'numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_groups": 2, "group_size": 5, "overlap": 1, "num_samples": 10}))
    src = str(Path(smoothprox.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", code, str(spec), str(tmp_path / "instance")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split()[-4:] == ["0", "True", "2", "2"]


def test_console_entry_point_exits_with_the_return_code(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing.csv")
    monkeypatch.setattr(sys, "argv", ["smoothprox", "solve", "--x", missing, "--y", missing,
                                      "--lambda", "1.0", "--out", str(tmp_path / "beta.csv")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_path_without_lambdas_fails_cleanly(toy_instance, capsys):
    out = toy_instance / "p"
    rc = cli_main(
        [
            "path",
            "--x", str(toy_instance / "X.csv"),
            "--y", str(toy_instance / "y.csv"),
            "--lambdas", "",
            "--out-dir", str(out),
        ]
    )
    assert rc == 1
    assert "error: at least one lambda is required" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def graph_instance(tmp_path):
    inst = tmp_path / "graph"
    assert cli_main(["simulate", "graph", "--out-dir", str(inst)]) == 0
    return inst


class TestMultiOutputInstances:
    def test_bench(self, graph_instance, tmp_path):
        report_path = tmp_path / "report.json"
        rc = cli_main(
            ["bench", "--instance", str(graph_instance), "--lambda", "1.0", "--mu", "1e-3",
             "--max-iter", "200", "--report", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert [m["name"] for m in report["methods"]] == ["proxgrad", "fobos"]
        assert all(np.isfinite(m["objective"]) for m in report["methods"])

    def test_path_saves_matrices(self, graph_instance, tmp_path):
        out = tmp_path / "path"
        rc = cli_main(
            ["path", "--x", str(graph_instance / "X.csv"), "--y", str(graph_instance / "y.csv"),
             "--penalty", str(graph_instance / "penalty.json"), "--lambdas", "4.0,2.0,1.0",
             "--mu", "1e-3", "--max-iter", "200", "--out-dir", str(out)]
        )
        assert rc == 0
        files = sorted(out.glob("beta_*.csv"))
        assert len(files) == 3
        for f in files:
            assert np.loadtxt(f, delimiter=",").shape == (30, 10)

    def test_logistic_label_columns(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        write_csv(tmp_path / "X.csv", X)
        write_csv(tmp_path / "y.csv", np.where(rng.standard_normal((30, 3)) > 0, 1.0, -1.0))
        out = tmp_path / "B.csv"
        rc = cli_main(
            ["solve", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
             "--loss", "logistic", "--lambda", "0.5", "--out", str(out)]
        )
        assert rc == 0
        assert np.loadtxt(out, delimiter=",").shape == (4, 3)

    def test_edgeless_graph_with_epsilon(self, tmp_path):
        """A strong correlation threshold leaves the graph without edges."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"rho": 0.99}))
        inst = tmp_path / "inst"
        assert cli_main(["simulate", "graph", "--spec", str(spec_path), "--out-dir", str(inst)]) == 0
        assert json.loads((inst / "penalty.json").read_text())["edges"] == []
        common = ["solve", "--x", str(inst / "X.csv"), "--y", str(inst / "y.csv"),
                  "--lambda", "1.0", "--epsilon", "1e-3"]
        assert cli_main(common + ["--penalty", str(inst / "penalty.json"), "--out", str(tmp_path / "B.csv")]) == 0
        assert cli_main(common + ["--out", str(tmp_path / "B_free.csv")]) == 0
        assert (tmp_path / "B.csv").read_bytes() == (tmp_path / "B_free.csv").read_bytes()


def test_every_subcommand_keeps_its_flags_and_defaults():
    """Each option string of each subcommand, with its default and whether it
    is required."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(p):
        return {a.option_strings[-1] if a.option_strings else a.dest: (a.default, a.required)
                for a in p._actions if not isinstance(a, argparse._HelpAction)}

    loop = {"--gamma": (None, False), "--mu": (None, False),
            "--max-iter": (20000, False), "--rel-tol": (1e-6, False)}
    data = {"--x": (None, True), "--y": (None, True), "--penalty": (None, False)}
    assert options(parser) == {"--threads": (1, False), "command": (None, True)}
    assert {name: options(p) for name, p in sub.choices.items()} == {
        "solve": {**data, **loop, "--lambda": (None, True), "--epsilon": (None, False),
                  "--loss": ("squared", False), "--out": (None, True), "--trace": (None, False)},
        "simulate": {"kind": (None, True), "--spec": (None, False), "--seed": (None, False),
                     "--out-dir": (None, True)},
        "bench": {**loop, "--instance": (None, True), "--lambda": (None, True),
                  "--report": (None, True)},
        "path": {**data, **loop, "--lambdas": (None, True), "--out-dir": (None, True)},
    }


@pytest.mark.parametrize("value", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(value, tmp_path, monkeypatch):
    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for var in variables:
        monkeypatch.setenv(var, "3")
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--threads", value, "solve", "--x", missing, "--y", missing,
                  "--lambda", "1.0", "--out", str(tmp_path / "beta.csv")])
    assert exc.value.code == 2
    assert [os.environ[var] for var in variables] == ["3"] * 4


# the graph design's shares of relevant inputs, signal and input correlation
# are fixed numbers, not spec keys
REMOVED_GRAPH_KEYS = ("frac_within", "frac_two", "frac_three", "signal", "input_corr")


@pytest.mark.parametrize("kind, doc", [
    ("overlap", '{"bogus": 1}'), ("overlap", '{"num_groups": "3"}'), ("overlap", "[1]"),
    ("overlap", '{"num_samples": 2.5, "num_groups": 2}'), ("overlap", '{"seed": "a"}'),
    *(("graph", json.dumps({key: 0.5})) for key in REMOVED_GRAPH_KEYS),
    ("overlap", '{"num_samples": -1}'), ("overlap", '{"num_samples": 0}'), ("overlap", '{"seed": -1}'),
    ("graph", '{"block_sizes": [12, -2]}'), ("graph", '{"block_sizes": [0, 10]}'),
    ("graph", '{"num_features": 0}'), ("graph", '{"num_samples": -3}'), ("graph", '{"num_samples": 1}'),
    ("graph", '{"seed": -1}'), ("overlap", '{"gamma": -1}'), ("graph", '{"gamma": -1}'),
    ("graph", '{"num_outputs": 1, "block_sizes": [1]}'),
], ids=["unknown-key", "wrong-type", "not-an-object", "non-integer-count", "non-integer-seed",
        *(f"graph-{key}" for key in REMOVED_GRAPH_KEYS),
        "negative-samples", "no-samples", "negative-seed",
        "graph-negative-block", "graph-empty-block", "graph-no-features", "graph-negative-samples",
        "graph-one-sample", "graph-negative-seed", "negative-gamma", "graph-negative-gamma",
        "graph-one-output"])
def test_simulate_bad_spec_is_an_error(kind, doc, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(doc)
    rc = cli_main(["simulate", kind, "--spec", str(spec_path), "--out-dir", str(tmp_path / "inst")])
    assert rc == 1
    assert f"error: spec {spec_path}:" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("doc, field", MALFORMED_PENALTY_JSON, ids=MALFORMED_PENALTY_IDS)
def test_malformed_penalty_is_an_error(doc, field, toy_instance, capsys):
    """A penalty document of the wrong shape fails with ``error:`` and exit
    code 1, not a traceback."""
    (toy_instance / "penalty.json").write_text(doc)
    rc = cli_main(["solve", "--x", str(toy_instance / "X.csv"), "--y", str(toy_instance / "y.csv"),
                   "--penalty", str(toy_instance / "penalty.json"), "--lambda", "0.1",
                   "--out", str(toy_instance / "beta.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (toy_instance / "beta.csv").exists()


@pytest.mark.parametrize("flag, name, write, message", [
    ("--x", "X.csv", lambda path: path.write_text(""), "the file holds no numbers"),
    ("--x", "X.npy", lambda path: np.save(path, np.zeros(0)), "the file holds no numbers"),
    ("--x", "X.npy", lambda path: np.save(path, np.zeros((0, 3))), "the file holds no numbers"),
    ("--x", "X.csv", lambda path: path.write_text("1,2\n3\n"), None),
    ("--x", "X.csv", lambda path: path.write_text("1,2\nnan,4\n"), "the file holds a NaN or an infinity"),
    ("--y", "y.npy", lambda path: np.save(path, np.array([1.0, np.inf])), "the file holds a NaN or an infinity"),
], ids=["csv", "npy-vector", "npy-no-rows", "ragged-csv", "nan-in-csv-x", "inf-in-npy-y"])
def test_bad_matrix_file_is_one_error_line(flag, name, write, message, toy_instance, capsys):
    """A matrix file with no numbers, a ragged row or a NaN or an infinity is
    one error line that names the file, with no numpy warning before it.  A
    ragged row's reason is numpy's wording (``message`` None), which is left
    unchecked as it may differ between numpy versions."""
    path = toy_instance / name
    write(path)
    files = {"--x": toy_instance / "X.csv", "--y": toy_instance / "y.csv", flag: path}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["solve", "--x", str(files["--x"]), "--y", str(files["--y"]),
                       "--lambda", "0.1", "--out", str(toy_instance / "beta.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    if message is None:
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == f"error: {path}: {message}\n"
    assert not (toy_instance / "beta.csv").exists()


@pytest.mark.parametrize("command, args, penalty, line", [
    ("solve", ["--lambda", "1.0", "--max-iter", "0"], None,
     "error: max_iter must be positive, got 0"),
    ("solve", ["--lambda", "1.0"],
     '{"type": "group", "gamma": 1e300, "groups": [[1, 2]], "weights": [1e300]}',
     "error: C has a non-finite entry: a penalty's gamma times a group weight or an edge's |r| overflows"),
    ("path", ["--lambdas", "4.0,-1.0"], None,
     "error: lambda must be non-negative and finite, got -1.0"),
], ids=["zero-max-iter", "overflowing-penalty", "negative-lambda"])
def test_run_error_is_one_line(command, args, penalty, line, toy_instance, capsys):
    """A setting or penalty the library rejects before the first iteration
    gives exit code 1 and one error line, with no warning and no output."""
    if penalty is not None:
        (toy_instance / "penalty.json").write_text(penalty)
    out = {"solve": ["--out", str(toy_instance / "beta.csv")],
           "path": ["--out-dir", str(toy_instance / "path")]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main([command, "--x", str(toy_instance / "X.csv"), "--y", str(toy_instance / "y.csv"),
                       "--penalty", str(toy_instance / "penalty.json"), *args, *out])
    assert rc == 1
    assert capsys.readouterr().err == line + "\n"
    assert not (toy_instance / "beta.csv").exists()
    assert not (toy_instance / "path" / "beta_000.csv").exists()


def test_summary_reports_the_returned_coefficients():
    """FOBOS with steps that diverge returns its zero start: the summary gives
    that point's objective, not the best recorded iterate's.  X and y are
    scaled up 30x, so the step from the problem's shape overshoots."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 6))
    y = X @ np.array([1.0, 1.0, 0.0, 0.0, -1.0, 0.0]) + rng.standard_normal(40)
    spec = GroupPenaltySpec.with_unit_weights(((0, 1, 2), (2, 3, 4, 5)), 1.0)
    problem = smoothprox.Problem.least_squares(30.0 * X, 30.0 * y, spec)
    beta, trace = smoothprox.solve_fobos(
        problem, smoothprox.SolverConfig(lam=0.5, max_iter=20, rel_tol=0.0))
    summary = trace.summary()
    assert summary == {"iterations": 20, "objective": trace.final_objective, "nnz": 0,
                       "status": "max_iter"}
    assert summary["objective"] == pytest.approx(
        loss_value(problem.loss, beta) + penalty_value(spec, beta), rel=1e-10)


def test_path_entries_carry_the_run_summary(toy_instance):
    out = toy_instance / "path"
    assert cli_main(["path", "--x", str(toy_instance / "X.csv"), "--y", str(toy_instance / "y.csv"),
                     "--lambdas", "1.0,0.5", "--max-iter", "3", "--out-dir", str(out)]) == 0
    for entry in json.loads((out / "path.json").read_text()):
        assert set(entry) == {"index", "lambda", "iterations", "objective", "nnz", "status"}
        assert entry["status"] == "max_iter"


@pytest.mark.parametrize("command", ["solve", "path"])
def test_gamma_without_penalty_is_an_error(command, toy_instance, capsys):
    """``--gamma`` overrides the penalty spec's gamma; with no ``--penalty``
    there is none, so it fails rather than being ignored."""
    out = toy_instance / "out"
    args = {"solve": ["--lambda", "0.1", "--out", str(out)],
            "path": ["--lambdas", "0.2,0.1", "--out-dir", str(out)]}[command]
    rc = cli_main([command, "--x", str(toy_instance / "X.csv"), "--y", str(toy_instance / "y.csv"),
                   "--gamma", "5", *args])
    assert rc == 1
    assert "error: --gamma needs --penalty" in capsys.readouterr().err
    assert not out.exists()
