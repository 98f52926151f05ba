"""Command line interface: solve / simulate / bench / path.

Matrices and vectors travel as header-free CSV, penalty specs and reports as
JSON, solver traces as JSON-lines.  ``--threads`` caps BLAS threading (the
default of 1 keeps timings reproducible) and must act before numpy loads, so
heavy imports happen inside the handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _set_threads(n):
    """Set the BLAS thread variables; they act only if numpy is not loaded yet."""
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


def _load_matrix(path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", ndmin=2)


def _load_response(path):
    """The response: a vector from a one-column file, else an N x K matrix."""
    y = _load_matrix(path)
    return y[:, 0] if y.shape[1] == 1 else y


def _save_matrix(path, arr):
    """Write a matrix, or a vector as one column."""
    import numpy as np

    arr = np.asarray(arr, dtype=float)
    np.savetxt(path, arr.reshape(len(arr), -1), delimiter=",", fmt="%.17g")


def _load_penalty(path, gamma=None):
    import dataclasses

    from .penalties import penalty_from_json

    spec = penalty_from_json(Path(path).read_text())
    if gamma is not None:
        spec = dataclasses.replace(spec, gamma=float(gamma))
    return spec


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smoothprox",
        description="Structured sparse regression via smoothing proximal gradient.",
    )
    parser.add_argument("--threads", type=int, default=1, help="BLAS thread cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one problem instance")
    p.add_argument("--x", required=True, help="design matrix CSV (N x J)")
    p.add_argument("--y", required=True, help="response CSV (N, or N x K for multi-output)")
    p.add_argument("--penalty", help="penalty spec JSON")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, help="override the penalty spec's gamma")
    p.add_argument("--epsilon", type=float, help="target accuracy (sets mu)")
    p.add_argument("--mu", type=float, help="explicit smoothness parameter")
    p.add_argument("--loss", choices=("squared", "logistic"), default="squared")
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--out", required=True, help="output coefficients CSV")
    p.add_argument("--trace", help="output trace JSON-lines")

    p = sub.add_parser("simulate", help="generate a seeded synthetic instance")
    p.add_argument("kind", choices=("overlap", "graph"))
    p.add_argument("--spec", help="generator spec JSON (optional, defaults used otherwise)")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("bench", help="compare methods on a simulated instance")
    p.add_argument("--instance", required=True, help="directory written by simulate")
    p.add_argument("--methods", default="proxgrad,fobos")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, help="override the penalty spec's gamma")
    p.add_argument("--mu", type=float)
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--report", required=True, help="output report JSON")

    p = sub.add_parser("path", help="warm-started regularization path")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--penalty", help="penalty spec JSON")
    p.add_argument("--lambdas", required=True, help="comma-separated, strictly descending")
    p.add_argument("--gamma", type=float, help="override the penalty spec's gamma")
    p.add_argument("--mu", type=float)
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--out-dir", required=True)
    return parser


def _cmd_solve(args):
    from .solver import Problem, SolverConfig, solve

    X = _load_matrix(args.x)
    y = _load_response(args.y)
    penalty = _load_penalty(args.penalty, args.gamma) if args.penalty else None
    config = SolverConfig(
        lam=args.lam,
        epsilon=args.epsilon,
        mu=args.mu,
        max_iter=args.max_iter,
        rel_tol=args.rel_tol,
    )
    make = Problem.logistic if args.loss == "logistic" else Problem.least_squares
    coef, trace = solve(make(X, y, penalty), config)
    _save_matrix(args.out, coef)
    if args.trace:
        trace.write_jsonl(args.trace)
    print(
        f"status={trace.status} iterations={len(trace)} "
        f"objective={trace.objectives[-1]:.12g} nnz={trace.final_nnz}"
    )
    return 0


def _cmd_simulate(args):
    import dataclasses

    from .penalties import penalty_to_json
    from .simulate import GraphSimSpec, OverlapSimSpec, gen_graph_instance, gen_overlap_instance

    overrides = json.loads(Path(args.spec).read_text()) if args.spec else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.kind == "overlap":
        spec = OverlapSimSpec(**overrides)
        data, penalty, beta = gen_overlap_instance(spec)
        _save_matrix(out / "X.csv", data.X)
        _save_matrix(out / "y.csv", data.y)
        _save_matrix(out / "beta_true.csv", beta)
        meta = {"kind": "overlap", **dataclasses.asdict(spec)}
    else:
        spec = GraphSimSpec(**overrides)
        problem, B, penalty = gen_graph_instance(spec)
        _save_matrix(out / "X.csv", problem.X)
        _save_matrix(out / "y.csv", problem.Y)
        _save_matrix(out / "B_true.csv", B)
        meta = {"kind": "graph", **dataclasses.asdict(spec)}
    (out / "penalty.json").write_text(penalty_to_json(penalty))
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    print(f"wrote instance to {out}")
    return 0


def _cmd_bench(args):
    import time

    import numpy as np

    from .fobos import FobosConfig, default_c, solve_fobos
    from .solver import Problem, SolverConfig, solve

    inst = Path(args.instance)
    X = _load_matrix(inst / "X.csv")
    y = _load_response(inst / "y.csv")
    penalty = _load_penalty(inst / "penalty.json", args.gamma)
    meta = json.loads((inst / "meta.json").read_text()) if (inst / "meta.json").exists() else {}
    problem = Problem.least_squares(X, y, penalty)

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = {"instance": str(inst), "meta": meta, "lambda": args.lam,
              "gamma": penalty.gamma, "methods": []}
    for method in methods:
        start = time.perf_counter()
        if method == "proxgrad":
            cfg = SolverConfig(lam=args.lam, mu=args.mu,
                               max_iter=args.max_iter, rel_tol=args.rel_tol)
            coef, trace = solve(problem, cfg)
        elif method == "fobos":
            cfg = FobosConfig(lam=args.lam, c=default_c(*X.shape, *y.shape[1:]),
                              max_iter=args.max_iter, rel_tol=args.rel_tol)
            coef, trace = solve_fobos(problem, cfg)
        else:
            raise ValueError(f"unknown method {method!r}")
        report["methods"].append(
            {
                "name": method,
                "iterations": len(trace),
                "wall_time_s": time.perf_counter() - start,
                "objective": trace.objectives[-1] if method == "proxgrad"
                else min(trace.objectives),
                "nnz": int(np.count_nonzero(coef)),
                "status": trace.status,
            }
        )
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    for entry in report["methods"]:
        print(
            f"{entry['name']}: iterations={entry['iterations']} "
            f"time={entry['wall_time_s']:.3f}s objective={entry['objective']:.12g}"
        )
    return 0


def _cmd_path(args):
    from .solver import Problem, SolverConfig, regularization_path

    X = _load_matrix(args.x)
    y = _load_response(args.y)
    penalty = _load_penalty(args.penalty, args.gamma) if args.penalty else None
    lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]
    problem = Problem.least_squares(X, y, penalty)
    config = SolverConfig(mu=args.mu, max_iter=args.max_iter, rel_tol=args.rel_tol)
    results = regularization_path(problem, lambdas, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for i, (lam, beta, trace) in enumerate(results):
        _save_matrix(out / f"beta_{i:03d}.csv", beta)
        summary.append(
            {"index": i, "lambda": lam, "iterations": len(trace),
             "objective": trace.objectives[-1], "nnz": trace.final_nnz}
        )
    (out / "path.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {len(results)} solutions to {out}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "path": _cmd_path,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _set_threads(args.threads)
    from .solver import SolverError  # loads numpy, so only once the thread cap is set

    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
