"""Command line interface: solve / simulate / bench / path.

Matrices and vectors travel as ``.npy`` for a path with that suffix, which
reads a hundred times faster than CSV, and as header-free CSV otherwise;
penalty specs and reports travel as JSON, solver traces as JSON-lines.
``--threads`` caps BLAS threading (the default of 1 keeps timings
reproducible) and must act before numpy loads, so heavy imports happen
inside the handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
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
    """A C-ordered float matrix from ``path``, a vector as one column: ``.npy``
    by suffix, whose dtype must be a real number (an int or a float), and
    header-free CSV otherwise.  A file that does not parse, holds no numbers
    or holds a NaN or an infinity is a ValueError naming it."""
    import numpy as np

    if Path(path).suffix != ".npy":
        with warnings.catch_warnings():  # an empty file is the error below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                arr = np.loadtxt(path, delimiter=",", ndmin=2)
            except ValueError as exc:  # a ragged row or a word; numpy's hint names a numpy argument
                raise ValueError(f"{path}: {str(exc).split('; use `usecols`')[0]}") from exc
    else:
        with open(path, "rb") as f:
            try:  # a .npy file only: no pickle, no object array, no .npz archive
                arr = np.lib.format.read_array(f, allow_pickle=False)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        if arr.dtype.kind not in "iuf" or arr.ndim not in (1, 2):
            raise ValueError(f"{path}: a {arr.ndim}-d {arr.dtype} array, "
                             f"expected a vector or matrix of real numbers")
        arr = np.ascontiguousarray(arr, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
    if arr.size == 0:
        raise ValueError(f"{path}: the file holds no numbers")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: the file holds a NaN or an infinity")
    return arr


def _save_matrix(path, arr):
    """Write a matrix, or a vector as one column, in the format
    ``_load_matrix`` reads from ``path``."""
    import numpy as np

    arr = np.asarray(arr, dtype=float).reshape(len(arr), -1)
    if Path(path).suffix == ".npy":
        np.save(path, arr)
    else:
        np.savetxt(path, arr, delimiter=",", fmt="%.17g")


def _instance_matrix(inst, stem):
    """``<stem>.npy`` in the instance directory ``inst`` unless it is missing
    or older than ``<stem>.csv`` (a CSV edited after ``simulate`` wrote both
    wins), else ``<stem>.csv``."""
    csv, npy = inst / f"{stem}.csv", inst / f"{stem}.npy"
    try:
        fresh = npy.stat().st_mtime_ns >= csv.stat().st_mtime_ns
    except FileNotFoundError:
        fresh = npy.exists()
    return npy if fresh else csv


def _load_problem(x, y, penalty=None, gamma=None, loss="squared"):
    """The problem in the files ``x`` and ``y`` (a one-column ``y`` is a
    vector response, else N x K) and the optional penalty spec JSON
    ``penalty``, whose gamma ``gamma`` overrides when given; a ``gamma``
    without a ``penalty`` is an error, as it would have nothing to act on."""
    import dataclasses

    from .penalties import penalty_from_json
    from .solver import Problem

    if gamma is not None and not penalty:
        raise ValueError("--gamma needs --penalty: without a penalty spec it has no effect")
    X, Y = _load_matrix(x), _load_matrix(y)
    spec = None
    if penalty:
        spec = penalty_from_json(Path(penalty).read_text())
        if gamma is not None:
            spec = dataclasses.replace(spec, gamma=float(gamma))
    make = Problem.logistic if loss == "logistic" else Problem.least_squares
    return make(X, Y[:, 0] if Y.shape[1] == 1 else Y, spec)


def _config(args, lam, epsilon=None):
    from .solver import SolverConfig

    return SolverConfig(lam=lam, epsilon=epsilon, mu=args.mu,
                        max_iter=args.max_iter, rel_tol=args.rel_tol)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smoothprox",
        description="Structured sparse regression via smoothing proximal gradient.",
    )
    parser.add_argument("--threads", type=int, default=1, help="BLAS thread cap (at least 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--x", required=True, help="design matrix (N x J): .npy by suffix, else CSV")
    data.add_argument("--y", required=True, help="response (N, or N x K for multi-output): .npy by suffix, else CSV")
    data.add_argument("--penalty", help="penalty spec JSON")
    loop = argparse.ArgumentParser(add_help=False)
    loop.add_argument("--gamma", type=float, help="override the penalty spec's gamma")
    loop.add_argument("--mu", type=float, help="explicit smoothness parameter")
    loop.add_argument("--max-iter", type=int, default=20000)
    loop.add_argument("--rel-tol", type=float, default=1e-6)

    p = sub.add_parser("solve", parents=[data, loop], help="solve one problem instance")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, help="target accuracy (sets mu)")
    p.add_argument("--loss", choices=("squared", "logistic"), default="squared")
    p.add_argument("--out", required=True, help="output coefficients: .npy by suffix, else CSV")
    p.add_argument("--trace", help="output trace JSON-lines")

    p = sub.add_parser("simulate", help="generate a seeded synthetic instance")
    p.add_argument("kind", choices=("overlap", "graph"))
    p.add_argument("--spec", help="generator spec JSON (optional, defaults used otherwise)")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("bench", parents=[loop], help="run proxgrad, then fobos, on a simulated instance")
    p.add_argument("--instance", required=True, help="directory written by simulate")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--report", required=True, help="output report JSON")

    p = sub.add_parser("path", parents=[data, loop], help="warm-started regularization path")
    p.add_argument("--lambdas", required=True, help="comma-separated, strictly descending")
    p.add_argument("--out-dir", required=True)
    return parser


def _cmd_solve(args):
    from .solver import solve

    problem = _load_problem(args.x, args.y, args.penalty, args.gamma, args.loss)
    coef, trace = solve(problem, _config(args, args.lam, args.epsilon))
    _save_matrix(args.out, coef)
    if args.trace:
        trace.write_jsonl(args.trace)
    s = trace.summary()
    print(f"status={s['status']} iterations={s['iterations']} "
          f"objective={s['objective']:.12g} nnz={s['nnz']}")
    return 0


def _cmd_simulate(args):
    import dataclasses

    from .penalties import penalty_to_json
    from .simulate import GraphSimSpec, OverlapSimSpec, gen_graph_instance, gen_overlap_instance

    overrides = json.loads(Path(args.spec).read_text()) if args.spec else {}
    seed = {} if args.seed is None else {"seed": args.seed}
    try:  # a spec that is not an object, or has an unknown key or a wrong or out-of-range value
        spec = (OverlapSimSpec if args.kind == "overlap" else GraphSimSpec)(**{**overrides, **seed})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"spec {args.spec}: {exc}") from exc
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.kind == "overlap":
        problem, penalty, truth = gen_overlap_instance(spec)
    else:
        problem, truth, penalty = gen_graph_instance(spec)
    _save_matrix(out / "X.csv", problem.X)
    _save_matrix(out / "y.csv", problem.y)
    _save_matrix(out / ("beta_true.csv" if args.kind == "overlap" else "B_true.csv"), truth)
    # written after the CSVs, so ``bench`` finds them no older and reads them
    _save_matrix(out / "X.npy", problem.X)
    _save_matrix(out / "y.npy", problem.y)
    (out / "penalty.json").write_text(penalty_to_json(penalty))
    meta = {"kind": args.kind, **dataclasses.asdict(spec)}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    print(f"wrote instance to {out}")
    return 0


def _cmd_bench(args):
    import time

    from .fobos import solve_fobos
    from .solver import solve

    config = _config(args, args.lam)  # FOBOS reads its lam, max_iter and rel_tol
    inst = Path(args.instance)
    problem = _load_problem(_instance_matrix(inst, "X"), _instance_matrix(inst, "y"),
                            inst / "penalty.json", args.gamma)
    meta = json.loads((inst / "meta.json").read_text()) if (inst / "meta.json").exists() else {}
    # the loss (its Gram) and C serve both methods, so neither method's time
    # includes them; the Lipschitz constant, which only proxgrad reads, stays in
    start = time.perf_counter()
    problem.loss, problem.coupling
    report = {"instance": str(inst), "meta": meta, "lambda": args.lam,
              "gamma": problem.penalty.gamma, "setup_s": time.perf_counter() - start,
              "methods": []}
    for method, run in (("proxgrad", solve), ("fobos", solve_fobos)):
        start = time.perf_counter()
        _, trace = run(problem, config)
        report["methods"].append(
            {"name": method, "wall_time_s": time.perf_counter() - start, **trace.summary()}
        )
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    for entry in report["methods"]:
        print(
            f"{entry['name']}: iterations={entry['iterations']} "
            f"time={entry['wall_time_s']:.3f}s objective={entry['objective']:.12g}"
        )
    return 0


def _cmd_path(args):
    from .solver import regularization_path

    problem = _load_problem(args.x, args.y, args.penalty, args.gamma)
    lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]
    results = regularization_path(problem, lambdas, _config(args, 0.0))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for i, (lam, beta, trace) in enumerate(results):
        _save_matrix(out / f"beta_{i:03d}.csv", beta)
        summary.append({"index": i, "lambda": lam, **trace.summary()})
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
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    _set_threads(args.threads)
    from .solver import SolverError  # loads numpy, so only once the thread cap is set

    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, KeyError, SolverError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
