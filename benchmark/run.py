"""smoothprox benchmark: time to a 1e-3-accurate solution, per workload.

    python3 benchmark/run.py --workload overlap_path --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures untraced and traced calls and prints the per-layer
metrics.  Every timed answer is judged against a reference optimum ``f*``:
frozen in ``references.json`` for the default seed, otherwise computed
(untimed) by the benchmark's own solver in ``reference.py``.  Human-readable
lines come first; the last line of stdout is the JSON result.
``--freeze`` recomputes ``references.json``.  See ``NOTES.md``.
"""

import os

# BLAS reads these once, when numpy loads, so they are set before any import
# that could load numpy.  (``smoothprox --threads`` cannot do this: the
# package's ``__init__`` imports numpy before the CLI parses its arguments.)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
GATE = 1e-3  # an answer counts only if (f - f*) / |f*| <= GATE
RUNTIME_TOL = 1e-5  # reference accuracy when computed at run time ...
FROZEN_TOL = 1e-8  # ... and when frozen
MIN_SAMPLES = 3
# setup_s is timed on the inputs of these seeds, whatever --seed is: the set-up
# of the overlap design runs a power iteration whose length depends on the
# data (0.08 s to 0.37 s at seeds 0-29), which would make setup_s measure the
# seed.  A set-up sample repeats the panel until it lasts SETUP_BATCH_S.
SETUP_SEEDS = (0, 1, 2, 3)
SETUP_BATCH_S = 0.05
# The memory pass runs under tracemalloc, which slows the Python edge loops
# of the graph penalty about 7x; it therefore caps each solve at this many
# iterations.  A FISTA iteration allocates the same temporaries every time,
# so the peak is reached in set-up or in the first iterations.
MEMORY_PASS_ITERS = 25


# Timed calls take turns on the CPUs this process may use, one CPU per call.
# On a shared host other tenants slow one CPU at a time, for seconds to
# minutes; a process left on one CPU would measure that CPU's neighbours for
# the whole run.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(turn):
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import ``smoothprox`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "smoothprox" / "__init__.py").is_file():
        fail(f"no smoothprox package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    spx = importlib.import_module("smoothprox")
    if src.resolve() not in Path(spx.__file__).resolve().parents:
        fail(f"imported smoothprox from {spx.__file__}, not from {src}")
    for sub in ("cli", "fobos", "losses", "multivariate", "penalties", "simulate", "smoothing", "solver"):
        importlib.import_module(f"smoothprox.{sub}")
    return spx


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "timed_cpus": CPUS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- references and fingerprints -------------------------------------------

def load_frozen():
    try:
        return json.loads(REFERENCES.read_text())
    except (OSError, ValueError):
        return {"workloads": {}}


def compute_references(objs, tol):
    import reference as ref

    out, warm = [], None
    for obj in objs:
        r = ref.solve_reference(obj, b0=warm, tol=tol)
        warm = r.beta
        out.append(r)
    return out


def references_for(wl, inputs, seed, objs, tiny):
    """Frozen references for the default seed after checking that the
    generators still produce the frozen inputs; run-time ones otherwise."""
    import reference as ref
    import workloads

    if tiny:
        return compute_references(objs, RUNTIME_TOL), "computed at run time"
    frozen = load_frozen()["workloads"].get(wl.name)
    if frozen is None:
        fail(f"{REFERENCES.name} has no entry for {wl.name}; run with --freeze")
    default = inputs if seed == workloads.DEFAULT_SEED else wl.inputs(workloads.DEFAULT_SEED)
    digest = wl.fingerprint(default)
    if digest != frozen["sha256"]:
        fail(
            f"{wl.name}: inputs for seed {workloads.DEFAULT_SEED} hash to {digest}, but the "
            f"frozen references were made from {frozen['sha256']}; the generators changed, so "
            "this workload is no longer the one measured before (re-freeze in a change of its own)",
            code=3,
        )
    if seed == workloads.DEFAULT_SEED:
        stored = zip(frozen["f_star"], frozen["lower"], frozen["iterations"], frozen["mu_final"])
        return [ref.Reference(u, lo, its, mu, float("nan"), None) for u, lo, its, mu in stored], "frozen"
    return compute_references(objs, RUNTIME_TOL), "computed at run time"


# -- judging ---------------------------------------------------------------

def judge(answers, refs, objs):
    """Return (ok, rel gaps of gated answers, reasons)."""
    import numpy as np

    import reference as ref

    ok, gaps, reasons = True, [], []
    for a in answers:
        r = refs[a.ref_index]
        f = a.objective if a.beta is None else ref.exact_objective(objs[a.ref_index], a.beta)
        if a.status == "error" or f is None or not np.isfinite(f):
            ok = False
            reasons.append(f"status={a.status} objective={f}")
            continue
        if f < r.lower - 1e-9 * abs(r.lower):
            ok = False
            reasons.append(f"objective {f!r} undercuts the certified lower bound {r.lower!r}")
        if a.gated:
            gap = (f - r.upper) / abs(r.upper)
            gaps.append(gap)
            if gap > GATE:
                ok = False
                reasons.append(f"relative gap {gap:.3e} > {GATE:g}")
    return ok, gaps, reasons


def iterations_to_gate(traces, refs):
    """Iterations until the objective the program records first passes the
    gate, summed over the solves; a solve that never passes counts in full."""
    total = 0
    for index, objectives in traces:
        f_star = refs[index].upper
        passed = (k + 1 for k, f in enumerate(objectives) if (f - f_star) / abs(f_star) <= GATE)
        total += next(passed, len(objectives))
    return total


class Sampler:
    """Timed set-ups on the fixed panel and timed solves on the run's inputs;
    each solve is judged."""

    def __init__(self, wl, inputs, refs, objs, setup_inputs=()):
        self.wl, self.inputs, self.refs, self.objs = wl, inputs, refs, objs
        self.setup_inputs = list(setup_inputs)
        self.batch = None  # set-up repeats per sample, fixed by the first sample
        self.setup_s, self.solve_s, self.gaps, self.reasons = [], [], [], []
        self.attempted = self.failed = 0
        self.iterations = None
        self.to_gate = None

    def memory_peak(self):
        """Peak traced allocation over the problem a timed solve gets plus
        capped solves, in bytes."""
        gc.collect()
        tracemalloc.start()
        try:
            self.wl.solve(self.wl.problem(self.inputs), self.inputs, max_iter=MEMORY_PASS_ITERS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def setup_sample(self):
        """Mean wall time of one set-up over the panel, as one sample."""
        if self.batch is None:
            t0 = time.perf_counter()
            for inputs in self.setup_inputs:
                self.wl.setup(inputs)
            self.batch = max(1, math.ceil(SETUP_BATCH_S / (time.perf_counter() - t0)))
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(self.batch):
            for inputs in self.setup_inputs:
                self.wl.setup(inputs)
        self.setup_s.append((time.perf_counter() - t0) / (self.batch * len(self.setup_inputs)))

    def one(self, tracer=None):
        """A set-up sample (when there is a panel), then one timed solve on a
        fresh problem; a call that raises counts as failed."""
        ok, gaps, reasons = False, [], []
        pin(self.attempted)
        try:
            if self.setup_inputs:
                self.setup_sample()
            if tracer is not None:
                tracer.phase = "setup"
            problem = self.wl.problem(self.inputs)
            if tracer is not None:
                tracer.phase = "solve"
            gc.collect()
            t0 = time.perf_counter()
            result = self.wl.solve(problem, self.inputs)
            self.solve_s.append(time.perf_counter() - t0)
            ok, gaps, reasons = judge(self.wl.answers(result), self.refs, self.objs)
            self.iterations = self.wl.iterations(result)
            self.to_gate = iterations_to_gate(self.wl.objective_traces(result), self.refs)
        except Exception as exc:  # includes a report without the expected fields
            reasons.append(f"{type(exc).__name__}: {exc}")
            ok = False
        self.attempted += 1
        self.failed += not ok
        self.gaps.extend(gaps)
        self.reasons.extend(reasons)
        return ok

    def run_for(self, seconds, tracer=None):
        start = time.perf_counter()
        n = 0
        while n < MIN_SAMPLES or time.perf_counter() - start < seconds:
            self.one(tracer)
            n += 1


def summary(name, values, unit="s"):
    lo, hi = quartiles(values)
    return (
        f"{name}: n={len(values)} median={statistics.median(values):.6g} {unit} "
        f"q1={lo:.6g} q3={hi:.6g} min={min(values):.6g} max={max(values):.6g}"
    )


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# -- end-to-end run --------------------------------------------------------

def run_end_to_end(wl, inputs, refs, objs, seconds):
    sampler = Sampler(wl, inputs, refs, objs, [wl.inputs(seed) for seed in SETUP_SEEDS])
    t0 = time.perf_counter()
    peak = sampler.memory_peak()  # also warms the code paths before timing
    t1 = time.perf_counter()
    sampler.run_for(seconds)
    print(f"wall: memory pass {t1 - t0:.2f} s, timed calls {time.perf_counter() - t1:.2f} s")
    if not sampler.solve_s or not sampler.setup_s:
        fail("every set-up or solve raised: " + "; ".join(sorted(set(sampler.reasons))), code=4)
    good = sampler.attempted - sampler.failed
    metrics = {
        "solve_s": metric(statistics.median(sampler.solve_s), "s"),
        "setup_s": metric(statistics.median(sampler.setup_s), "s"),
        "peak_mem_mb": metric(peak / 2**20, "MB"),
        "pass_frac": metric(good / sampler.attempted, "ratio"),
    }
    print(summary("solve_s", sampler.solve_s))
    print(summary("setup_s", sampler.setup_s) + f" (each sample: {sampler.batch} x seeds {SETUP_SEEDS})")
    print(f"fail_frac: {sampler.failed}/{sampler.attempted} = {sampler.failed / sampler.attempted:.6g}")
    if sampler.gaps:
        print(f"relative gap to f*: min={min(sampler.gaps):.3e} max={max(sampler.gaps):.3e} (gate {GATE:g})")
    print(f"iterations per call: {sampler.iterations}; to the gate: {sampler.to_gate}")
    return sampler, metrics


# -- traced run ------------------------------------------------------------

def run_traced(wl, inputs, refs, objs, seed, seconds, package="smoothprox"):
    import tracing

    gen = tracing.Tracer(package)  # input generation, on its own
    gen.install()
    try:
        wl.inputs(seed)
    finally:
        gen.uninstall()
    plain = Sampler(wl, inputs, refs, objs)
    plain.run_for(seconds / 2)
    tracer = tracing.Tracer(package)
    traced = Sampler(wl, inputs, refs, objs)
    tracer.install()
    try:
        traced.run_for(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    if not plain.solve_s or not traced.solve_s:
        fail("every set-up or solve raised: " + "; ".join(sorted(set(plain.reasons + traced.reasons))), code=4)
    n = traced.attempted
    solve_plain = statistics.median(plain.solve_s)
    solve_traced = statistics.median(traced.solve_s)
    iters = traced.iterations or {}
    its = iters.get("solver", 0)

    def per_call(name, field="self_s", phase="solve", loop="any"):
        return tracer.total(name, phase=phase, loop=loop, field=field) / n

    def per_iter(name):
        return per_call(name, "calls", loop="solver.solve") / its if its else 0.0

    def rate(name):
        """GFLOP/s, and computed flops and bytes per call, of product spans."""
        flops, secs, calls, nbytes = (per_call(name, f) for f in ("flops", "total_s", "calls", "bytes"))
        return flops / secs / 1e9 if secs else 0.0, flops / calls if calls else 0.0, nbytes / calls if calls else 0.0

    loss_rate, loss_flops, loss_bytes = rate("losses.gram_product")
    c_rate, c_flops, c_bytes = rate("penalties.coupling_product")
    # exact penalty: one sparse C product and a blockwise reduction per call
    C = objs[0].s.C
    k = 1 if len(objs[0].shape) == 1 else objs[0].shape[0]
    pen_flops = (2.0 * C.nnz + 2.0 * C.shape[0]) * k
    pen_calls = per_call("penalties.value", "calls")
    pen_self = per_call("penalties.value")
    self_sum = tracer.total(phase="solve") / n
    read_bytes, read_s = (per_call("cli.load_matrix", f) for f in ("bytes", "total_s"))

    m = {
        "losses.value.calls": (per_call("losses.value", "calls"), "count"),
        "losses.value.self_s": (per_call("losses.value"), "s"),
        "losses.gradient.calls": (per_call("losses.gradient", "calls"), "count"),
        "losses.gradient.self_s": (per_call("losses.gradient"), "s"),
        "losses.gram_products_per_iter": (per_iter("losses.gram_product"), "1/iter"),
        "losses.product.gflops_s": (loss_rate, "GFLOP/s"),
        "losses.product.flops_computed": (loss_flops, "flop"),
        "losses.product.bytes_computed": (loss_bytes, "B"),
        "losses.init_s": (per_call("losses.init", "total_s", phase=None), "s"),
        "losses.lipschitz_s": (per_call("losses.lipschitz", "total_s", phase=None), "s"),
        "losses.self_s": (tracer.total(phase="solve", prefix="losses.") / n, "s"),
        "penalties.value.calls": (pen_calls, "count"),
        "penalties.value.self_s": (pen_self, "s"),
        "penalties.value_per_iter": (per_iter("penalties.value"), "1/iter"),
        "penalties.value.flops_computed": (pen_flops, "flop"),
        "penalties.value.gflops_s": (pen_flops * pen_calls / pen_self / 1e9 if pen_self else 0.0, "GFLOP/s"),
        "penalties.spec_s": (per_call("penalties.spec", "total_s", phase=None), "s"),
        "penalties.build_coupling_s": (per_call("penalties.build_coupling", "total_s", phase=None), "s"),
        "penalties.coupling.gflops_s": (c_rate, "GFLOP/s"),
        "penalties.coupling.flops_computed": (c_flops, "flop"),
        "penalties.coupling.bytes_computed": (c_bytes, "B"),
        "penalties.self_s": (tracer.total(phase="solve", prefix="penalties.") / n, "s"),
        "smoothing.alpha_star.self_s": (per_call("smoothing.alpha_star"), "s"),
        "smoothing.gradient.self_s": (per_call("smoothing.gradient"), "s"),
        "smoothing.value.calls": (per_call("smoothing.value", "calls"), "count"),
        "smoothing.value.self_s": (per_call("smoothing.value"), "s"),
        "smoothing.coupling_products_per_iter": (per_iter("penalties.coupling_product"), "1/iter"),
        "smoothing.self_s": (tracer.total(phase="solve", prefix="smoothing.") / n, "s"),
        "solver.iterations": (its, "count"),
        "solver.iter_ms": (1e3 * per_call("solver.solve", "total_s", phase="solve", loop=None) / its if its else 0.0, "ms"),
        "solver.self_s": (tracer.total(phase="solve", prefix="solver.") / n, "s"),
        "solver.soft_threshold.self_s": (per_call("solver.soft_threshold"), "s"),
        "solver.rel_gap": (max(traced.gaps) if traced.gaps else float("nan"), "ratio"),
        "solver.iters_to_gate": (traced.to_gate, "count"),
        "fobos.iterations": (iters.get("fobos", 0), "count"),
        "fobos.self_s": (tracer.total(phase="solve", prefix="fobos.") / n, "s"),
        "fobos.subgradient.self_s": (per_call("fobos.subgradient"), "s"),
        "cli.self_s": (tracer.total(phase="solve", prefix="cli.") / n, "s"),
        "cli.read_mb_s": (read_bytes / read_s / 1e6 if read_s else 0.0, "MB/s"),
        "simulate.gen_s": (gen.total("simulate.gen", field="total_s"), "s"),
        "trace_overhead": (solve_traced / solve_plain - 1.0, "ratio"),
        "trace.self_coverage": (self_sum / statistics.fmean(traced.solve_s), "ratio"),
    }
    print(summary("solve_s untraced", plain.solve_s))
    print(summary("solve_s traced", traced.solve_s))
    print(f"per traced call ({n} calls, {its} solver iterations each); self times sum to {self_sum:.6g} s")
    print(f"{'phase':6} {'span':28} {'inside loop':13} {'calls':>9} {'total s':>10} {'self s':>10} {'GFLOP/s':>8}")
    for phase, name, loop, st in tracer.table():
        gf = f"{st.flops / st.total_s / 1e9:8.3f}" if st.flops and st.total_s else ""
        print(
            f"{phase:6} {name:28} {loop or '-':13} {st.calls / n:9.1f} "
            f"{st.total_s / n:10.6f} {st.self_s / n:10.6f} {gf:>8}"
        )
    metrics = {name: metric(v, unit) for name, (v, unit) in m.items()}
    return plain, traced, metrics


def freeze(spx, names, workdir):
    """Recompute references.json for the default seed of every workload."""
    import workloads

    out = {
        "settings": {
            "solver": "reference.solve_reference (FISTA, adaptive restart, mu continuation)",
            "tol": FROZEN_TOL,
            "mu0": 1e-2,
            "seed": workloads.DEFAULT_SEED,
        },
        "workloads": {},
    }
    for name in names:
        wl = workloads.make(name, spx, workdir)
        inputs = wl.inputs(workloads.DEFAULT_SEED)
        t0 = time.perf_counter()
        refs = compute_references(wl.objectives(inputs), FROZEN_TOL)
        out["workloads"][name] = {
            "sha256": wl.fingerprint(inputs),
            "f_star": [r.upper for r in refs],
            "lower": [r.lower for r in refs],
            "certified_gap": [r.certified_gap for r in refs],
            "iterations": [r.iterations for r in refs],
            "mu_final": [r.mu_final for r in refs],
        }
        print(f"{name}: {len(refs)} reference(s) in {time.perf_counter() - t0:.1f} s: {out['workloads'][name]}")
    REFERENCES.write_text(json.dumps(out, indent=2) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (the benchmark's own tests)")
    parser.add_argument("--freeze", action="store_true", help="recompute references.json")
    args = parser.parse_args(argv)

    spx = import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)  # the CLI's instance files
    try:
        if args.freeze:
            freeze(spx, args.workload.split(",") if args.workload else workloads.NAMES, workdir)
            return 0
        if args.workload not in workloads.NAMES:
            fail(f"--workload must be one of {', '.join(workloads.NAMES)}")
        return run(spx, workloads.make(args.workload, spx, workdir, args.tiny), args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(spx, wl, args):
    import workloads

    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} tiny={args.tiny}")
    print(f"why: {wl.why}")
    inputs = wl.inputs(args.seed)
    objs = wl.objectives(inputs)
    t0 = time.perf_counter()
    refs, origin = references_for(wl, inputs, args.seed, objs, args.tiny)
    print(
        f"reference f* ({origin}, {time.perf_counter() - t0:.2f} s): "
        + ", ".join(f"{r.upper:.10g} (certified gap {r.certified_gap:.1e})" for r in refs)
    )
    instance_ok = True
    if isinstance(wl, workloads.CliBenchOverlap):
        wl.problem(inputs)
        instance_ok = wl.check_instance(inputs)
        print(f"CSV instance parses back to the generated arrays: {instance_ok}")

    if args.trace:
        plain, traced, metrics = run_traced(wl, inputs, refs, objs, args.seed, args.seconds)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        reasons = plain.reasons + traced.reasons
    else:
        sampler, metrics = run_end_to_end(wl, inputs, refs, objs, args.seconds)
        attempted, failed, reasons = sampler.attempted, sampler.failed, sampler.reasons
    for reason in sorted(set(reasons)):
        print(f"failure: {reason}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    correct = bool(instance_ok and failed == 0)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
