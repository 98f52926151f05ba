"""Run-time spans around the package's layers, installed from outside ``src/``.

``Tracer.install()`` replaces public callables with timing wrappers in the
namespace that calls them (a module that did ``from .x import f`` holds its
own binding of ``f``), wraps methods at class level, and swaps the loss's
Gram matrix and the penalty's coupling matrix for stand-ins
that record every matrix product with its computed flop and byte cost.
``uninstall()`` restores everything.  Names that no longer exist are skipped,
so a later refactor loses spans instead of breaking the run.

Multi-output pieces are counted under the layer they play: ``_FrobeniusLoss``
under ``losses``, ``multi_penalty_value`` under ``penalties``,
``SmoothedMatrixPenalty`` under ``smoothing`` and ``solve_multivariate`` under
``solver``, so every layer metric is measured on every workload.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span) -- functions, patched where they are looked up
FUNCTIONS = [
    ("solver", "regularization_path", "solver.path"),
    ("solver", "solve", "solver.solve"),
    ("solver", "fista_step", "solver.fista_step"),
    ("solver", "soft_threshold", "solver.soft_threshold"),
    ("multivariate", "soft_threshold", "solver.soft_threshold"),
    ("fobos", "soft_threshold", "solver.soft_threshold"),
    ("multivariate", "solve_multivariate", "solver.solve"),
    ("solver", "penalty_value", "penalties.value"),
    ("fobos", "penalty_value", "penalties.value"),
    ("multivariate", "multi_penalty_value", "penalties.value"),
    ("smoothing", "build_coupling", "penalties.build_coupling"),
    ("multivariate", "build_coupling", "penalties.build_coupling"),
    ("fobos", "build_coupling", "penalties.build_coupling"),
    ("penalties", "penalty_from_json", "penalties.from_json"),
    ("solver", "smoothed_penalty", "smoothing.build"),
    ("solver", "coupling_norm", "smoothing.coupling_norm"),
    ("multivariate", "coupling_norm", "smoothing.coupling_norm"),
    ("fobos", "solve_fobos", "fobos.solve"),
    ("fobos", "penalty_subgradient", "fobos.subgradient"),
    ("cli", "cli_main", "cli.main"),
    ("cli", "_save_matrix", "cli.save_matrix"),
    ("simulate", "gen_overlap_instance", "simulate.gen"),
    ("simulate", "gen_graph_instance", "simulate.gen"),
]

# (module, attribute, span, cost) -- functions whose spans carry a computed
# cost: ``cost(*args)`` gives (flops, bytes)
COSTED_FUNCTIONS = [
    ("cli", "_load_matrix", "cli.load_matrix", lambda path: (0.0, float(os.path.getsize(path)))),
]

# (module, class, method, span) -- wrapped at class level
METHODS = [
    ("losses", "Dataset", "__post_init__", "losses.dataset"),
    ("losses", "SquaredLoss", "__init__", "losses.init"),
    ("multivariate", "_FrobeniusLoss", "__init__", "losses.init"),
    ("losses", "SquaredLoss", "lipschitz", "losses.lipschitz"),
    ("multivariate", "_FrobeniusLoss", "lipschitz", "losses.lipschitz"),
    ("losses", "SquaredLoss", "value", "losses.value"),
    ("multivariate", "_FrobeniusLoss", "value", "losses.value"),
    ("losses", "SquaredLoss", "gradient", "losses.gradient"),
    ("multivariate", "_FrobeniusLoss", "gradient", "losses.gradient"),
    ("penalties", "GroupPenaltySpec", "__post_init__", "penalties.spec"),
    ("penalties", "GraphPenaltySpec", "__post_init__", "penalties.spec"),
    ("smoothing", "SmoothedPenalty", "alpha_star", "smoothing.alpha_star"),
    ("multivariate", "SmoothedMatrixPenalty", "alpha_star", "smoothing.alpha_star"),
    ("smoothing", "SmoothedPenalty", "value", "smoothing.value"),
    ("multivariate", "SmoothedMatrixPenalty", "value", "smoothing.value"),
    ("smoothing", "SmoothedPenalty", "gradient", "smoothing.gradient"),
    ("multivariate", "SmoothedMatrixPenalty", "gradient", "smoothing.gradient"),
    ("multivariate", "SmoothedMatrixPenalty", "bind", "smoothing.build"),
    ("solver", "Problem", "least_squares", "solver.problem"),
    ("solver", "Problem", "logistic", "solver.problem"),
    ("multivariate", "MultiProblem", "__post_init__", "solver.problem"),
]

# the loops whose iterations the per-iteration counts divide by
LOOPS = ("solver.solve", "fobos.solve")


def _product_cost(matrix, other):
    """Computed flops and bytes of ``matrix @ other`` (CPU estimate, no caches)."""
    k = 1 if np.ndim(other) < 2 else other.shape[1]
    rows, cols = matrix.shape
    if hasattr(matrix, "nnz"):  # sparse: 8 B value + 4 B index per non-zero
        return 2.0 * matrix.nnz * k, 12.0 * matrix.nnz + 8.0 * (rows + cols) * k
    return 2.0 * rows * cols * k, 8.0 * rows * cols + 8.0 * (rows + cols) * k


class CountedOperator:
    """Stands in for a matrix; every product with it is recorded as a span."""

    def __init__(self, matrix, tracer, kind):
        self._m, self._tracer, self._kind = matrix, tracer, kind

    def _product(self, left, right, matrix):
        flops, nbytes = _product_cost(matrix, right if left is matrix else left.T)
        with self._tracer.span(self._kind, flops=flops, bytes=nbytes):
            return left @ right

    def __matmul__(self, other):
        return self._product(self._m, other, self._m)

    def __rmatmul__(self, other):
        return self._product(other, self._m, self._m.T)

    @property
    def T(self):
        return CountedOperator(self._m.T, self._tracer, self._kind)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._m, dtype=dtype)

    def __getattr__(self, name):
        return getattr(self._m, name)


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0


class Tracer:
    """Keeps spans in memory, aggregated per (phase, span name, enclosing loop)."""

    def __init__(self, package):
        self.package = package
        self.phase = "setup"
        self.stats = defaultdict(Stat)
        self._stack = []  # [name, start, child_time]
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def span(self, name, flops=0.0, bytes=0.0):
        return _Span(self, name, flops, bytes)

    def _loop(self):
        for frame in reversed(self._stack):
            if frame[0] in LOOPS:
                return frame[0]
        return None

    def _close(self, name, start, child, flops, nbytes):
        elapsed = time.perf_counter() - start
        loop = self._loop()
        stat = self.stats[(self.phase, name, loop)]
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - child
        stat.flops += flops
        stat.bytes += nbytes
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, fn, name, cost=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            flops, nbytes = cost(*args, **kwargs) if cost else (0.0, 0.0)
            with self.span(name, flops, nbytes):
                return fn(*args, **kwargs)

        return traced

    # -- installation --------------------------------------------------------
    def _module(self, name):
        try:
            return importlib.import_module(f"{self.package}.{name}")
        except ImportError:
            return None

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for mod_name, attr, span, cost in [f + (None,) for f in FUNCTIONS] + COSTED_FUNCTIONS:
            mod = self._module(mod_name)
            if mod is not None and callable(mod.__dict__.get(attr)):
                self._set(mod, attr, self.wrap(mod.__dict__[attr], span, cost))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(self._module(mod_name), cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(raw.__func__, span)))
            elif callable(raw):
                self._set(cls, attr, self.wrap(raw, span))
        self._install_operators()

    def _install_operators(self):
        """Count Gram and coupling products where they happen."""
        tracer = self
        for mod_name, cls_name in (("losses", "SquaredLoss"), ("multivariate", "_FrobeniusLoss")):
            cls = getattr(self._module(mod_name), cls_name, None)
            if cls is None or "__init__" not in cls.__dict__:
                continue

            def make_init(init):
                @functools.wraps(init)
                def counted_init(obj, *args, **kwargs):
                    init(obj, *args, **kwargs)
                    gram = getattr(obj, "_XtX", None)
                    if isinstance(gram, np.ndarray):
                        obj._XtX = CountedOperator(gram, tracer, "losses.gram_product")

                return counted_init

            self._set(cls, "__init__", make_init(cls.__dict__["__init__"]))

        def counted_coupling(build):
            @functools.wraps(build)
            def build_counted(*args, **kwargs):
                coupling = build(*args, **kwargs)
                if dataclasses.is_dataclass(coupling) and hasattr(coupling, "matrix"):
                    op = CountedOperator(coupling.matrix, tracer, "penalties.coupling_product")
                    coupling = dataclasses.replace(coupling, matrix=op)
                return coupling

            return build_counted

        for mod_name in ("smoothing", "multivariate", "fobos"):
            mod = self._module(mod_name)
            if mod is not None and callable(mod.__dict__.get("build_coupling")):
                self._set(mod, "build_coupling", counted_coupling(mod.__dict__["build_coupling"]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------------
    def total(self, name=None, phase=None, loop="any", field="self_s", prefix=None):
        """Sum ``field`` over matching spans; ``loop='any'`` ignores the loop."""
        out = 0.0
        for (ph, nm, lp), stat in self.stats.items():
            if phase is not None and ph != phase:
                continue
            if name is not None and nm != name:
                continue
            if prefix is not None and not nm.startswith(prefix):
                continue
            if loop != "any" and lp != loop:
                continue
            out += getattr(stat, field)
        return out

    def table(self):
        """Rows ``(phase, name, loop, Stat)`` sorted by self time."""
        rows = [(ph, nm, lp, st) for (ph, nm, lp), st in self.stats.items()]
        return sorted(rows, key=lambda r: -r[3].self_s)


class _Span:
    __slots__ = ("tracer", "name", "flops", "bytes", "frame")

    def __init__(self, tracer, name, flops, nbytes):
        self.tracer, self.name, self.flops, self.bytes = tracer, name, flops, nbytes

    def __enter__(self):
        self.frame = [self.name, time.perf_counter(), 0.0]
        self.tracer._stack.append(self.frame)

    def __exit__(self, *exc):
        self.tracer._stack.pop()
        name, start, child = self.frame
        self.tracer._close(name, start, child, self.flops, self.bytes)
        return False
