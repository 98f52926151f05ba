import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import smoothprox


def test_every_exported_name_resolves():
    """The package loads its names lazily from a table, so a stale entry
    would otherwise fail only at its first use."""
    assert [name for name in smoothprox.__all__ if not hasattr(smoothprox, name)] == []


def test_no_module_imports_an_unused_name():
    """Every name a module of the package imports is read somewhere in it
    (annotations count; docstrings do not)."""
    unused = []
    for path in sorted(Path(smoothprox.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_readme_quick_start_runs():
    """The README's library example runs as written, so a name it uses that
    the package no longer has fails here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_harness_submodules_import_and_smoothing_is_empty():
    """The benchmark harness imports these submodules by name until ROADMAP
    item 3(b) drops ``multivariate`` and ``smoothing`` from its list, so each
    must still import; ``smoothing`` is kept only for that and defines no
    public name.  The harness builds its multi-output problem as
    ``multivariate.MultiProblem``, reads its response as ``.Y`` and solves it
    with ``multivariate.solve_multivariate``; neither name is in the
    package's namespace."""
    modules = {name: importlib.import_module(f"smoothprox.{name}") for name in
               ("cli", "fobos", "losses", "multivariate", "penalties", "simulate", "smoothing", "solver")}
    assert [name for name in vars(modules["smoothing"]) if not name.startswith("_")] == []
    multivariate = modules["multivariate"]
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
    spec = smoothprox.GraphPenaltySpec(2, ((0, 1, 0.5),), 1.0)
    problem = multivariate.MultiProblem(X, Y, spec)
    assert problem.Y is problem.y
    with pytest.raises(smoothprox.StructureError, match="expected a 2-d"):
        multivariate.MultiProblem(X, Y[:, 0], spec)
    assert multivariate.solve_multivariate is smoothprox.solve
    for name in ("MultiProblem", "solve_multivariate"):
        assert name not in smoothprox.__all__ and not hasattr(smoothprox, name)
