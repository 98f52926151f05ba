import ast
from pathlib import Path

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
