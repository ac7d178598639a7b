"""Module layout: imports sit at the top of each module, and the graph layer
reaches the matrix codec without going through commute."""

import ast
from pathlib import Path

import commdist

SRC = Path(commdist.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _imported_modules(node) -> list[str]:
    """Package-relative names of the modules an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name.removeprefix("commdist.") for alias in node.names]
    if node.level == 0:
        return [(node.module or "").removeprefix("commdist.")]
    if node.module:
        return [node.module]
    return [alias.name for alias in node.names]  # from . import x


def test_no_function_local_imports():
    assert {"commute.py", "graph.py", "matrix.py"} <= {p.name for p in MODULES}
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert offenders == []


def test_graph_does_not_import_commute():
    tree = ast.parse((SRC / "graph.py").read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_modules(node)
    ]
    assert "matrix" in imported
    assert "commute" not in imported
