"""Every name that the benchmark harness imports from the program still resolves.

A refactor that renames or removes one fails here, in the suite, rather
than in the benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def program_imports() -> dict[str, list[tuple[str, str]]]:
    """Each ``from chainyard.<module> import ...`` in perfbench/*.py: the module and its names, by file."""
    imports = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports[path.name] = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("chainyard.")
            for alias in node.names
        ]
    return imports


IMPORTS = program_imports()


def test_the_benchmark_imports_from_the_program():
    assert sum(map(len, IMPORTS.values())) > 0, IMPORTS


@pytest.mark.parametrize("script", IMPORTS)
def test_each_name_the_benchmark_imports_resolves(script):
    missing = [
        f"{module}.{name}"
        for module, name in IMPORTS[script]
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"perfbench/{script} imports names the program lacks: {missing}"
