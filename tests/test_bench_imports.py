"""The benchmark scripts under bench/ are not run by this suite, so a
package name they import could be deleted or renamed without any test
failing. This reads their source (and nothing else of bench/) and checks
that every ``from deqe... import name`` still resolves."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "deqe" or node.module.startswith("deqe."):
                    for alias in node.names:
                        yield path.name, node.module, alias.name


def test_bench_imports_resolve():
    imports = list(_package_imports())
    assert imports, f"no package imports found under {BENCH}"
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
