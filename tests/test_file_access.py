"""Every file the package reads goes through one block reader,
``corpus._runs``, and every file it writes through ``corpus.atomic_write``.
This scans the package source for calls of ``open`` (a name, or an
attribute such as ``io.open``) and checks that no other function makes one,
so a second reader, with line breaks and error texts of its own, cannot
creep back in."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deqe"


def _open_calls(node: ast.AST, module: str, function: str | None):
    """Yield (module, innermost enclosing function) for each call of
    ``open`` under ``node``; the function is None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _open_calls(child, module, child.name)
            continue
        if isinstance(child, ast.Call):
            callee = child.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == "open":
                yield module, function
        yield from _open_calls(child, module, function)


def test_only_the_block_reader_and_atomic_write_open_files():
    calls = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls.update(_open_calls(tree, path.stem, None))
    assert calls == {("corpus", "_runs"), ("corpus", "atomic_write")}
