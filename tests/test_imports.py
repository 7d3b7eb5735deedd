"""The package's import graph: arith, the bottom layer, imports nothing
from the package, and every import sits at the top of its module."""

import ast
import pathlib

import gapforge

SOURCE = pathlib.Path(gapforge.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SOURCE / name).read_text(encoding="utf-8"), name)


def test_arith_imports_nothing_from_the_package():
    imported = [node for node in ast.walk(_tree("arith.py"))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("gapforge"))]
    assert [ast.unparse(node) for node in imported] == []


def test_no_function_imports():
    inside = []
    for path in sorted(SOURCE.glob("*.py")):
        for func in ast.walk(_tree(path.name)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [f"{path.name}:{node.lineno} in {func.name}"
                           for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []
