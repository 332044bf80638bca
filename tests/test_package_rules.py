"""Rules every module of the package keeps, checked on its source.

Each check fails through pytest.fail, not a bare assert, so it still
fails when the suite runs under python -O.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ghsegments

MODULES = sorted(Path(ghsegments.__file__).parent.rglob("*.py"))


def parsed():
    return [(path, ast.parse(path.read_text(), str(path))) for path in MODULES]


def test_no_assert_statements() -> None:
    # a package check written as an assert vanishes under python -O
    found = [
        f"{path}:{node.lineno}"
        for path, tree in parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail("assert statements in the package:\n" + "\n".join(found))


def test_no_recursion() -> None:
    # a function that calls itself, directly or through others defined in
    # its module, dies past Python's recursion limit on deep inputs, so
    # each module's by-name call graph must be acyclic
    found = []
    for path, tree in parsed():
        calls: dict[str, set[str]] = {}
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(f.name, set()).update(
                    n.func.id
                    for n in ast.walk(f)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                )
        for name in sorted(calls):
            seen, todo = set(), [name]
            while todo:
                for callee in calls.get(todo.pop(), ()):
                    if callee in calls and callee not in seen:
                        seen.add(callee)
                        todo.append(callee)
            if name in seen:
                found.append(f"{path}: {name}")
    if found:
        pytest.fail("recursive functions in the package:\n" + "\n".join(found))
