"""Invariants in the package must raise: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import bn2

SOURCES = sorted(Path(bn2.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
