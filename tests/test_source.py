"""Source rules checked on the syntax tree of every package module:
invariants must raise, because ``python -O`` strips ``assert``, and the
arithmetic is exact, so no float appears."""

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


def test_package_has_no_floats():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    ]
    assert SOURCES and found == []
