"""Source rules checked on the syntax tree of every package module:
invariants must raise, because ``python -O`` strips ``assert``, and the
arithmetic is exact, so no float appears.  No module imports
``dataclasses`` or ``typing``; ``bn2.relations`` imports neither the
solver nor ``bn2.triangular``, ``bn2.triangular`` not the solver, neither
``bn2.verify`` nor ``bn2.solver`` imports ``fractions`` or ``json`` at
load, and no package module imports ``bn2.solver`` or ``bn2.exactnum``;
only ``bn2.cli.build_parser`` imports ``argparse``, and
``bn2.cli.main`` is the one place that catches a subcommand's errors and
writes its output.  The package exports only names it defines, and the
test oracles stay out of it; the relation and T_g builders take their
columns from ``basis.columns``, not through labels, and no module-level
function but ``enumerate_basis`` keeps an unbounded memo, by decorator or
by assignment.  No module keeps two module-level dict tables keyed by the
same constants."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bn2

SOURCES = sorted(Path(bn2.__file__).parent.glob("*.py"))

# independent routes and test-only views that live in tests/oracles.py and
# nowhere in the package: every top-level function and class defined there,
# so a name moved there is guarded without a list to edit, and these names
ORACLE_NAMES = {
    node.name
    for node in ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")).body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
} | {
    "SingularMatrixError",
    "_gauss_echelon",
    "_back_substitute",
    "solve_exact",
    "det",
    "det_is_nonzero",
    "nullspace",
    "castelnuovo_general",
    "_det_small",
    "inv_factorial_or_zero",
    "_bracket_coefficient",
    "closed_form_by_label",
    "t_columns_by_label",
    "build_T_by_label",
    "sum_S16_castelnuovo",
    "system_to_json_dumps",
    "t_matrix_to_json_dumps",
}


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


def test_package_imports_neither_dataclasses_nor_typing():
    # each would add its import time to every command's start-up
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {n}"
                for n in names
                if n.split(".")[0] in ("dataclasses", "typing")
            ]
    assert SOURCES and found == []


def _imported_names(node):
    """The modules an import statement names, and for ``from m import a``
    also ``m.a``, since ``a`` may be a submodule; nothing for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [module, *(f"{module}.{alias.name}" for alias in node.names)]
    return []


def _load_time_nodes(tree):
    """The nodes that run when the module loads: every node outside a
    function body."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


@pytest.mark.parametrize(
    "name, forbidden, forbidden_at_load",
    [
        # the data layer: bn2 matrix loads it and neither the solver nor T_g
        ("relations.py", ("bn2.solver", "bn2.triangular"), ()),
        # the integer rows of Q_g, T_g and P: bn2 solve and bn2 tmatrix load
        # no RationalMatrix
        ("triangular.py", ("bn2.solver",), ()),
        # the checks run in integers and write their report directly, and no
        # view builds a RationalMatrix; a view that builds a Fraction imports
        # fractions when it is called.  fraction_text comes from bn2.basis
        ("verify.py", ("bn2.solver", "bn2.exactnum"), ("fractions", "json")),
        ("cli.py", ("bn2.solver", "bn2.exactnum"), ()),
        ("solver.py", (), ("fractions", "json")),
    ],
    ids=["relations.py", "triangular.py", "verify.py", "cli.py", "solver.py"],
)
def test_relations_imports_no_linear_algebra(name, forbidden, forbidden_at_load):
    tree = ast.parse((Path(bn2.__file__).parent / name).read_text(encoding="utf-8"))
    load_time = {id(node) for node in _load_time_nodes(tree)}
    found = [
        f"{node.lineno} {n}"
        for node in ast.walk(tree)
        for n in _imported_names(node)
        for f in (*forbidden, *(forbidden_at_load if id(node) in load_time else ()))
        if n == f or n.startswith(f + ".")
    ]
    assert found == []


def test_no_package_module_imports_exactnum_or_solver():
    # both stay only for the benchmark's tracer; bn2.exactnum re-exports
    # bn2.basis.fraction_text, and bn2.RationalMatrix is a lazy export
    found = [
        f"{path.name}:{node.lineno} {n}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for n in _imported_names(node)
        if n.split(".")[:2] in (["bn2", "exactnum"], ["bn2", "solver"])
    ]
    assert SOURCES and found == []


def test_only_build_parser_imports_argparse():
    # bn2 parses a command line of the table's form without argparse, and
    # builds the argparse parser only for help and usage errors
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in tree.body
            if path.name == "cli.py" and isinstance(fn, ast.FunctionDef)
            if fn.name == "build_parser"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in allowed
            if "argparse" in {alias.name for alias in node.names} | {getattr(node, "module", None)}
        ]
    assert found == []


def test_main_is_the_one_runner_of_the_cli():
    # each _cmd_* only computes its text: main alone catches its errors,
    # writes the text and sets the exit code
    tree = ast.parse((Path(bn2.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    commands = [fn for fn in functions if fn.name.startswith("_cmd_")]
    tries = [
        f"{fn.name}:{node.lineno}"
        for fn in commands
        for node in ast.walk(fn)
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try)))
    ]
    emitters = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"
    }
    assert len(commands) == 6 and tries == [] and emitters == {"main"}


def test_builders_write_columns_not_labels():
    # the rows and T_g take each column from basis.columns; the label round
    # trip (a label factory, canonicalize, basis_index) stays in the oracles
    label_route = {"om", "la", "dd", "th", "canonicalize", "basis_index"}
    found = []
    for name in ("relations.py", "triangular.py"):
        tree = ast.parse((Path(bn2.__file__).parent / name).read_text(encoding="utf-8"))
        found += [
            f"{name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in label_route
        ]
    assert found == []
    assert "canonicalize" not in bn2._EXPORTS and not hasattr(bn2, "canonicalize")


def _unbounded_memo(decorator) -> bool:
    """Whether a decorator is ``cache`` or ``lru_cache`` with maxsize None,
    plain or as an attribute of ``functools``."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if call is None or name != "lru_cache":
        return call is None and name == "cache"
    maxsize = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return bool(maxsize) and isinstance(maxsize[0], ast.Constant) and maxsize[0].value is None


def _memos(node) -> list[tuple[str, ast.expr]]:
    """(name, memo) for each memo a module-level statement applies: the
    decorators of a function, or the f of ``name = memo(f)``."""
    if isinstance(node, ast.FunctionDef):
        return [(node.name, decorator) for decorator in node.decorator_list]
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and node.value.args:
        return [(t.id, node.value.func) for t in node.targets if isinstance(t, ast.Name)]
    return []


@pytest.mark.parametrize(
    "source, unbounded",
    [
        ("@lru_cache(maxsize=None)\ndef f(): pass", True),
        ("@functools.lru_cache(None)\ndef f(): pass", True),
        ("@functools.cache\ndef f(): pass", True),
        ("@cache\ndef f(): pass", True),
        ("@lru_cache(maxsize=1)\ndef f(): pass", False),
        ("@lru_cache\ndef f(): pass", False),
        ("@cached_property\ndef f(): pass", False),
        ("f = cache(g)", True),
        ("f = functools.cache(g)", True),
        ("f = lru_cache(maxsize=None)(g)", True),
        ("f = functools.lru_cache(None)(g)", True),
        ("f = lru_cache(maxsize=1)(g)", False),
        ("f = lru_cache(g)", False),
        ("f = lru_cache(maxsize=None)", False),
    ],
)
def test_unbounded_memo_rule_reads_each_form(source, unbounded):
    memos = _memos(ast.parse(source).body[0])
    assert any(_unbounded_memo(memo) for _, memo in memos) is unbounded


def test_only_enumerate_basis_keeps_an_unbounded_memo():
    # labels compare by value: a factory that interned them would grow its
    # memo with every index a run builds, so only the basis itself is kept
    found = [
        f"{path.name} {name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for name, memo in _memos(node)
        if _unbounded_memo(memo)
    ]
    assert found == ["basis.py enumerate_basis"]


def test_every_exported_name_resolves():
    modules = [bn2] + [
        importlib.import_module(f"bn2.{info.name}") for info in pkgutil.iter_modules(bn2.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert sum(hasattr(mod, "__all__") for mod in modules) >= 7 and stale == []


def test_package_exports_are_the_submodule_objects():
    for name, module in bn2._EXPORTS.items():
        assert getattr(bn2, name) is getattr(importlib.import_module(f"bn2.{module}"), name)
        assert name in getattr(importlib.import_module(f"bn2.{module}"), "__all__", [name])
    assert sorted(bn2.__all__) == sorted(bn2._EXPORTS)
    assert set(bn2.__all__) <= set(dir(bn2))
    for name in ("solve_exact", "build_T", "build_matrix", "system_matrix", "triangularity_report"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(bn2, name)


def test_package_defines_no_oracle():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in ORACLE_NAMES]
    assert SOURCES and found == []


def test_no_module_keeps_parallel_tables():
    # two module-level dicts keyed by the same three or more constants hold
    # one fact in two tables that must agree key by key: one table whose
    # values are tuples states it once
    found = []
    for path in SOURCES:
        seen: dict[frozenset, int] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if not isinstance(value, ast.Dict) or len(value.keys) < 3:
                continue
            if not all(isinstance(key, ast.Constant) for key in value.keys):
                continue
            keys = frozenset(key.value for key in value.keys)
            if keys in seen:
                found.append(f"{path.name}:{seen[keys]} and {node.lineno}")
            seen.setdefault(keys, node.lineno)
    assert SOURCES and found == []
