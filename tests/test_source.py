"""Source rules checked on the syntax tree of every package module:
invariants must raise, because ``python -O`` strips ``assert``, and the
arithmetic is exact, so no float appears.  No module imports
``dataclasses`` or ``typing``; ``bn2.relations`` imports neither the
solver nor ``bn2.triangular``, ``bn2.triangular`` not the solver, neither
``bn2.verify`` nor ``bn2.solver`` imports ``fractions`` or ``json`` at
load, ``bn2.export`` imports ``bn2.triangular`` only in its T_g writers,
no package module imports ``bn2.solver`` or ``bn2.exactnum``, none imports
``bn2.classes`` at load and only ``bn2.cli``'s commands import ``bn2.export``;
``bn2.cli`` imports no bn2 submodule at load;
only ``bn2.cli.build_parser`` imports ``argparse``, and
``bn2.cli.main`` is the one place that catches a subcommand's errors and
writes its output.  The package exports only names it defines, and the
test oracles stay out of it; the relation and T_g builders take their
columns from ``basis.columns``, not through labels, and no module-level
function keeps an unbounded memo, by decorator, by assignment or under any
name; the ``fresh_memos`` fixture clears exactly the bounded ones, and the
benchmark's commands hit each of them.  No module reads ``RelationSystem.rows``.  No module keeps two module-level dict tables keyed by the
same constants, nor a dict keyed by exactly the constants of a module-level
tuple or list."""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import bn2
from conftest import MEMOS

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


# every submodule of the package, as an import names it
_SUBMODULES = tuple(f"bn2.{info.name}" for info in pkgutil.iter_modules(bn2.__path__))


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
        # each command imports its layers when it runs, so importing bn2.cli,
        # as help, a usage error and the benchmark's setup probe do, loads no
        # other bn2 module
        ("cli.py", ("bn2.solver", "bn2.exactnum"), _SUBMODULES),
        ("solver.py", (), ("fractions", "json")),
        # the writers: bn2 matrix loads no T_g, so the T_g writers import
        # bn2.triangular when they are called, and csv and json stay unloaded
        ("export.py", ("bn2.solver", "csv", "json"), ("bn2.triangular",)),
    ],
    ids=["relations.py", "triangular.py", "verify.py", "cli.py", "solver.py", "export.py"],
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


def test_no_module_loads_the_class_view_or_the_writers():
    # no command loads bn2.classes: the ClassExpression views import it when
    # they are called; and only the export commands of bn2.cli import the
    # writers of bn2.export, when they run
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        load_time = {id(node) for node in _load_time_nodes(tree)}
        for node in ast.walk(tree):
            for n in _imported_names(node):
                if n.split(".")[:2] == ["bn2", "classes"] and id(node) in load_time:
                    found.append(f"{path.name}:{node.lineno} {n}")
                if n.split(".")[:2] == ["bn2", "export"] and (
                    path.name != "cli.py" or id(node) in load_time
                ):
                    found.append(f"{path.name}:{node.lineno} {n}")
    assert SOURCES and found == []


def test_no_package_module_imports_exactnum_or_solver():
    # both stay only for the benchmark's tracer, which imports them by name;
    # bn2.exactnum re-exports bn2.basis.fraction_text, and bn2 exports
    # nothing from either
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


def _modules():
    """Every package module, imported."""
    return [
        importlib.import_module("bn2" if path.stem == "__init__" else f"bn2.{path.stem}")
        for path in SOURCES
    ]


def _unbounded_memo_objects(modules) -> set:
    """The module-level objects of modules whose ``cache_info().maxsize`` is
    None, however the memo was imported or named."""
    found = set()
    for module in modules:
        for obj in vars(module).values():
            info = getattr(obj, "cache_info", None)
            if callable(info) and info().maxsize is None:
                found.add(obj)
    return found


def test_no_module_keeps_an_unbounded_memo():
    # an unbounded memo grows with every genus a process asks for (the basis
    # alone is 1.0 M labels at k = 1000); the syntax tree sees the
    # decorators, and the objects a memo under any name
    found = [
        f"{path.name} {name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for name, memo in _memos(node)
        if _unbounded_memo(memo)
    ]
    assert SOURCES and found == []
    assert _unbounded_memo_objects(_modules()) == set()


def test_an_aliased_memo_is_found():
    # a memo imported under another name escapes the syntax-tree rule, which
    # matches cache and lru_cache by name, and not the objects' rule
    module = types.ModuleType("aliased")
    source = "from functools import cache as _c\n_x = _c(len)\n"
    exec(source, vars(module))
    assert not any(_unbounded_memo(memo) for node in ast.parse(source).body for _, memo in _memos(node))
    assert _unbounded_memo_objects([module]) == {module._x}


def test_no_module_reads_the_rows_view():
    # RelationSystem.rows writes a Relation per S2 row; it is a library view,
    # and the package reads the sources, coefficients and right-hand sides
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "rows" and isinstance(node.ctx, ast.Load)
    ]
    assert SOURCES and found == []


def test_the_memo_fixture_clears_every_bounded_memo():
    # a bounded memo keeps what it last built: one that fresh_memos does not
    # clear would carry a patched build from one test into the next
    found = []
    for path, module in zip(SOURCES, _modules()):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name, _ in _memos(node):
                info = getattr(getattr(module, name), "cache_info", None)
                if info is not None and info().maxsize is not None:
                    found.append(getattr(module, name))
    assert len(found) == len(MEMOS) and set(found) == set(MEMOS)


def _benchmark_commands() -> list[list[str]]:
    """Every command of the benchmark's workloads, read from perfbench/run.py."""
    path = Path(bn2.__file__).resolve().parents[2] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [args for commands in run.WORKLOADS.values() for args in commands]


def test_the_benchmark_commands_hit_every_memo(fresh_memos, capsys):
    # a memo that no benchmarked command hits only holds memory; each command
    # starts with empty memos, as a fresh process of the benchmark does
    from bn2.cli import main

    commands = _benchmark_commands()
    hits = dict.fromkeys((memo.__wrapped__.__name__ for memo in MEMOS), 0)
    for args in commands:
        for memo in MEMOS:
            memo.cache_clear()
        assert main(list(args)) == 0, args
        capsys.readouterr()
        for memo in MEMOS:
            hits[memo.__wrapped__.__name__] += memo.cache_info().hits
    assert commands and all(hits.values()), hits


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
    dropped = (
        "solve_exact",
        "build_T",
        "build_matrix",
        "system_matrix",
        "triangularity_report",
        "RationalMatrix",
    )
    for name in dropped:
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


def _parallel_tables(source: str) -> list[str]:
    """"line and line" for each pair of module-level tables that hold one
    fact twice: two dicts keyed by the same three or more constants, or a
    dict whose three or more constant keys are exactly the elements of a
    tuple or list of constants."""
    found = []
    dicts: dict[frozenset, int] = {}
    sequences: dict[frozenset, int] = {}
    for node in ast.parse(source).body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, ast.Dict):
            elements, own, other = value.keys, dicts, (dicts, sequences)
        elif isinstance(value, (ast.Tuple, ast.List)):
            elements, own, other = value.elts, sequences, (dicts,)
        else:
            continue
        if len(elements) < 3 or not all(isinstance(e, ast.Constant) for e in elements):
            continue
        keys = frozenset(e.value for e in elements)
        found += [f"{seen[keys]} and {node.lineno}" for seen in other if keys in seen]
        own.setdefault(keys, node.lineno)
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("A = {'a': 1, 'b': 2, 'c': 3}\nB = {'c': 4, 'b': 5, 'a': 6}", ["1 and 2"]),
        ("A = ('a', 'b', 'c')\nB = {'c': 4, 'b': 5, 'a': 6}", ["1 and 2"]),
        ("B = {'c': 4, 'b': 5, 'a': 6}\nA = ['a', 'b', 'c']", ["1 and 2"]),
        ("A: tuple = ('a', 'b', 'c')\nB: dict = {'a': 1, 'b': 2, 'c': 3}", ["1 and 2"]),
        ("A = ('a', 'b', 'c')\nB = ['c', 'b', 'a']", []),
        ("A = ('a', 'b')\nB = {'a': 1, 'b': 2}", []),
        ("A = ('a', 'b', 'c', 'd')\nB = {'a': 1, 'b': 2, 'c': 3}", []),
        ("A = ('a', 'b', x)\nB = {'a': 1, 'b': 2, x: 3}", []),
        ("A = (60, -810, 156)\nB = {'a': 1, 'b': 2, 'c': 3}", []),
    ],
)
def test_parallel_table_rule_reads_each_form(source, found):
    assert _parallel_tables(source) == found


def test_no_module_keeps_parallel_tables():
    # two module-level dicts keyed by the same three or more constants, or a
    # dict keyed by the elements of a tuple, hold one fact in two tables that
    # must agree key by key: one table whose values are tuples, or a tuple
    # of values in the order of the other, states it once
    found = [
        f"{path.name}:{pair}"
        for path in SOURCES
        for pair in _parallel_tables(path.read_text(encoding="utf-8"))
    ]
    assert SOURCES and found == []
