"""Traced child process: wrap the public functions of every bn2 module, run
one CLI command through ``bn2.cli.main``, and write the aggregated spans.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <bn2 arguments>

The CLI's stdout and exit code are those of ``python -m bn2.cli``; the span
summary goes to SPANS_JSON when the command ends.  Nothing under ``src/`` is
changed: each wrapper is installed at every binding site of the function in
the ``bn2.*`` module namespaces, because modules import functions by name.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls it made.  Spans are aggregated per
function in memory (calls and self seconds) and written out
once at the end.  Layer-specific exact counts (system order and nonzeros,
solution bit length, export size, nonzero ``count_n`` returns) are taken from
the results of the wrapped calls, after the span has closed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("cli", "basis", "enumerative", "exactnum", "relations", "solver", "verify")
METHODS = (("solver", "RationalMatrix", "matvec"), ("solver", "RationalMatrix", "matmul"))


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        # name -> [calls, self seconds]
        self.spans: dict[str, list] = {}
        self.counts = {
            "relations.export_bytes": 0,
            "solver.solution_max_bits": 0,
            "enumerative.count_n.nonzero": 0,
        }
        # (genus, order, nonzeros) of every system built
        self.systems: list[tuple[int, int, int]] = []

    def wrap(self, name: str, fn, hook=None):
        stats = self.spans.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(result)
            return result

        return traced

    # hooks: exact counts read from results
    def _on_system(self, system) -> None:
        nnz = sum(1 for rel in system.rows for v in rel.coefficients.values() if v != 0)
        self.systems.append((system.g, len(system.rows), nnz))

    def _on_export(self, text: str) -> None:
        self.counts["relations.export_bytes"] += len(text.encode("utf-8"))

    def _on_solution(self, x) -> None:
        bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in x), default=0)
        key = "solver.solution_max_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _on_count_n(self, value) -> None:
        if value:
            self.counts["enumerative.count_n.nonzero"] += 1

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"bn2.{layer}") for layer in LAYERS}
        hooks = {
            "relations.build_relations": self._on_system,
            "relations.system_to_csv": self._on_export,
            "relations.system_to_json": self._on_export,
            "solver.solve_exact": self._on_solution,
            "enumerative.count_n": self._on_count_n,
        }
        wrappers = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ("main",)):  # cli has no __all__
                obj = getattr(mod, name)
                if callable(obj) and not isinstance(obj, type):
                    key = f"{layer}.{name}"
                    wrappers[id(obj)] = self.wrap(key, obj, hooks.get(key))
        bound = [m for n, m in sys.modules.items() if n == "bn2" or n.startswith("bn2.")]
        for mod in bound:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))

    def summary(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "systems": self.systems}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <bn2 arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import bn2.cli

    try:
        code = bn2.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
