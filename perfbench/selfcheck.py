#!/usr/bin/env python3
"""Self-check of the benchmark harness.

Usage, from the repository root:

    python3 perfbench/selfcheck.py [--workloads solve,export,verify]

Not a pytest module (the name does not match ``test_*.py``), so the
repository's test collection never picks it up.  It checks that

1. every metric the benchmark was specified with is declared in
   ``BENCHMARK.json``, and a run reports exactly the declared metrics;
2. the exact counts of the traced run (``*.calls``, order, nonzeros, ratios,
   solution bit length, export bytes) repeat exactly across two runs;
3. a fault injected into a copy of the golden digests makes the run fail
   (``failed`` > 0, ``correct`` false);
4. outside a bn2 checkout the benchmark exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

MODULES = ("cli", "basis", "enumerative", "exactnum", "relations", "solver", "verify")
FUNCTIONS = {
    "relations": ("build_relations", "system_matrix", "build_rhs_vector", "evaluate_rhs",
                  "system_to_csv", "system_to_json", "build_T", "triangularity_report"),
    "solver": ("solve_exact", "det", "rank", "nullspace",
               "RationalMatrix.matvec", "RationalMatrix.matmul"),
    "enumerative": ("castelnuovo_N", "count_n", "count_m", "sum_T", "sum_D", "sum_S16"),
    "exactnum": ("inv_factorial_or_zero",),
    "verify": ("closed_form_class", "pullback_image"),
    "basis": ("enumerate_basis", "canonicalize"),
}
EXACT = (
    "relations.order",
    "relations.nnz",
    "relations.system_matrix.zero_share",
    "enumerative.count_n.useful_ratio",
    "relations.build_relations.calls_per_genus",
    "solver.solution_max_bits",
    "relations.export_bytes",
)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")


def specified_per_layer() -> set[str]:
    names = {f"{m}.self_s" for m in MODULES}
    for module, fns in FUNCTIONS.items():
        for fn in fns:
            names.update({f"{module}.{fn}.self_s", f"{module}.{fn}.calls"})
    return names | set(EXACT) | {"trace.overhead_s"}


def run(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="solve,export,verify")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}

    check(set(END_TO_END) <= declared_e2e, "end-to-end metrics are declared")
    missing = specified_per_layer() - declared_layer
    check(not missing, f"per-layer metrics are declared (missing: {sorted(missing)})")

    for workload in args.workloads.split(","):
        proc, plain = run(workload, 1, 0)
        check(plain is not None and plain["correct"] and plain["failed"] == 0,
              f"{workload}: untraced run is correct")
        check(set(plain["metrics"]) == declared_e2e,
              f"{workload}: untraced run reports exactly the end-to-end metrics")
        traced = [run(workload, seed, 1)[1] for seed in (1, 2)]
        check(all(t is not None and t["correct"] for t in traced),
              f"{workload}: traced runs are correct")
        check(set(traced[0]["metrics"]) == declared_layer,
              f"{workload}: traced run reports exactly the per-layer metrics")
        exact = [
            {n: m["value"] for n, m in t["metrics"].items() if n.endswith(".calls") or n in EXACT}
            for t in traced
        ]
        check(exact[0] == exact[1], f"{workload}: exact counts repeat across two traced runs")

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        golden = json.loads((BENCH_DIR / "golden.json").read_text())
        key = "verify all --k-max 10"
        golden["commands"][key]["sha256"] = "0" * 64
        faulty = Path(tmp) / "golden.json"
        faulty.write_text(json.dumps(golden))
        proc, result = run("verify", 1, 0, "--golden", str(faulty))
        check(result is not None and not result["correct"] and result["failed"] > 0,
              "an injected golden-digest fault makes failed_ratio nonzero")

        bare = Path(tmp) / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc, result = run("solve", 1, 0, cwd=bare)
        check(proc.returncode != 0 and result is None and not proc.stdout.strip(),
              "without the bn2 sources the benchmark exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
