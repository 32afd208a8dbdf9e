#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--workloads solve,export] \
        [--seconds 30] [--traced] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed, one run at a time.  For each
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median as ``statistics.quantiles(values, n=4)`` gives them, next
to the metric's bound from ``BENCHMARK.json``.  With ``--traced`` it adds one
traced run per workload (the first seed).  ``--out`` writes all of it, with
the commit, Python version, nproc and CPU model, as a JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import environment, quartiles  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {**environment(), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = 0
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {result['metrics'][n]['value']:.5g}" for n in bounds), flush=True)
        entry = {"attempted": attempted, "end_to_end": {}}
        for name, vals in values.items():
            q = quartiles(vals)
            spread = (q["q3"] - q["q1"]) / q["median"]
            entry["end_to_end"][name] = {**q, "spread": spread, "bound": bounds[name],
                                         "values": vals}
            print(f"  {workload:<8} {name:<14} median {q['median']:.5g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}  "
                  f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}", flush=True)
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
