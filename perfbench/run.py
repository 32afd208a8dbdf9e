#!/usr/bin/env python3
"""End-to-end benchmark of the bn2 CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Every command of the workload runs as a fresh ``python -m bn2.cli`` process
with ``src`` on ``PYTHONPATH``, one at a time, from this single process.  A
pass runs every command once, in an order the seed permutes; passes repeat
until ``--seconds`` have elapsed.  Each command's stdout is checked against
the sha256 and exit code recorded in ``golden.json``, and every ``solve``
output is compared, as exact fractions, with ``bn2.verify.closed_form_class``
outside the timed region.

Timed commands and set-up samples are each preceded by a run of the fixed
``reference.py``; timings are scaled by its nominal over its measured wall
time, which removes the host's speed drift (see README.md).

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced passes with passes run through
``tracer.py`` and reports the per-layer metrics.  The last stdout line is one
JSON object; a results record also goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
RESULTS = BENCH_DIR / "results"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE = BENCH_DIR / "reference.py"

WORKLOADS = {
    "solve": [["solve", "--k", str(k)] for k in (8, 10, 12, 14)],
    "export": [
        ["matrix", "--g", "40", "--k", "20", "--format", "json"],
        ["matrix", "--g", "48", "--k", "24", "--format", "json"],
        ["matrix", "--g", "56", "--k", "28", "--format", "csv"],
    ],
    "verify": [["verify", "all", "--k-max", "10"]],
}

SETUP_SAMPLES = 15
# Wall time of reference.py at nominal host speed: about its median on the
# 2-vCPU Xeon host the baseline was recorded on.  The host's speed drifts by
# up to 2x within minutes there; each timing is therefore scaled by
# NOMINAL_REFERENCE_S over the reference time measured next to it.
NOMINAL_REFERENCE_S = 0.12
COMMAND_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 165.0  # no child is started or kept running past this

LAYERS = ("cli", "basis", "enumerative", "exactnum", "relations", "solver", "verify")
TRACED_FUNCTIONS = (
    "relations.build_relations",
    "relations.system_matrix",
    "relations.build_rhs_vector",
    "relations.evaluate_rhs",
    "relations.system_to_csv",
    "relations.system_to_json",
    "relations.build_T",
    "relations.triangularity_report",
    "solver.solve_exact",
    "solver.det",
    "solver.rank",
    "solver.nullspace",
    "solver.RationalMatrix.matvec",
    "solver.RationalMatrix.matmul",
    "enumerative.castelnuovo_N",
    "enumerative.count_n",
    "enumerative.count_m",
    "enumerative.sum_T",
    "enumerative.sum_D",
    "enumerative.sum_S16",
    "exactnum.inv_factorial_or_zero",
    "verify.closed_form_class",
    "verify.pullback_image",
    "basis.enumerate_basis",
    "basis.canonicalize",
)
# exact counts of a traced pass: identical on every pass and every run
EXACT_COUNTS = {
    "relations.order": "count",
    "relations.nnz": "count",
    "relations.system_matrix.zero_share": "ratio",
    "enumerative.count_n.useful_ratio": "ratio",
    "relations.build_relations.calls_per_genus": "ratio",
    "solver.solution_max_bits": "bits",
    "relations.export_bytes": "bytes",
}


class OutOfTime(Exception):
    """The run deadline passed before a child could be started."""


class Runner:
    """Starts one child at a time and times it; owns the run deadline."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str]) -> dict:
        """Run argv to completion; wall time, exit code, peak RSS, stdout."""
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise OutOfTime
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "timed_out": not ready,
            "exit_code": proc.returncode,
            "maxrss_kib": usage.ru_maxrss,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes().decode("utf-8", "replace"),
        }


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "bn2.cli", *args]


def traced_argv(spans_path: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(TRACER), str(spans_path), "--", *args]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def command_key(args: list[str]) -> str:
    return " ".join(args)


# correctness ----------------------------------------------------------------


def parse_solution(text: str) -> dict[str, Fraction]:
    out = {}
    for line in text.splitlines():
        label, value = line.rsplit(" ", 1)
        out[label] = Fraction(value)
    return out


class Checker:
    """Golden sha256 and exit code per command, and the closed formula for
    every ``solve`` output; memoized per distinct output."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self._closed_form: dict[str, str | None] = {}  # stdout sha256 -> problem

    def problem(self, args: list[str], result: dict) -> str | None:
        if result["timed_out"]:
            return f"timed out after {COMMAND_TIMEOUT_S:g} s"
        want = self.golden.get(command_key(args))
        if want is None:
            return "no golden record for this command"
        if result["exit_code"] != want["exit_code"]:
            return f"exit code {result['exit_code']}, golden {want['exit_code']}"
        digest = hashlib.sha256(result["stdout"]).hexdigest()
        if digest != want["sha256"]:
            return f"stdout sha256 {digest[:12]}, golden {want['sha256'][:12]}"
        if args[0] == "solve":
            return self._check_closed_form(int(args[2]), digest, result["stdout"])
        return None

    def _check_closed_form(self, k: int, digest: str, stdout: bytes) -> str | None:
        if digest not in self._closed_form:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            from bn2.basis import enumerate_basis
            from bn2.verify import closed_form_class

            expected = closed_form_class(k)
            want = {str(lab): expected[lab] for lab in enumerate_basis(2 * k)}
            got = parse_solution(stdout.decode("utf-8"))
            self._closed_form[digest] = (
                None if got == want else f"solve --k {k} differs from the closed formula"
            )
        return self._closed_form[digest]


# passes ---------------------------------------------------------------------


def run_pass(runner, checker, commands, rng, traced: bool, failures: list) -> dict:
    """One pass over the workload.  Untraced commands are each preceded by a
    reference sample."""
    order = list(commands)
    rng.shuffle(order)
    walls, refs = {}, []
    peak_kib = 0
    spans = []
    for args in order:
        spans_path = runner.workdir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            result = runner.run(traced_argv(spans_path, args))
        else:
            refs.append(run_reference(runner))
            result = runner.run(cli_argv(args))
        walls[command_key(args)] = result["wall_s"]
        peak_kib = max(peak_kib, result["maxrss_kib"])
        problem = checker.problem(args, result)
        if traced and problem is None:
            if spans_path.exists():
                spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
            else:
                problem = "tracer wrote no spans"
        if problem is not None:
            failures.append({"command": command_key(args), "problem": problem,
                             "stderr": result["stderr"][-2000:]})
    return {"wall_s": sum(walls.values()), "commands": walls, "reference_s": refs,
            "peak_rss_mib": peak_kib / 1024, "spans": spans}


def run_reference(runner) -> float:
    result = runner.run([sys.executable, str(REFERENCE)])
    if result["exit_code"] != 0 or result["timed_out"]:
        raise RuntimeError(f"reference.py failed: {result['stderr'].strip()}")
    return result["wall_s"]


def measure_setup(runner) -> list[tuple[float, float]]:
    """(set-up time, adjacent reference time) samples."""
    probe = [sys.executable, "-c", "import bn2.cli"]
    runner.run(probe)  # compiles bytecode on a fresh checkout
    samples = []
    for _ in range(SETUP_SAMPLES):
        ref = run_reference(runner)
        result = runner.run(probe)
        if result["exit_code"] != 0 or result["timed_out"]:
            raise RuntimeError(f"importing bn2.cli failed: {result['stderr'].strip()}")
        samples.append((result["wall_s"], ref))
    return samples


def layer_metrics(summaries: list[dict]) -> tuple[dict, dict]:
    """Self seconds per module and function, and the exact counts, of one
    traced pass, from the tracer summaries of its commands."""
    spans: dict[str, list] = {}
    for summary in summaries:
        for name, (calls, self_s) in summary["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    systems = [system for summary in summaries for system in summary["systems"]]
    genera = sum(len({g for g, _, _ in summary["systems"]}) for summary in summaries)

    def count(key: str, combine=sum):
        return combine(summary["counts"][key] for summary in summaries)

    timings = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, (_, self_s) in spans.items():
        timings[f"{name.split('.')[0]}.self_s"] += self_s
    exact = {}
    for name in TRACED_FUNCTIONS:
        calls, self_s = spans.get(name, (0, 0.0))
        timings[f"{name}.self_s"] = self_s
        exact[f"{name}.calls"] = calls
    nnz = sum(z for _, _, z in systems)
    square = sum(n * n for _, n, _ in systems)
    count_n_calls = exact["enumerative.count_n.calls"]
    exact.update({
        "relations.order": sum(n for _, n, _ in systems),
        "relations.nnz": nnz,
        "relations.system_matrix.zero_share": 1 - nnz / square if square else 0.0,
        "enumerative.count_n.useful_ratio":
            count("enumerative.count_n.nonzero") / count_n_calls if count_n_calls else 0.0,
        "relations.build_relations.calls_per_genus": len(systems) / genera if genera else 0.0,
        "solver.solution_max_bits": count("solver.solution_max_bits", max),
        "relations.export_bytes": count("relations.export_bytes"),
    })
    return timings, exact


def metric_unit(name: str) -> str:
    if name.endswith(".self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith(".calls"):
        return "count"
    return EXACT_COUNTS[name]


# record ---------------------------------------------------------------------


def commit_id() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# main -----------------------------------------------------------------------


def record_golden(path: Path) -> int:
    """Write the sha256 and exit code of every workload command's stdout."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        runner = Runner(Path(tmp))
        commands = {}
        for workload in WORKLOADS.values():
            for args in workload:
                result = runner.run(cli_argv(args))
                if result["timed_out"]:
                    print(f"{command_key(args)}: timed out", file=sys.stderr)
                    return 1
                commands[command_key(args)] = {
                    "sha256": hashlib.sha256(result["stdout"]).hexdigest(),
                    "exit_code": result["exit_code"],
                    "stdout_bytes": len(result["stdout"]),
                }
    path.write_text(json.dumps({**environment(), "commands": commands}, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden digests to check against (default: %(default)s)")
    parser.add_argument("--record-golden", action="store_true",
                        help="run every workload command once and write --golden")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bn2" / "cli.py").is_file():
        print(f"bn2 sources not found under {SRC}; run from a bn2 checkout", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args.golden)
    try:
        golden = json.loads(args.golden.read_text(encoding="utf-8"))["commands"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read golden digests {args.golden}: {exc}", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    checker = Checker(golden)
    failures: list[dict] = []
    plain, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        runner = Runner(Path(tmp))
        try:
            setup = measure_setup(runner)
            # a round is one pass, or an untraced and a traced pass; stop
            # before a round that would likely end after --seconds
            start = time.monotonic()
            rounds: list[float] = []
            while not rounds or (
                time.monotonic() - start + statistics.median(rounds) <= args.seconds
            ):
                round_start = time.monotonic()
                plain.append(run_pass(runner, checker, commands, rng, False, failures))
                if args.trace:
                    traced.append(run_pass(runner, checker, commands, rng, True, failures))
                rounds.append(time.monotonic() - round_start)
        except (OutOfTime, RuntimeError) as exc:
            print(f"run aborted: {exc or 'out of time'}", file=sys.stderr)
            return 1

    attempted = len(commands) * (len(plain) + len(traced))
    failed = len(failures)
    failed_ratio = failed / attempted
    # host speed correction: each timing is scaled by NOMINAL_REFERENCE_S over
    # the reference time measured next to it (the commands of its pass)
    raw = {
        "wall_s": quartiles([p["wall_s"] for p in plain]),
        "setup_s": quartiles([t for t, _ in setup]),
        "reference_s": quartiles([r for p in plain for r in p["reference_s"]]
                                 + [r for _, r in setup]),
    }
    e2e = {
        "wall_s": quartiles([
            p["wall_s"] * NOMINAL_REFERENCE_S / statistics.mean(p["reference_s"]) for p in plain
        ]),
        "setup_s": quartiles([t * NOMINAL_REFERENCE_S / r for t, r in setup]),
        "peak_rss_mib": quartiles([p["peak_rss_mib"] for p in plain]),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    correct = failed == 0
    record = {
        **environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": {
            command_key(c): [p["commands"][command_key(c)] for p in plain] for c in commands
        },
        "passes": len(plain),
        "failed_ratio": failed_ratio,
        "failures": failures,
        "end_to_end": {name: {**q, "unit": units[name]} for name, q in e2e.items()},
        "uncorrected": {name: {**q, "unit": "s"} for name, q in raw.items()},
    }

    if args.trace:
        per_pass = [layer_metrics(p["spans"]) for p in traced if len(p["spans"]) == len(commands)]
        exact_runs = [exact for _, exact in per_pass]
        if not exact_runs or any(e != exact_runs[0] for e in exact_runs):
            correct = False
            print("exact counts differ between traced passes", file=sys.stderr)
        # paired by round, so both passes of a difference share the machine's state
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        names = list(per_pass[0][0]) if per_pass else []
        metrics = {
            name: statistics.median(t[name] for t, _ in per_pass) for name in names
        }
        metrics.update(exact_runs[0] if exact_runs else {})
        metrics["trace.overhead_s"] = overhead
        report = {name: {"value": v, "unit": metric_unit(name)} for name, v in metrics.items()}
        record["traced_passes"] = len(traced)
        record["per_layer"] = report
    else:
        report = {name: {"value": q["median"], "unit": units[name]} for name, q in e2e.items()}

    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}: {len(plain)} passes of {len(commands)} commands, "
          f"seed {args.seed}, trace {args.trace}")
    for name, q in e2e.items():
        print(f"  {name:<14} {q['median']:.6g} {units[name]}  "
              f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n {q['n']})")
    print(f"  uncorrected    wall_s {raw['wall_s']['median']:.6g} s, setup_s "
          f"{raw['setup_s']['median']:.6g} s, reference.py {raw['reference_s']['median']:.4g} s "
          f"(nominal {NOMINAL_REFERENCE_S:g} s)")
    print(f"  {'failed_ratio':<14} {failed_ratio:.6g} ratio  ({failed} of {attempted} commands)")
    for item in failures[:5]:
        print(f"  FAIL {item['command']}: {item['problem']}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
