"""Command-line entry point: counts, basis listing, matrix exports, exact
solve, and the verification suite.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
domain error or an ``--out`` path that cannot be written (reported as
``bn2 <command>: cannot write PATH: reason``), 3 internal error (a broken
invariant of the program, reported as ``bn2 <command>: internal error:
...``).  Results go to stdout, diagnostics to stderr.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from bn2 import enumerative
from bn2.basis import enumerate_basis
from bn2.enumerative import SchubertIndex
from bn2.relations import (
    build_relations,
    solve_class,
    system_to_csv,
    system_to_json,
    t_matrix_to_csv,
    t_matrix_to_json,
)
from bn2 import verify

# the enumerative and solver errors subclass ValueError; a non-integral count
# is an ArithmeticError.  Internal errors are RuntimeErrors, handled in main.
_DOMAIN_ERRORS = (ValueError, ArithmeticError)


def _parse_pair(text: str, flag: str) -> SchubertIndex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects 'a0,a1', got {text!r}")
    try:
        return SchubertIndex(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _require(args, parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            parser.error(f"--{name} is required for this subcommand")


def _emit(text: str, out: str | None, prefix: str) -> int:
    """Write text to the file out, or to stdout; the exit code: 0, or 2 with
    a message on stderr when out cannot be written."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"{prefix}: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_counts(args, parser) -> int:
    which = args.which
    try:
        if which == "n":
            _require(args, parser, "g", "d", "alpha")
            value = enumerative.count_n(args.g, args.d, _parse_pair(args.alpha, "--alpha"))
        elif which == "m":
            _require(args, parser, "g", "d", "alpha")
            value = enumerative.count_m(args.g, args.d, _parse_pair(args.alpha, "--alpha"))
        elif which == "ell":
            _require(args, parser, "g", "k")
            value = enumerative.count_ell(args.g, args.k)
        elif which == "castelnuovo":
            _require(args, parser, "g", "d", "alpha")
            beta = _parse_pair(args.beta, "--beta") if args.beta else SchubertIndex(0, 0)
            value = enumerative.castelnuovo_N(
                args.g, args.d, _parse_pair(args.alpha, "--alpha"), beta
            )
        elif which == "T":
            _require(args, parser, "i", "g", "k")
            value = enumerative.sum_T(args.i, args.g, args.k)
        elif which == "D":
            _require(args, parser, "i", "j", "g", "k")
            value = enumerative.sum_D(args.i, args.j, args.g, args.k)
        else:  # s16
            _require(args, parser, "i", "g", "k")
            value = enumerative.sum_S16(args.i, args.g, args.k)
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 counts {which}: {exc}", file=sys.stderr)
        return 2
    return _emit(f"{value}\n", args.out, f"bn2 counts {which}")


def _cmd_basis(args, parser) -> int:
    try:
        labels = enumerate_basis(args.g)
    except ValueError as exc:
        print(f"bn2 basis: {exc}", file=sys.stderr)
        return 2
    return _emit("".join(f"{lab}\n" for lab in labels), args.out, "bn2 basis")


def _cmd_matrix(args, parser) -> int:
    try:
        system = build_relations(args.g)
        if args.k is not None and args.g != 2 * args.k:
            raise ValueError(f"--k {args.k} needs --g {2 * args.k}")
        text = (
            system_to_csv(system, args.k)
            if args.format == "csv"
            else system_to_json(system, args.k)
        )
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 matrix: {exc}", file=sys.stderr)
        return 2
    return _emit(text, args.out, "bn2 matrix")


def _cmd_tmatrix(args, parser) -> int:
    try:
        text = t_matrix_to_csv(args.g) if args.format == "csv" else t_matrix_to_json(args.g)
    except ValueError as exc:
        print(f"bn2 tmatrix: {exc}", file=sys.stderr)
        return 2
    return _emit(text, args.out, "bn2 tmatrix")


def _cmd_solve(args, parser) -> int:
    try:
        solved = solve_class(args.k)
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 solve: {exc}", file=sys.stderr)
        return 2
    text = "".join(f"{lab} {value}\n" for lab, value in solved.coefficients.items())
    return _emit(text, args.out, "bn2 solve")


def _cmd_verify(args, parser) -> int:
    which = args.which
    k_max = args.k_max if args.k_max is not None else 6
    sweeps_k = which == "all" or (which in ("closed-form", "pullback") and args.k is None)
    try:
        if sweeps_k and k_max < 3:
            raise ValueError(f"closed formula holds for k >= 3, got --k-max {k_max}")
        if which == "all":
            reports = verify.run_all(k_max=k_max)
        elif which == "closed-form":
            ks = [args.k] if args.k is not None else range(3, k_max + 1)
            reports = [verify.check_closed_form(k) for k in ks]
        elif which == "pullback":
            ks = [args.k] if args.k is not None else range(3, k_max + 1)
            reports = [verify.check_pullback(k) for k in ks]
        elif which == "m4":
            reports = [verify.check_m4()]
        elif which == "trigonal":
            reports = [verify.check_trigonal_interior()]
        elif which == "g5":
            reports = [verify.check_g5_rank()]
        elif which == "nonsingular":
            gs = [args.g] if args.g is not None else range(6, 17)
            reports = [verify.check_nonsingular(g) for g in gs]
        else:  # triangularity
            gs = [args.g] if args.g is not None else range(6, 11)
            reports = [verify.check_triangularity(g) for g in gs]
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 verify {which}: {exc}", file=sys.stderr)
        return 2
    reports = sorted(reports, key=lambda rep: rep.check)
    text = json.dumps([rep.to_dict() for rep in reports], indent=2) + "\n"
    if _emit(text, args.out, f"bn2 verify {which}"):
        return 2
    failures = [rep for rep in reports if rep.failed]
    for rep in failures:
        print(f"FAIL {rep.check}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bn2",
        description="Exact computation of the codimension-two Brill-Noether class",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        if "g" in flags:
            p.add_argument("--g", type=int, help="genus")
        if "k" in flags:
            p.add_argument("--k", type=int, help="pencil degree (g = 2k)")
        if "k-max" in flags:
            p.add_argument("--k-max", dest="k_max", type=int, help="largest k to test")
        if "d" in flags:
            p.add_argument("--d", type=int, help="degree of the pencil")
        if "alpha" in flags:
            p.add_argument("--alpha", help="ramification pair a0,a1")
        if "beta" in flags:
            p.add_argument("--beta", help="second ramification pair b0,b1")
        if "ij" in flags:
            p.add_argument("--i", type=int, help="first index")
            p.add_argument("--j", type=int, help="second index")
        if "format" in flags:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write output to PATH instead of stdout")

    p_counts = sub.add_parser("counts", help="evaluate one enumerative count")
    p_counts.add_argument(
        "which", choices=("n", "m", "ell", "castelnuovo", "T", "D", "s16")
    )
    common(p_counts, "g", "k", "d", "alpha", "beta", "ij")
    p_counts.set_defaults(func=_cmd_counts)

    p_basis = sub.add_parser("basis", help="list the generators at a genus")
    common(p_basis, "g")
    p_basis.set_defaults(func=_cmd_basis)

    p_matrix = sub.add_parser("matrix", help="export the relation matrix Q_g")
    common(p_matrix, "g", "k", "format")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_t = sub.add_parser("tmatrix", help="export the triangularizing matrix T_g")
    common(p_t, "g", "format")
    p_t.set_defaults(func=_cmd_tmatrix)

    p_solve = sub.add_parser("solve", help="solve for the degree-k class coefficients")
    common(p_solve, "k")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run verification checks (JSON report)")
    p_verify.add_argument(
        "which",
        choices=(
            "closed-form",
            "pullback",
            "m4",
            "trigonal",
            "nonsingular",
            "g5",
            "triangularity",
            "all",
        ),
    )
    common(p_verify, "g", "k", "k-max")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "basis" and args.g is None:
        parser.error("--g is required for basis")
    if args.command in ("matrix", "tmatrix") and args.g is None:
        parser.error("--g is required for " + args.command)
    if args.command == "solve" and args.k is None:
        parser.error("--k is required for solve")
    try:
        return args.func(args, parser)
    except RuntimeError as exc:
        print(f"bn2 {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
