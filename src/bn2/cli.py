"""Command-line entry point: counts, basis listing, matrix exports, exact
solve, and the verification suite.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
domain error or an ``--out`` path that cannot be written (reported as
``bn2 <command>: cannot write PATH: reason``), 3 internal error (a broken
invariant of the program, reported as ``bn2 <command>: internal error:
...``).  Results go to stdout, diagnostics to stderr.  Identical
invocations produce byte-identical output.  The subcommands and flags are
one table; ``argparse`` is loaded only for help, a usage error or a command
line that is not of the table's canonical form.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from types import SimpleNamespace

from bn2 import enumerative
from bn2.basis import enumerate_basis
from bn2.enumerative import SchubertIndex
from bn2.exactnum import fraction_text

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


def _usage_error(args, message: str) -> None:
    """Exit 2 with the subcommand's argparse usage and message on stderr; the
    parser is built only here."""
    head = [args.command, *([args.which] if hasattr(args, "which") else ())]
    build_parser().parse_args(head).parser.error(message)


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            _usage_error(args, f"--{name} is required for this subcommand")


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


def _cmd_counts(args) -> int:
    which = args.which
    try:
        if which == "n":
            _require(args, "g", "d", "alpha")
            value = enumerative.count_n(args.g, args.d, _parse_pair(args.alpha, "--alpha"))
        elif which == "m":
            _require(args, "g", "d", "alpha")
            value = enumerative.count_m(args.g, args.d, _parse_pair(args.alpha, "--alpha"))
        elif which == "ell":
            _require(args, "g", "k")
            value = enumerative.count_ell(args.g, args.k)
        elif which == "castelnuovo":
            _require(args, "g", "d", "alpha")
            beta = _parse_pair(args.beta, "--beta") if args.beta else SchubertIndex(0, 0)
            value = enumerative.castelnuovo_N(
                args.g, args.d, _parse_pair(args.alpha, "--alpha"), beta
            )
        elif which == "T":
            _require(args, "i", "g", "k")
            value = enumerative.sum_T(args.i, args.g, args.k)
        elif which == "D":
            _require(args, "i", "j", "g", "k")
            value = enumerative.sum_D(args.i, args.j, args.g, args.k)
        else:  # s16
            _require(args, "i", "g", "k")
            value = enumerative.sum_S16(args.i, args.g, args.k)
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 counts {which}: {exc}", file=sys.stderr)
        return 2
    return _emit(f"{value}\n", args.out, f"bn2 counts {which}")


def _cmd_basis(args) -> int:
    try:
        labels = enumerate_basis(args.g)
    except ValueError as exc:
        print(f"bn2 basis: {exc}", file=sys.stderr)
        return 2
    return _emit("".join(f"{lab}\n" for lab in labels), args.out, "bn2 basis")


def _cmd_matrix(args) -> int:
    # the relation rows load only for the commands that build them
    from bn2 import relations

    try:
        if args.k is not None and args.k < 3:
            raise ValueError(
                f"the right-hand sides are defined for k >= 3 (g = 2k >= 6), got --k {args.k}"
            )
        system = relations.build_relations(args.g)
        if args.k is not None and args.g != 2 * args.k:
            raise ValueError(f"--k {args.k} needs --g {2 * args.k}")
        text = (
            relations.system_to_csv(system, args.k)
            if args.format == "csv"
            else relations.system_to_json(system, args.k)
        )
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 matrix: {exc}", file=sys.stderr)
        return 2
    return _emit(text, args.out, "bn2 matrix")


def _cmd_tmatrix(args) -> int:
    # T_g loads only for the commands that use it; this one loads no solver
    from bn2 import triangular

    try:
        text = (
            triangular.t_matrix_to_csv(args.g)
            if args.format == "csv"
            else triangular.t_matrix_to_json(args.g)
        )
    except ValueError as exc:
        print(f"bn2 tmatrix: {exc}", file=sys.stderr)
        return 2
    return _emit(text, args.out, "bn2 tmatrix")


def _cmd_solve(args) -> int:
    from bn2 import triangular

    try:
        x, d = triangular._solve(args.k)
    except _DOMAIN_ERRORS as exc:
        print(f"bn2 solve: {exc}", file=sys.stderr)
        return 2
    # each coefficient X_i / D in lowest terms, written as str(Fraction) writes it
    lines = [f"{lab} {fraction_text(v, d)}\n" for lab, v in zip(enumerate_basis(2 * args.k), x)]
    return _emit("".join(lines), args.out, "bn2 solve")


def _cmd_verify(args) -> int:
    # the checks load only for this command
    from bn2 import verify

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
    text = verify.reports_to_json(reports)
    if _emit(text, args.out, f"bn2 verify {which}"):
        return 2
    failures = [rep for rep in reports if rep.failed]
    for rep in failures:
        print(f"FAIL {rep.check}", file=sys.stderr)
    return 1 if failures else 0


# each flag of the subcommands, once: its type (int, str or a tuple of
# choices), default and help
_FLAGS = {
    "g": (int, None, "genus"),
    "k": (int, None, "pencil degree (g = 2k)"),
    "k-max": (int, None, "largest k to test"),
    "d": (int, None, "degree of the pencil"),
    "alpha": (str, None, "ramification pair a0,a1"),
    "beta": (str, None, "second ramification pair b0,b1"),
    "i": (int, None, "first index"),
    "j": (int, None, "second index"),
    "format": (("csv", "json"), "csv", None),
    "out": (str, None, "write output to PATH instead of stdout"),
}

# each subcommand: its function, help, its flags in usage order and the
# flag main requires
_COMMANDS = {
    "counts": (_cmd_counts, "evaluate one enumerative count", "g k d alpha beta i j out", None),
    "basis": (_cmd_basis, "list the generators at a genus", "g out", "g"),
    "matrix": (_cmd_matrix, "export the relation matrix Q_g", "g k format out", "g"),
    "tmatrix": (_cmd_tmatrix, "export the triangularizing matrix T_g", "g format out", "g"),
    "solve": (_cmd_solve, "solve for the degree-k class coefficients", "k out", "k"),
    "verify": (_cmd_verify, "run verification checks (JSON report)", "g k k-max out", None),
}

# the choices of the positional ``which`` of the subcommands that take one
_WHICH = {
    "counts": "n m ell castelnuovo T D s16".split(),
    "verify": "closed-form pullback m4 trigonal nonsingular g5 triangularity all".split(),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``: the one parser of help, usage
    and argument errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bn2",
        description="Exact computation of the codimension-two Brill-Noether class",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command in _WHICH:
            p.add_argument("which", choices=_WHICH[command])
        for flag in flags.split():
            kind, default, text = _FLAGS[flag]
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(f"--{flag}", default=default, help=text, **typed)
        p.set_defaults(func=func, parser=p)
    return parser


def _parse(argv: list[str]):
    """The namespace of ``build_parser().parse_args(argv)`` without its
    ``parser``, for an argv of the form ``<command> [<which>] --flag value
    ...`` with each flag of the command at most once, an int of ASCII digits,
    a choice of the table and no value that starts with ``-``; None for any
    other argv, which argparse parses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, flags, _ = _COMMANDS[argv[0]]
    flags = flags.split()
    args = {"command": argv[0], "func": func}
    rest = argv[1:]
    if argv[0] in _WHICH:
        if not rest or rest[0] not in _WHICH[argv[0]]:
            return None
        args["which"], rest = rest[0], rest[1:]
    names = rest[::2]
    if len(rest) % 2 or len(set(names)) != len(names):
        return None
    args.update((flag.replace("-", "_"), _FLAGS[flag][1]) for flag in flags)
    for name, value in zip(names, rest[1::2]):
        flag = name[2:]
        if name[:2] != "--" or flag not in flags or value[:1] == "-":
            return None
        kind = _FLAGS[flag][0]
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        elif kind is not str and value not in kind:
            return None
        args[flag.replace("-", "_")] = value
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except ValueError:  # an int longer than int() converts
        args = None
    if args is None:
        args = build_parser().parse_args(argv)
    # a missing flag is reported with the subcommand's own usage
    required = _COMMANDS[args.command][3]
    if required and getattr(args, required) is None:
        _usage_error(args, f"--{required} is required for {args.command}")
    try:
        return args.func(args)
    except RuntimeError as exc:
        print(f"bn2 {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
