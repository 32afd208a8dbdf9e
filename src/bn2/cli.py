"""Command-line entry point: counts, basis listing, matrix exports, exact
solve, and the verification suite.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
domain error (an empty ``--out`` is a usage error), a command that runs
out of memory (``bn2 <command>: not enough memory``) or output that cannot
be written (``bn2 <command>: cannot write PATH: reason``, PATH being
``stdout`` or the ``--out`` path), 3 internal error (``bn2 <command>:
internal error: ...``).  Results go to stdout, diagnostics to stderr;
identical invocations produce byte-identical output.  The subcommands, their flags and their work are one table, and
``main`` alone writes each result and sets the exit code; ``argparse`` is
loaded only for help, a usage error or a command line that is not of the
table's canonical form.  No other bn2 module loads with this one: each
command imports its layers when it runs, so help and usage errors load none.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

# the enumerative, relation and T_g errors subclass ValueError; a non-integral count
# is an ArithmeticError.  Internal errors are RuntimeErrors; main handles both.
_DOMAIN_ERRORS = (ValueError, ArithmeticError)


def _parse_pair(text: str, flag: str):
    """The ``SchubertIndex`` of text, the value ``a0,a1`` of flag."""
    from bn2.enumerative import SchubertIndex

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


def _reject_unread(args, reads) -> None:
    """A usage error for a flag given to the command, other than --out, that
    is not one of reads, the flags its ``which`` reads."""
    for flag in _COMMANDS[args.command][2].split():
        if flag not in (*reads, "out") and getattr(args, flag.replace("-", "_")) is not None:
            _usage_error(args, f"--{flag} is not read by {args.command} {args.which}")


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout and flush it."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    elif sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


# each count of ``bn2 counts``: the flags it reads, in report order, each
# required unless it is in brackets, and its function in bn2.enumerative,
# called with those flags' values in that order (a pair parsed, an omitted
# bracketed flag left out)
_COUNTS = {
    "n": ("g d alpha", "count_n"),
    "m": ("g d alpha", "count_m"),
    "ell": ("g k", "count_ell"),
    "castelnuovo": ("g d alpha [beta]", "castelnuovo_N"),
    "T": ("i g k", "sum_T"),
    "D": ("i j g k", "sum_D"),
    "s16": ("i g k", "sum_S16"),
}


def _cmd_counts(args) -> str:
    flags, name = _COUNTS[args.which]
    for flag in flags.split():
        if flag[0] != "[" and getattr(args, flag) is None:
            _usage_error(args, f"--{flag} is required for this subcommand")
    reads = [flag.strip("[]") for flag in flags.split()]
    _reject_unread(args, reads)
    values = [
        _parse_pair(value, f"--{flag}") if flag in ("alpha", "beta") else value
        for flag in reads
        if (value := getattr(args, flag)) is not None
    ]
    # imported once the flags are checked: a usage error loads no counting layer
    from bn2 import enumerative

    return f"{getattr(enumerative, name)(*values)}\n"


def _cmd_basis(args) -> str:
    from bn2.basis import enumerate_basis

    return "".join(f"{lab}\n" for lab in enumerate_basis(args.g))


def _cmd_matrix(args) -> str:
    # the relation rows load only for the commands that build them, and the
    # writers only for the exports; this one loads no T_g
    from bn2 import export, relations

    if args.k is not None and args.k < 3:
        raise ValueError(
            f"the right-hand sides are defined for k >= 3 (g = 2k >= 6), got --k {args.k}"
        )
    if args.k is not None and args.g != 2 * args.k:  # before the rows are built
        raise ValueError(f"--k {args.k} needs --g {2 * args.k}")
    system = relations.build_relations(args.g)
    return (
        export.system_to_csv(system, args.k)
        if args.format == "csv"
        else export.system_to_json(system, args.k)
    )


def _cmd_tmatrix(args) -> str:
    # T_g loads only for the commands that use it, through the writers of
    # bn2.export; this one loads no solver
    from bn2 import export

    return (
        export.t_matrix_to_csv(args.g)
        if args.format == "csv"
        else export.t_matrix_to_json(args.g)
    )


def _cmd_solve(args) -> str:
    # the integer solve alone: no writer of bn2.export and no ClassExpression
    from bn2 import triangular
    from bn2.basis import enumerate_basis, fraction_text

    x, d = triangular._solve(args.k)
    # the rows the solve kept are not read again: let them go before the text
    # is built, when the process peaks
    triangular._genus.cache_clear()
    # each coefficient X_i / D in lowest terms, written as str(Fraction) writes it
    lines = [f"{lab} {fraction_text(v, d)}\n" for lab, v in zip(enumerate_basis(2 * args.k), x)]
    return "".join(lines)


# each check of ``bn2 verify``: its function in bn2.verify, the flag of its one
# value, and what it sweeps without it: 3..--k-max or a range of bn2.verify.
# A check reads its flag and, when it sweeps the degrees, --k-max
_CHECKS = {
    "closed-form": ("check_closed_form", "k", "degrees"),
    "pullback": ("check_pullback", "k", "degrees"),
    "m4": ("check_m4", None, None),
    "trigonal": ("check_trigonal_interior", None, None),
    "nonsingular": ("check_nonsingular", "g", "NONSINGULAR_GENERA"),
    "g5": ("check_g5_rank", None, None),
    "triangularity": ("check_triangularity", "g", "TRIANGULARITY_GENERA"),
    "all": ("run_all", None, "degrees"),
}


def _cmd_verify(args) -> tuple[str, list[str]]:
    """The JSON report of the checks, and the names of those that failed."""
    name, flag, sweep = _CHECKS[args.which]
    _reject_unread(args, [flag, "k-max"] if sweep == "degrees" else [flag])
    # the checks load only for this command
    from bn2 import verify

    check = getattr(verify, name)
    value = getattr(args, flag) if flag else None
    if value is not None:
        reports = [check(value)]
    elif sweep == "degrees":
        k_max = args.k_max if args.k_max is not None else 6
        if k_max < 3:
            raise ValueError(f"closed formula holds for k >= 3, got --k-max {k_max}")
        reports = check(k_max) if args.which == "all" else [check(k) for k in range(3, k_max + 1)]
    else:
        reports = [check(g) for g in getattr(verify, sweep)] if sweep else [check()]
    reports = sorted(reports, key=lambda rep: rep["check"])
    return verify.reports_to_json(reports), [rep["check"] for rep in reports if rep["status"] == "fail"]


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
_WHICH = {"counts": list(_COUNTS), "verify": list(_CHECKS)}


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
    if args.out == "":  # would read as no --out and write to stdout
        _usage_error(args, "--out needs a path")
    prefix = " ".join(["bn2", args.command, *([args.which] if hasattr(args, "which") else ())])
    try:
        text = args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"bn2 {args.command}: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        text = None  # reported once the handler has let go of the frames that hold the memory
    if text is None:
        print(f"{prefix}: not enough memory", file=sys.stderr)
        return 2
    text, failed = (text, []) if isinstance(text, str) else text
    try:
        _emit(text, args.out)
    except OSError as exc:
        where = args.out or "stdout"
        print(f"{prefix}: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        if not args.out and sys.stdout is not None:
            # what stdout still buffers goes nowhere: the flush at exit passes
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 2
    for check in failed:
        print(f"FAIL {check}", file=sys.stderr)
    return 1 if failed else 0


def run() -> None:
    """The process entry of ``bn2`` and of ``python -m bn2.cli``: ``main``
    with the objects of start-up frozen (``gc.freeze``), so the collections
    of the run and the interpreter's collection at exit pass over them.  The
    exit stays the interpreter's own: atexit hooks run, stdout and stderr are
    flushed and a profiler writes its report.  ``main`` does not freeze: it
    is also called in a live process, by the tests and the benchmark's
    tracer, where the freeze would outlast the call."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
