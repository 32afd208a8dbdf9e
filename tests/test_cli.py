import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bn2
from bn2.cli import _CHECKS, _COMMANDS, _FLAGS, _WHICH, _parse, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_n(capsys):
    code, out, _ = run(capsys, "counts", "n", "--g", "4", "--d", "3", "--alpha", "0,1")
    assert code == 0
    assert out == "24\n"


def test_counts_m(capsys):
    code, out, _ = run(capsys, "counts", "m", "--g", "4", "--d", "3", "--alpha", "0,1")
    assert code == 0 and out == "264\n"


def test_counts_ell(capsys):
    code, out, _ = run(capsys, "counts", "ell", "--g", "4", "--k", "3")
    assert code == 0 and out == "6\n"


def test_counts_castelnuovo(capsys):
    code, out, _ = run(
        capsys, "counts", "castelnuovo", "--g", "2", "--d", "3", "--alpha", "0,1", "--beta", "0,1"
    )
    assert code == 0 and out == "2\n"


def test_counts_castelnuovo_rejects_a_negative_genus(capsys):
    argv = ("counts", "castelnuovo", "--g", "-1", "--d", "2", "--alpha", "0,1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "bn2 counts castelnuovo: castelnuovo_N is defined for g >= 0, got g=-1\n"


@pytest.mark.parametrize("joined", [False, True], ids=["table", "argparse"])
def test_an_empty_beta_is_parsed(capsys, joined):
    # an empty --beta read as no --beta and gave the one-point count with
    # exit 0; it is parsed as an empty --alpha is, whichever parser read it
    argv = ["counts", "castelnuovo", "--g", "2", "--d", "3", "--alpha", "0,1"]
    extra = ["--beta="] if joined else ["--beta", ""]
    assert (_parse([*argv, *extra]) is None) == joined
    message = "bn2 counts castelnuovo: --beta expects 'a0,a1', got ''\n"
    assert run(capsys, *argv, *extra) == (2, "", message)
    assert run(capsys, *argv, "--beta", "0,0") == (0, "2\n", "")


def test_a_count_parses_its_pairs_in_report_order(capsys):
    # the values are read in the order _COUNTS lists the flags, so of two bad
    # pairs --alpha is the one reported
    argv = ("counts", "castelnuovo", "--g", "2", "--d", "3", "--alpha", "1,0", "--beta", "1,0")
    message = "bn2 counts castelnuovo: --alpha: need 0 <= a0 <= a1, got (1,0)\n"
    assert run(capsys, *argv) == (2, "", message)


def test_counts_T_and_D_and_s16(capsys):
    assert run(capsys, "counts", "T", "--i", "2", "--g", "6", "--k", "3")[:2] == (0, "144\n")
    assert run(capsys, "counts", "D", "--i", "2", "--j", "2", "--g", "6", "--k", "3")[:2] == (
        0,
        "72\n",
    )
    assert run(capsys, "counts", "s16", "--i", "3", "--g", "6", "--k", "3")[:2] == (0, "192\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["T", "--i", "2", "--g", "10", "--k", "100000000"],
        ["s16", "--i", "5", "--g", "10", "--k", "100000000"],
        ["D", "--i", "2", "--j", "3", "--g", "10", "--k", "100000000"],
    ],
)
def test_counts_sums_at_a_huge_degree_are_immediate(capsys, argv):
    # the sums walk only the counted indices of one weight, never range(k)
    assert run(capsys, "counts", *argv) == (0, "0\n", "")


def test_counts_domain_error_is_usage(capsys):
    code, out, err = run(capsys, "counts", "n", "--g", "4", "--d", "3", "--alpha", "0,0")
    assert code == 2
    assert out == ""
    assert "rho" in err


@pytest.mark.parametrize(
    "argv, which, k",
    [
        (["T", "--i", "2", "--g", "10", "--k", "0"], "T", 0),
        (["D", "--i", "2", "--j", "3", "--g", "10", "--k", "-2"], "D", -2),
        (["s16", "--i", "5", "--g", "10", "--k", "0"], "s16", 0),
    ],
)
def test_counts_sums_reject_a_degree_below_1(capsys, argv, which, k):
    code, out, err = run(capsys, "counts", *argv)
    assert (code, out) == (2, "")
    assert err == f"bn2 counts {which}: need k >= 1, got k={k}\n"


def test_counts_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "counts", "n", "--g", "4")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("counts", "n", "--g", "4", "--d", "3"), "--alpha is required for this subcommand"),
        (("counts", "T", "--g", "6", "--k", "3"), "--i is required for this subcommand"),
        (("basis",), "--g is required for basis"),
        (("matrix", "--k", "3"), "--g is required for matrix"),
        (("tmatrix", "--format", "json"), "--g is required for tmatrix"),
        (("solve",), "--k is required for solve"),
    ],
)
def test_missing_flag_prints_the_subcommand_usage(capsys, argv, message):
    prog = f"bn2 {argv[0]}"
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert captured.err.endswith(f"\n{prog}: error: {message}\n")


SOLVE_HELP = """usage: bn2 solve [-h] [--k K] [--out OUT]

options:
  -h, --help  show this help message and exit
  --k K       pencil degree (g = 2k)
  --out OUT   write output to PATH instead of stdout
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (("solve", "--help"), 0, SOLVE_HELP, ""),
        (
            ("solve",),
            2,
            "",
            SOLVE_HELP.splitlines(True)[0] + "bn2 solve: error: --k is required for solve\n",
        ),
    ],
)
def test_help_and_usage_errors_come_from_argparse(capsys, argv, code, out, err):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


# the help texts that the command, flag and which tables feed, as argparse
# wrote them before the subcommands were dispatched from those tables
TOP_HELP = """usage: bn2 [-h] {counts,basis,matrix,tmatrix,solve,verify} ...

Exact computation of the codimension-two Brill-Noether class

positional arguments:
  {counts,basis,matrix,tmatrix,solve,verify}
    counts              evaluate one enumerative count
    basis               list the generators at a genus
    matrix              export the relation matrix Q_g
    tmatrix             export the triangularizing matrix T_g
    solve               solve for the degree-k class coefficients
    verify              run verification checks (JSON report)

options:
  -h, --help            show this help message and exit
"""

COUNTS_HELP = """usage: bn2 counts [-h] [--g G] [--k K] [--d D] [--alpha ALPHA] [--beta BETA]
                  [--i I] [--j J] [--out OUT]
                  {n,m,ell,castelnuovo,T,D,s16}

positional arguments:
  {n,m,ell,castelnuovo,T,D,s16}

options:
  -h, --help            show this help message and exit
  --g G                 genus
  --k K                 pencil degree (g = 2k)
  --d D                 degree of the pencil
  --alpha ALPHA         ramification pair a0,a1
  --beta BETA           second ramification pair b0,b1
  --i I                 first index
  --j J                 second index
  --out OUT             write output to PATH instead of stdout
"""

VERIFY_HELP = """usage: bn2 verify [-h] [--g G] [--k K] [--k-max K_MAX] [--out OUT]
                  {closed-form,pullback,m4,trigonal,nonsingular,g5,triangularity,all}

positional arguments:
  {closed-form,pullback,m4,trigonal,nonsingular,g5,triangularity,all}

options:
  -h, --help            show this help message and exit
  --g G                 genus
  --k K                 pencil degree (g = 2k)
  --k-max K_MAX         largest k to test
  --out OUT             write output to PATH instead of stdout
"""


@pytest.mark.parametrize(
    "argv, text",
    [
        (("--help",), TOP_HELP),
        (("counts", "--help"), COUNTS_HELP),
        (("verify", "--help"), VERIFY_HELP),
    ],
    ids=["bn2", "counts", "verify"],
)
def test_help_texts_are_pinned(capsys, monkeypatch, argv, text):
    # argparse wraps its help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (0, text, "")


def test_an_int_too_long_to_convert_goes_to_argparse(capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() reads every length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--k", "9" * 641])
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"bn2 solve: error: argument --k: invalid int value: '{'9' * 641}'\n")


# the table's words, and the forms only argparse parses: an =-joined or
# abbreviated flag, a signed, zero-led or non-ASCII int, help and "--"
_WORDS = sorted(
    {*_COMMANDS, *(f"--{flag}" for flag in _FLAGS), "--k=8", "--fo", "-h", "--"}
    | {w for which in _WHICH.values() for w in which}
    | {v for kind, _, _ in _FLAGS.values() if isinstance(kind, tuple) for v in kind}
    | {"0", "8", "08", "\u0668", "-3", "0,1", ""}
)


@st.composite
def _argvs(draw):
    """An argv of a command, its ``which`` if it has one and some of its
    flags, each with a value of its kind, and then at most one change: a
    word replaced or inserted, the last two words repeated, or the words in
    another order."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command, *([draw(st.sampled_from(_WHICH[command]))] if command in _WHICH else [])]
    flags = _COMMANDS[command][2].split()
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        kind = _FLAGS[flag][0]
        fits = kind if isinstance(kind, tuple) else ("0", "8", "12") if kind is int else ("0,1",)
        argv += [f"--{flag}", draw(st.sampled_from(fits))]
    change = draw(st.sampled_from(["none", "replace", "insert", "repeat", "permute"]))
    if change == "permute":
        return draw(st.permutations(argv))
    if change == "repeat":
        return argv + argv[-2:]
    if change != "none":
        at = draw(st.integers(0, len(argv) - (change == "replace")))
        argv[at : at + (change == "replace")] = [draw(st.sampled_from(_WORDS))]
    return argv


@settings(max_examples=1000, deadline=None)
@given(_argvs())
@example(["solve", "--k", "8"])
@example(["verify", "all", "--k-max", "10"])
@example(["matrix", "--g", "48", "--k", "24", "--format", "json", "--out", "q.json"])
@example(["counts", "castelnuovo", "--g", "2", "--d", "3", "--alpha", "0,1", "--beta", "0,1"])
def test_the_table_parse_agrees_with_argparse(argv):
    # an argv the table parses gives argparse's namespace; any other goes to
    # argparse whole
    fast = _parse(argv)
    if fast is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            slow = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the table parses {argv!r}, argparse rejects it: {err.getvalue()}")
    assert vars(fast) == {name: v for name, v in vars(slow).items() if name != "parser"}


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "frobnicate")
    assert exc.value.code == 2


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "--g", "6")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 25
    assert lines[0] == "k1^2"
    assert "d(0,5)" in lines


def test_solve_k3(capsys):
    code, out, _ = run(capsys, "solve", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 25
    assert "k1^2 41/144" in lines
    assert "k2 -4" in lines
    assert "d(1,4) 3251/360" in lines


def test_solve_k4_matches_closed_formula(capsys):
    from bn2.basis import enumerate_basis
    from bn2.classes import parse_label
    from bn2.verify import closed_form_class

    code, out, _ = run(capsys, "solve", "--k", "4")
    assert code == 0
    expected = closed_form_class(4)
    got = dict(line.split(" ", 1) for line in out.splitlines())
    assert len(got) == len(enumerate_basis(8))
    for text, value in got.items():
        assert str(expected[parse_label(text)]) == value


@pytest.mark.parametrize("k", range(3, 41))
def test_solve_text_is_the_solve_class_view(capsys, k):
    # the CLI writes each X_i / D from the integers; solve_class is the
    # Fraction view of the same solution
    from bn2.triangular import solve_class

    code, out, _ = run(capsys, "solve", "--k", str(k))
    assert code == 0
    assert out == "".join(f"{lab} {v}\n" for lab, v in solve_class(k).coefficients.items())


def test_matrix_csv_to_file(tmp_path, capsys):
    target = tmp_path / "q6.csv"
    code, out, _ = run(capsys, "matrix", "--g", "6", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 26
    assert lines[0].startswith("source,")


def test_matrix_json_with_k(capsys):
    code, out, _ = run(capsys, "matrix", "--g", "6", "--format", "json", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["rhs"] == "12"


def test_matrix_k_genus_mismatch(capsys):
    code, _, err = run(capsys, "matrix", "--g", "6", "--k", "4")
    assert code == 2 and "needs" in err


def test_matrix_k_genus_mismatch_builds_no_rows():
    # --g and --k are checked to agree before the genus-G rows are built,
    # whose build alone runs for about a minute at g = 2,000,000
    proc = _fresh(("matrix", "--g", "2000000", "--k", "3"), capture_output=True, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "bn2 matrix: --k 3 needs --g 6\n")


@pytest.mark.parametrize("k", [-1, 0, 2])
@pytest.mark.parametrize("g", [-2, 0, 4, 6])
def test_matrix_k_below_3_names_the_domain(capsys, g, k):
    # checked before the genus, so no --g that the message could suggest works
    code, out, err = run(capsys, "matrix", "--g", str(g), "--k", str(k))
    assert (code, out) == (2, "")
    assert err == (
        f"bn2 matrix: the right-hand sides are defined for k >= 3 (g = 2k >= 6), got --k {k}\n"
    )


def test_tmatrix_csv(capsys):
    code, out, _ = run(capsys, "tmatrix", "--g", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 26
    assert lines[0].startswith("label,")


def test_outputs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "matrix", "--g", "7", "--format", "json")
    _, second, _ = run(capsys, "matrix", "--g", "7", "--format", "json")
    assert first == second


def test_verify_m4(capsys):
    code, out, _ = run(capsys, "verify", "m4")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["check"] == "m4"
    assert reports[0]["status"] == "pass"


def test_verify_g5_includes_convention_note(capsys):
    code, out, _ = run(capsys, "verify", "g5")
    assert code == 0
    reports = json.loads(out)
    assert any("convention" in note for note in reports[0]["notes"])


def test_verify_nonsingular_single_genus(capsys):
    code, out, _ = run(capsys, "verify", "nonsingular", "--g", "7")
    assert code == 0
    reports = json.loads(out)
    assert reports == [
        {
            "check": "nonsingular[g=7]",
            "status": "pass",
            "expected": "det(Q_g) != 0",
            "actual": "nonzero",
            "diff": [],
            "notes": [],
        }
    ]


def test_verify_failure_exits_1(capsys, monkeypatch):
    from bn2 import verify

    report = {"check": "m4", "status": "fail", "expected": "x", "actual": "y", "diff": [], "notes": []}
    monkeypatch.setattr(verify, "check_m4", lambda: report)
    code, out, err = run(capsys, "verify", "m4")
    assert code == 1
    assert "FAIL m4" in err
    assert json.loads(out)[0]["status"] == "fail"


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--k-max", "3")
    assert code == 0
    reports = json.loads(out)
    names = [rep["check"] for rep in reports]
    assert names == sorted(names)
    assert "trigonal-table" in names
    assert all(rep["status"] != "fail" for rep in reports)


def test_verify_closed_form_reports_formula_domain(capsys):
    code, out, err = run(capsys, "verify", "closed-form", "--k", "2")
    assert code == 2 and out == ""
    assert "closed formula holds for k >= 3, got k=2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "closed-form", "--k-max", "2"),
        ("verify", "pullback", "--k-max", "0"),
        ("verify", "all", "--k-max", "1"),
    ],
)
def test_verify_k_max_below_3_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"bn2 verify {argv[1]}: closed formula holds for k >= 3, got --k-max {argv[-1]}\n"


# a valid argv of each count and check that gives every flag it reads
_READING = {
    "counts n": "--g 4 --d 3 --alpha 0,1",
    "counts m": "--g 4 --d 3 --alpha 0,1",
    "counts ell": "--g 4 --k 3",
    "counts castelnuovo": "--g 2 --d 3 --alpha 0,1 --beta 0,1",
    "counts T": "--i 2 --g 6 --k 3",
    "counts D": "--i 2 --j 2 --g 6 --k 3",
    "counts s16": "--i 3 --g 6 --k 3",
    "verify closed-form": "--k 3 --k-max 3",
    "verify pullback": "--k 3 --k-max 3",
    "verify all": "--k-max 3",
    "verify nonsingular": "--g 6",
    "verify triangularity": "--g 6",
    "verify m4": "",
    "verify trigonal": "",
    "verify g5": "",
}
_VALUES = {
    "g": "6", "k": "3", "k-max": "3", "d": "3", "alpha": "0,1", "beta": "0,1", "i": "2", "j": "2"
}
# each flag, other than --out, that a count or check does not read
_UNREAD = [
    (head, flag)
    for head, given in _READING.items()
    for flag in _COMMANDS[head.split()[0]][2].split()
    if flag != "out" and f"--{flag} " not in f"{given} "
]


def _usage_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


@pytest.mark.parametrize("head", sorted(_READING), ids=lambda head: head.replace(" ", "-"))
def test_every_flag_a_count_or_check_reads_is_accepted(tmp_path, capsys, head):
    assert sorted(_READING) == sorted(f"{c} {which}" for c in _WHICH for which in _WHICH[c])
    target = tmp_path / "out"  # every subcommand reads --out
    code, out, err = run(capsys, *head.split(), *_READING[head].split(), "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text(encoding="utf-8")


@pytest.mark.parametrize("joined", [False, True], ids=["table", "argparse"])
@pytest.mark.parametrize(
    "head, flag", _UNREAD, ids=[f"{h.replace(' ', '-')}--{f}" for h, f in _UNREAD]
)
def test_a_flag_its_count_or_check_does_not_read_is_a_usage_error(
    capsys, monkeypatch, head, flag, joined
):
    # --flag=value is left to argparse; a check that ran would call None
    from bn2 import verify

    command, which = head.split()
    if command == "verify":
        monkeypatch.setattr(verify, _CHECKS[which][0], None)
    extra = [f"--{flag}={_VALUES[flag]}"] if joined else [f"--{flag}", _VALUES[flag]]
    argv = [command, which, *_READING[head].split(), *extra]
    assert (_parse(argv) is None) == joined
    err = _usage_exit(capsys, argv)
    assert err.startswith(f"usage: bn2 {command} [-h]")
    assert err.endswith(f"\nbn2 {command}: error: --{flag} is not read by {head}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("counts", "n", "--g", "4", "--d", "3", "--alpha", "0,1", "--beta", "1,1"), "--beta"),
        (("verify", "m4", "--g", "7"), "--g"),
        (("verify", "nonsingular", "--k", "3"), "--k"),
        (("verify", "all", "--k", "4", "--k-max", "2"), "--k"),
    ],
)
def test_a_flag_that_was_dropped_is_a_usage_error(capsys, argv, flag):
    # these printed the one-point count 24, ran m4, ran the g = 6..16 sweep,
    # and reported --k-max 2 as a domain error while --k went unread
    err = _usage_exit(capsys, argv)
    assert err.endswith(f"error: {flag} is not read by {argv[0]} {argv[1]}\n")


def test_verify_k_overrides_k_max(capsys):
    code, out, _ = run(capsys, "verify", "closed-form", "--k", "3", "--k-max", "2")
    assert code == 0
    assert [rep["check"] for rep in json.loads(out)] == ["closed-form[k=3]"]


def test_verify_nonsingular_reports_square_domain(capsys):
    code, out, err = run(capsys, "verify", "nonsingular", "--g", "5")
    assert code == 2 and out == ""
    assert "Q_g is square only for g >= 6, got g=5" in err


@pytest.mark.parametrize("g", [3, 4, 5])
def test_verify_triangularity_reports_the_t_domain(capsys, g):
    code, out, err = run(capsys, "verify", "triangularity", "--g", str(g))
    assert code == 2 and out == ""
    assert err == f"bn2 verify triangularity: T_g is defined for g >= 6, got g={g}\n"


def test_solve_reports_degree_domain(capsys):
    code, out, err = run(capsys, "solve", "--k", "2")
    assert code == 2 and out == ""
    assert "the class is solved for k >= 3 (Q_g is square for g = 2k >= 6), got k=2" in err


def test_solve_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "solve", "--k", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"bn2 solve: cannot write {target}: No such file or directory\n"
    assert not target.exists()


def test_verify_unwritable_out_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "m4", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"bn2 verify m4: cannot write {tmp_path}: Is a directory\n"


def test_internal_error_exits_3(capsys, monkeypatch):
    from bn2 import triangular

    def broken(k):
        raise RuntimeError("internal error: the solution at k=3 has a nonzero residual")

    monkeypatch.setattr(triangular, "_solve", broken)
    monkeypatch.setattr(triangular, "solve_class", broken)
    code, out, err = run(capsys, "solve", "--k", "3")
    assert code == 3 and out == ""
    assert err == "bn2 solve: internal error: the solution at k=3 has a nonzero residual\n"


# an argv of each subcommand and a callee that main reaches through it
RUNNER_CASES = [
    (("counts", "ell", "--g", "4", "--k", "3"), "bn2.enumerative.count_ell"),
    (("basis", "--g", "6"), "bn2.basis.enumerate_basis"),
    (("matrix", "--g", "6"), "bn2.relations.build_relations"),
    (("tmatrix", "--g", "6"), "bn2.export.t_matrix_to_csv"),
    (("solve", "--k", "3"), "bn2.triangular._solve"),
    (("verify", "m4"), "bn2.verify.check_m4"),
]


def _words(argv) -> str:
    """``bn2 <command>[ <which>]`` of an argv."""
    return " ".join(["bn2", *argv[: 2 if argv[0] in _WHICH else 1]])


@pytest.mark.parametrize("argv, callee", RUNNER_CASES, ids=[case[0][0] for case in RUNNER_CASES])
@pytest.mark.parametrize(
    "error, code",
    [(RuntimeError, 3), (ValueError, 2), (ArithmeticError, 2), (MemoryError, 2)],
    ids=["RuntimeError", "ValueError", "ArithmeticError", "MemoryError"],
)
def test_main_sets_each_exit_code(capsys, monkeypatch, argv, callee, error, code):
    # an internal error is reported under the command, a domain error under
    # the command and its which, and so is running out of memory, not as the
    # exit 1 of a failed check
    def broken(*args, **kwargs):
        raise error("the callee broke")

    monkeypatch.setattr(callee, broken)
    prefix = f"bn2 {argv[0]}" if code == 3 else _words(argv)
    message = "not enough memory" if error is MemoryError else "the callee broke"
    assert run(capsys, *argv) == (code, "", f"{prefix}: {message}\n")


@pytest.mark.parametrize(
    "argv", [case[0] for case in RUNNER_CASES[:4]], ids=[case[0][0] for case in RUNNER_CASES[:4]]
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"{_words(argv)}: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("joined", [False, True], ids=["table", "argparse"])
@pytest.mark.parametrize(
    "argv", [("solve", "--k", "3"), ("verify", "m4"), ("matrix", "--g", "6")],
    ids=["solve", "verify", "matrix"],
)
def test_an_empty_out_is_a_usage_error(capsys, monkeypatch, argv, joined):
    # an empty --out read as no --out, and the text went to stdout with exit
    # 0; it is rejected before any work, whichever parser read it
    for callee in ("bn2.triangular._solve", "bn2.verify.check_m4", "bn2.relations.build_relations"):
        monkeypatch.setattr(callee, None)
    extra = ["--out="] if joined else ["--out", ""]
    assert (_parse([*argv, *extra]) is None) == joined
    err = _usage_exit(capsys, [*argv, *extra])
    assert err.startswith(f"usage: bn2 {argv[0]} [-h]")
    assert err.endswith(f"\nbn2 {argv[0]}: error: --out needs a path\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [("basis", "--g", "6"), ("verify", "m4"), ("solve", "--k", "100")],
    ids=["basis", "verify", "solve"],
)
def test_a_full_stdout_is_reported_once(argv, buffered):
    # a failed write to stdout exits 2 with one line, and the interpreter's
    # own flush at exit finds nothing left to write
    env = {name: v for name, v in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(bn2.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bn2.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    message = f"{_words(argv)}: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr) == (2, message)


def test_a_failed_stdout_write_leaves_no_descriptor_open(monkeypatch, capsys):
    # an in-process caller whose stdout fails: main points stdout's descriptor
    # (here a pipe's write end) at /dev/null, and closes the descriptor it
    # opened to do so, at every call
    class Failing(io.TextIOBase):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self):
            return write_end

    read_end, write_end = os.pipe()
    opened, os_open = [], os.open
    monkeypatch.setattr(os, "open", lambda *args: opened.append(os_open(*args)) or opened[-1])
    monkeypatch.setattr(sys, "stdout", Failing())
    try:
        codes = [main(["basis", "--g", "6"]) for _ in range(3)]
    finally:
        monkeypatch.undo()
        os.close(read_end)
        os.close(write_end)
    message = f"bn2 basis: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert (codes, capsys.readouterr().err) == ([2] * 3, message * 3)
    assert len(opened) == 3
    for fd in opened:
        with pytest.raises(OSError) as info:
            os.fstat(fd)
        assert info.value.errno == errno.EBADF


def _fresh(argv, **kwargs):
    """bn2 run on argv in a fresh interpreter, with this checkout's src."""
    env = dict(os.environ)
    src = str(Path(bn2.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "bn2.cli", *argv], text=True, env=env, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [("basis", "--g", "6"), ("verify", "m4"), ("solve", "--k", "8")],
    ids=["basis", "verify", "solve"],
)
def test_a_closed_stdout_is_reported_once(argv):
    # with fd 1 closed the interpreter sets sys.stdout to None: the write is
    # a failed write to stdout like any other, exit 2 with one line
    proc = _fresh(argv, stderr=subprocess.PIPE, timeout=120, preexec_fn=lambda: os.close(1))
    message = f"{_words(argv)}: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    assert (proc.returncode, proc.stderr) == (2, message)


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--k", "9" * 641),
        ("basis", "--g", "9" * 641),
        ("matrix", "--g", "9" * 641),
        ("tmatrix", "--g", "9" * 641, "--format", "json"),
        ("verify", "closed-form", "--k", "9" * 641),
    ],
    ids=["solve", "basis", "matrix", "tmatrix", "verify"],
)
def test_a_genus_no_list_can_index_is_a_domain_error(argv):
    # the count of generators is checked before anything is built, so the
    # command fails at once instead of running until memory is gone
    proc = _fresh(argv, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"{_words(argv)}: the generating set at g=")
    assert proc.stderr.endswith(" has more generators than a list can index\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--k", "100000"),
        ("basis", "--g", "200000"),
        ("matrix", "--g", "200000"),
        ("tmatrix", "--g", "200000"),
        ("verify", "closed-form", "--k", "100000"),
    ],
    ids=["solve", "basis", "matrix", "tmatrix", "verify"],
)
def test_running_out_of_memory_is_reported_once(argv):
    # a genus whose generator count fits in sys.maxsize but not in memory: in
    # a child whose address space is capped at 96 MiB the build runs out in
    # under a second, and main reports it as exit 2, not the 1 of a failed check
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (96 * 2**20, hard))

    proc = _fresh(argv, capture_output=True, timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{_words(argv)}: not enough memory\n"


_H = 10**640  # a 641-digit value


@pytest.mark.parametrize(
    "argv, message",
    [
        (("n", "--g", 2 * _H, "--d", _H + 1, "--alpha", "0,1"), "count_n: g"),
        (("m", "--g", 2 * _H, "--d", _H + 1, "--alpha", "0,1"), "count_n: g"),
        (("ell", "--g", 2 * _H - 2, "--k", _H), "count_ell: k"),
        (("castelnuovo", "--g", _H, "--d", 3, "--alpha", "0,1"), "castelnuovo_N: g"),
        (("T", "--i", _H, "--g", 2 * _H, "--k", _H), "sum_T: i"),
        (("D", "--i", 2, "--j", 2, "--g", 2 * _H, "--k", _H), "sum_D: k"),
        (("D", "--i", 2, "--j", 2, "--g", 2 * _H + 1, "--k", _H), "sum_D: g"),
        (("s16", "--i", _H, "--g", 2 * _H, "--k", _H), "sum_S16: i"),
    ],
    ids=["n", "m", "ell", "castelnuovo", "T", "D", "D-off-2k", "s16"],
)
def test_a_count_beyond_exact_arithmetic_names_its_argument(argv, message):
    # a factorial or binomial that math.factorial and math.comb refuse is the
    # count's own domain error, not math's OverflowError text
    argv = ("counts", *map(str, argv))
    proc = _fresh(argv, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    bound = f"a factorial or binomial index exceeds {sys.maxsize}"
    assert proc.stderr == f"{_words(argv)}: {message} is too large, {bound}\n"


@pytest.mark.parametrize(
    "argv, value",
    [
        (("n", "--g", _H, "--d", _H, "--alpha", f"0,{_H - 1}"), (_H - 1) * _H * (_H + 1)),
        (
            ("m", "--g", _H, "--d", _H, "--alpha", f"0,{_H - 1}"),
            (_H - 1) * _H * (_H + 1) * (3 * _H - 1),
        ),
        (("castelnuovo", "--g", 2, "--d", _H + 3, "--alpha", f"{_H},{_H + 1}"), 2),
        (("castelnuovo", "--g", 2, "--d", _H, "--alpha", "0,1"), 0),
        (("T", "--i", 5, "--g", 10, "--k", _H), 0),
        (("s16", "--i", 3, "--g", 6, "--k", _H), 0),
    ],
    ids=["n", "m", "castelnuovo", "castelnuovo-zero", "T", "s16"],
)
def test_a_count_of_a_641_digit_value_prints_it(argv, value):
    # a count whose factorials and binomials stay in reach is computed: here
    # C(g, d) = 1 for n and m, and N = 2!/1! once the base locus is removed
    argv = ("counts", *map(str, argv))
    proc = _fresh(argv, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{value}\n", "")


# stdout digests recorded before RationalMatrix became sparse (the first five),
# before the solve went through the triangular Q_g*T_g (the next three),
# before the counting layer became integer-only (the next one), before
# verify built each genus once (the next two), before the CSV exports were
# written from the sparse rows (the next two) and before T_g was built by
# column and the JSON exports were written without json.dumps (the next
# two) and before S6[i=g-2] and S18[i=3] were built from their families'
# templates (the last two)
PINNED_STDOUT_SHA256 = {
    "tmatrix --g 8 --format csv": "a78f2a2385b96726cd600e772260702cf58b1ff1f64181c36b3ffc8b2846e431",
    "tmatrix --g 8 --format json": "a62e01eff6be1ed2a3cb7c56d0cdd3fe6490bdc85edebb578bbfda9ba39bf5c0",
    "matrix --g 8 --format csv": "b7a2505e687bafd953dae84114ad26123098fd4abac85f06f00eb086a67aa484",
    "matrix --g 8 --format json": "2229723b64686b79845620dc53971c480df29cc657928c10274b412f10997240",
    "verify triangularity": "aababc1ed73bbcbc108447d14ab8c859c164f6c56dfcb3829f29c1e92d07d11e",
    "solve --k 3": "8690cd9b13ee80cd06a46fb9107fe7d36469adb46e6a3112c7d69ca39a436cc1",
    "solve --k 14": "187e0a54e34bfa4ac8fb468106ce30bf227610b40e336d40a97b46cb0e6e282a",
    "verify nonsingular": "db177875ecb5596708fd6d8638974bb2c6cb393b881cdb7eacc1d44995ae113a",
    "matrix --g 60 --k 30 --format json": "b2b9c20fecf66ed2f0632e45d8663c3c300a9eef6c4bc0d17e4f419964ce5fcb",
    "verify all --k-max 10": "1b8af68aadaa2afe8232295e8876c185cd30943418f3a61189b0b1b1984362a2",
    "verify all": "ab6aace9949c60ae9cbd1a8fb82ea57431f83817357886c906c99b5a2b21791a",
    "matrix --g 56 --k 28 --format csv": "b9f8ccb1948293b6cd30bb73dbf232e67bf514585e3999d26170b5b799715365",
    "tmatrix --g 20 --format csv": "6583a03b0723776f1dd367bb5d60774e4061e5fc0ff86f2ebd7696a00e12ef8f",
    "tmatrix --g 41 --format csv": "882e7b084900f3809ace7d43bb9e000d7b633706423d4703afa7e504855a9e22",
    "tmatrix --g 41 --format json": "ca9cce23f3ca2e3f1cec82a7b438281757391be8fffc0bf5a9d39ddf773cd4ca",
    "matrix --g 5 --format csv": "e556dd06eafc3b6f560073f7bdb971d472ee62fba00170e4a25d6a9c9295c8f2",
    "matrix --g 7 --format json": "f6bbe6f58dc9e04ed7ee1a69845498f8dd83df4ac9ea131e6d4ff3c0fe9e7b22",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_stdout_matches_pinned_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT_SHA256[command]


# stdout digests recorded before T_g's lone T6, T9 and T18 columns were
# folded into their families and the label factories stopped interning: the
# genera where those families are shortest (T18's loop is empty at g = 6, 7)
FAMILY_STDOUT_SHA256 = {
    "basis --g 5": "fb97db293ee99935d0bf21b00340d35619b3374e27e4924059054ecd78528ebb",
    "basis --g 6": "e69c7161c20f554818fa87b4156b29b6e9fdfa250becc957fc81b4b0f3143a25",
    "basis --g 41": "0e1ccf97fa0c0c991f859e863229345df14bdbe08310345c57ada18bc11ff8e2",
    "tmatrix --g 6 --format csv": "157c60eb362bf15884480955c6ebcc5f6e4472a7c959a4dcaf38d540c2b0b0e1",
    "tmatrix --g 6 --format json": "54b07e9f2c175351b61a53a37c7f155cf29ababc14c6185d245b3423ad3340e9",
    "tmatrix --g 7 --format csv": "4ad6fbeb7f6e120a59da0652d2907f18967fd1b01f98cdc6a6201e86f825db21",
    "tmatrix --g 7 --format json": "47f2bc8a89d62be671948922b8bacac2454b0fc39abeb53ed140cb29134171f5",
}


@pytest.mark.parametrize("command", sorted(FAMILY_STDOUT_SHA256))
def test_short_families_match_pinned_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FAMILY_STDOUT_SHA256[command]


# the benchmark's correctness gate: every workload command's stdout digest and
# exit code, as perfbench/run.py checks them
GOLDEN = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)["commands"]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_benchmark_golden_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == GOLDEN[command]["exit_code"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]["sha256"]


# python -O strips every assert: the structural checks of a run are raised
# errors, so an optimized interpreter writes the same bytes and still fails
# a run whose S2 row no longer matches the solve's unit rows
_CHANGED_S2_ROW = """
import sys
import bn2.relations
bn2.relations._S2_ROW = (3, 1)
from bn2.cli import main
sys.exit(main(["solve", "--k", "4"]))
"""


@pytest.mark.parametrize("command", ["solve --k 8", "verify all --k-max 10"])
def test_optimized_interpreter_writes_the_golden_bytes(command):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bn2.cli", *command.split()],
        capture_output=True,
        env=_src_env(),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (GOLDEN[command]["exit_code"], b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[command]["sha256"]


def test_optimized_interpreter_keeps_the_residual_check():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHANGED_S2_ROW],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "bn2 solve: internal error: the solution at k=4 has a nonzero residual\n"


# runs one command in a fresh interpreter and prints its exit code, the length
# of its stdout and which of bn2.basis, bn2.classes, bn2.enumerative,
# bn2.exactnum, bn2.export, bn2.relations, bn2.solver, bn2.triangular,
# bn2.verify, fractions, decimal, csv, json, _json, dataclasses, inspect,
# argparse, gettext and locale it loaded (typing is not probed: site may load
# it before bn2 runs); no command that succeeds loads argparse, and none loads
# bn2.classes, bn2.exactnum or bn2.solver
_LOADED_PROBE = """
import contextlib, io, sys
from bn2.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
probed = ("bn2.basis", "bn2.classes", "bn2.enumerative", "bn2.exactnum", "bn2.export",
          "bn2.relations", "bn2.solver", "bn2.triangular", "bn2.verify", "fractions",
          "decimal", "csv", "json", "_json", "dataclasses", "inspect", "argparse", "gettext",
          "locale")
print(code, len(out.getvalue()), *(m for m in probed if m in sys.modules))
"""


def _src_env():
    src = str(Path(bn2.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _loaded_after(*argv, probe=_LOADED_PROBE):
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
        check=True,
    )
    return proc.stdout.split()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--k", "3"),
        ("matrix", "--g", "6", "--format", "csv"),
        ("matrix", "--g", "48", "--k", "24", "--format", "json"),
        ("matrix", "--g", "56", "--k", "28", "--format", "csv"),
        ("matrix", "--g", "7", "--format", "json"),
        ("tmatrix", "--g", "8", "--format", "json"),
        ("solve", "--k", "14"),
        ("tmatrix", "--g", "9", "--format", "csv"),
    ],
)
def test_command_loads_no_checks_csv_or_json(argv):
    # the matrix export reads the data layer and its writers alone; tmatrix
    # adds the integer rows of bn2.triangular, and solve those rows without
    # a writer; none loads the RationalMatrix layer, fractions or the
    # ClassExpression view.  The rows load the generators and the counts
    code, size, *loaded = _loaded_after(*argv)
    assert code == "0" and int(size) > 0
    expected = {
        "matrix": ["bn2.export"],
        "tmatrix": ["bn2.export", "bn2.triangular"],
        "solve": ["bn2.triangular"],
    }
    rows = ["bn2.basis", "bn2.enumerative", "bn2.relations"]
    assert loaded == sorted([*rows, *expected[argv[0]]])


@pytest.mark.parametrize(
    "argv", [("basis", "--g", "6"), ("counts", "n", "--g", "4", "--d", "3", "--alpha", "0,1")]
)
def test_commands_without_rows_load_no_relations(argv):
    # the generators alone, or the counting layer alone
    code, size, *loaded = _loaded_after(*argv)
    assert code == "0" and int(size) > 0
    assert loaded == {"basis": ["bn2.basis"], "counts": ["bn2.enumerative"]}[argv[0]]


# imports bn2.cli in a fresh interpreter, runs main on the argv if one is
# given, and prints its exit code (None without one) and every bn2 module
# then loaded
_BN2_MODULES_PROBE = """
import contextlib, io, sys
import bn2.cli
code = None
if sys.argv[1:]:
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = bn2.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "bn2"))
"""



def test_importing_the_cli_loads_no_bn2_submodule():
    # the benchmark's setup probe imports bn2.cli alone: each command imports
    # its layers when it runs
    assert _loaded_after(probe=_BN2_MODULES_PROBE) == ["None", "bn2", "bn2.cli"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--help",), "0"),
        (("solve", "--help"), "0"),
        (("frobnicate",), "2"),
        (("solve",), "2"),
        (("solve", "--k", "x"), "2"),
        (("matrix", "--g", "6", "--out", ""), "2"),
        (("counts", "n", "--g", "4", "--d", "3"), "2"),
        (("counts", "ell", "--g", "4", "--k", "3", "--d", "3"), "2"),
        (("verify", "m4", "--k", "3"), "2"),
    ],
    ids=[
        "help", "solve-help", "unknown", "missing-k", "bad-int", "empty-out", "missing-alpha",
        "unread-flag", "unread-verify-flag",
    ],
)
def test_help_and_usage_errors_load_no_bn2_submodule(argv, code):
    # a usage error is found before the command imports its layers
    assert _loaded_after(*argv, probe=_BN2_MODULES_PROBE) == [code, "bn2", "bn2.cli"]


def test_solve_lets_the_genus_memo_go(fresh_memos, capsys):
    # the rows bn2 solve kept for its answer are dropped before it writes the
    # text, the process's peak; verify, which reads them again, keeps them
    from bn2 import triangular

    code, out, _ = run(capsys, "solve", "--k", "5")
    assert code == 0 and out
    assert triangular._genus.cache_info().currsize == 0
    assert run(capsys, "verify", "closed-form", "--k", "5")[0] == 0
    assert triangular._genus.cache_info().currsize == 1


VERIFY_CHECKS = (
    "all", "closed-form", "g5", "m4", "nonsingular", "pullback", "triangularity", "trigonal",
)


@pytest.mark.parametrize("which", VERIFY_CHECKS)
def test_verify_loads_the_checks(which):
    # every check runs in integers, the ranks on integer rows, and the report
    # is written without json, so a verify whose checks pass loads neither
    # fractions (nor decimal), json, the RationalMatrix layer, the exports
    # nor the ClassExpression view; all runs the benchmark's --k-max 10
    code, _, *loaded = _loaded_after("verify", which, *(["--k-max", "10"] * (which == "all")))
    assert code == "0"
    assert loaded == [
        "bn2.basis", "bn2.enumerative", "bn2.relations", "bn2.triangular", "bn2.verify",
    ]


_CHECKER_PROBE = """
from bn2.basis import enumerate_basis
from bn2.verify import closed_form_class
expected = closed_form_class(7)
print(" ".join(f"{lab}={expected[lab]}" for lab in enumerate_basis(14)))
"""


def test_the_benchmark_checker_reads_the_closed_formula(capsys):
    # perfbench/run.py's Checker makes these imports and calls in its own
    # process for every solve output; closed_form_class imports the
    # ClassExpression it returns when it is called
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKER_PROBE],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
        check=True,
    )
    code, out, _ = run(capsys, "solve", "--k", "7")
    assert code == 0 and len(out.splitlines()) == bn2.basis_dimension(14)
    assert proc.stdout == " ".join(out.replace(" ", "=").splitlines()) + "\n"


@pytest.mark.parametrize("argv", [("solve", "--k", "3"), ("verify", "m4")])
def test_benchmark_tracer_hooks_every_layer(capsys, tmp_path, argv):
    # the benchmark's tracer imports every layer it times by name, bn2.exactnum
    # and bn2.solver included, and wraps their public functions; a package
    # change that breaks one of those imports fails here, not in a traced run
    tracer = Path(bn2.__file__).resolve().parents[2] / "perfbench" / "tracer.py"
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(tracer), str(spans_path), "--", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    assert {"exactnum.fraction_text", "relations.build_relations"} <= set(spans)
    if argv[0] == "solve":
        assert spans["exactnum.fraction_text"][0] > 0
        assert spans["relations.build_relations"][0] > 0


@pytest.mark.parametrize("which", VERIFY_CHECKS)
def test_verify_report_is_json_dumps(capsys, monkeypatch, which):
    from bn2 import verify

    dicts = []
    write = verify.reports_to_json

    def recording(reports):
        dicts.append(reports)
        return write(reports)

    monkeypatch.setattr(verify, "reports_to_json", recording)
    code, out, _ = run(capsys, "verify", which)
    assert code == 0 and len(dicts) == 1
    assert out == json.dumps(dicts[0], indent=2) + "\n"


# python -m bn2.cli as the interpreter starts it, after an atexit hook that
# reports whether the entry froze the start-up objects
_ENTRY_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("bn2.cli", run_name="__main__", alter_sys=True)
"""


def test_the_process_entry_freezes_and_exits_through_the_interpreter(capsys):
    # bn2.cli.run freezes before main and leaves the exit to the interpreter:
    # an atexit hook registered first still runs, and sees the freeze
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE, "basis", "--g", "6"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    code, out, _ = run(capsys, "basis", "--g", "6")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "frozen True\n")


def test_a_profiler_reports_after_the_process_entry(capsys):
    # cProfile writes its table when the profiled module has exited, so the
    # entry's exit must unwind as SystemExit, not end the process at once
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "bn2.cli", "basis", "--g", "6"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    _, out, _ = run(capsys, "basis", "--g", "6")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(out)
    assert "function calls" in proc.stdout[len(out):]


def test_main_does_not_freeze(capsys):
    # main runs in live processes (the tests, the benchmark's tracer): only
    # the process entry freezes
    before = gc.get_freeze_count()
    assert run(capsys, "basis", "--g", "6")[0] == 0
    assert gc.get_freeze_count() == before


def _console_scripts() -> dict:
    """The ``[project.scripts]`` table of this checkout's pyproject.toml."""
    text = (Path(bn2.__file__).resolve().parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the table's `name = "value"` lines
        table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        pairs = (line.split("=", 1) for line in table.splitlines() if "=" in line)
        return {name.strip(): value.strip().strip('"') for name, value in pairs}
    return tomllib.loads(text)["project"]["scripts"]


def test_the_console_script_is_the_process_entry():
    assert _console_scripts() == {"bn2": "bn2.cli:run"}


@pytest.mark.parametrize(
    "argv, stdout, code, err",
    [
        (("basis", "--g", "6"), None, 0, ""),
        (
            ("solve", "--k", "2"),
            None,
            2,
            "bn2 solve: the class is solved for k >= 3 (Q_g is square for g = 2k >= 6), got k=2\n",
        ),
        pytest.param(
            ("solve", "--k", "8"),
            "/dev/full",
            2,
            f"bn2 solve: cannot write stdout: {os.strerror(errno.ENOSPC)}\n",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=["success", "domain-error", "full-stdout"],
)
def test_both_launch_paths_run_the_same_entry(capsys, argv, stdout, code, err):
    # the console script calls bn2.cli:run as this -c does, and python -m
    # runs the module's __main__ block: both give the same bytes and exit code
    results = []
    for head in (["-m", "bn2.cli"], ["-c", "from bn2.cli import run; run()"]):
        with open(stdout, "w") if stdout else contextlib.nullcontext(subprocess.PIPE) as out:
            proc = subprocess.run(
                [sys.executable, *head, *argv],
                stdout=out,
                stderr=subprocess.PIPE,
                text=True,
                env=_src_env(),
                timeout=120,
            )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    expected_out = None if stdout else run(capsys, *argv)[1]
    assert results == [(code, expected_out, err)] * 2
