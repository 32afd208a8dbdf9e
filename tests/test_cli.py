import hashlib
import json

import pytest

from bn2.cli import main


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


def test_counts_T_and_D_and_s16(capsys):
    assert run(capsys, "counts", "T", "--i", "2", "--g", "6", "--k", "3")[:2] == (0, "144\n")
    assert run(capsys, "counts", "D", "--i", "2", "--j", "2", "--g", "6", "--k", "3")[:2] == (
        0,
        "72\n",
    )
    assert run(capsys, "counts", "s16", "--i", "3", "--g", "6", "--k", "3")[:2] == (0, "192\n")


def test_counts_domain_error_is_usage(capsys):
    code, out, err = run(capsys, "counts", "n", "--g", "4", "--d", "3", "--alpha", "0,0")
    assert code == 2
    assert out == ""
    assert "rho" in err


def test_counts_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "counts", "n", "--g", "4")
    assert exc.value.code == 2


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
    from bn2.basis import enumerate_basis, parse_label
    from bn2.verify import closed_form_class

    code, out, _ = run(capsys, "solve", "--k", "4")
    assert code == 0
    expected = closed_form_class(4)
    got = dict(line.split(" ", 1) for line in out.splitlines())
    assert len(got) == len(enumerate_basis(8))
    for text, value in got.items():
        assert str(expected[parse_label(text)]) == value


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
    from bn2 import cli
    from bn2.verify import CheckReport

    monkeypatch.setattr(
        cli.verify,
        "check_m4",
        lambda: CheckReport(check="m4", status="fail", expected="x", actual="y"),
    )
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
        ("verify", "all", "--k", "4", "--k-max", "2"),
    ],
)
def test_verify_k_max_below_3_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"bn2 verify {argv[1]}: closed formula holds for k >= 3, got --k-max {argv[-1]}\n"


def test_verify_k_overrides_k_max(capsys):
    code, out, _ = run(capsys, "verify", "closed-form", "--k", "3", "--k-max", "2")
    assert code == 0
    assert [rep["check"] for rep in json.loads(out)] == ["closed-form[k=3]"]


def test_verify_nonsingular_reports_square_domain(capsys):
    code, out, err = run(capsys, "verify", "nonsingular", "--g", "5")
    assert code == 2 and out == ""
    assert "Q_g is square only for g >= 6, got g=5" in err


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
    from bn2 import cli

    def broken(k):
        raise RuntimeError("internal error: the solution at k=3 has a nonzero residual")

    monkeypatch.setattr(cli, "solve_class", broken)
    code, out, err = run(capsys, "solve", "--k", "3")
    assert code == 3 and out == ""
    assert err == "bn2 solve: internal error: the solution at k=3 has a nonzero residual\n"


# stdout digests recorded before RationalMatrix became sparse (the first five),
# before the solve went through the triangular Q_g*T_g (the next three),
# before the counting layer became integer-only (the next one) and before
# verify built each genus once (the last two)
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
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_stdout_matches_pinned_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT_SHA256[command]
