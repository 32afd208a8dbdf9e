import hashlib
import json
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bn2.basis import (
    D0SQ,
    K1SQ,
    K2,
    basis_dimension,
    dd,
    enumerate_basis,
    om,
    th,
)
from bn2.classes import ClassExpression
from bn2.relations import build_relations
from bn2.solver import RationalMatrix
from bn2.verify import (
    G5_CONVENTION_NOTE,
    M4_LABELS,
    PULLBACK_BASIS,
    check_closed_form,
    check_g5_rank,
    check_m4,
    check_nonsingular,
    check_pullback,
    check_trigonal_table,
    check_triangularity,
    check_trigonal_interior,
    closed_form_class,
    m4_class,
    m4_rank_relation,
    m4_relations,
    pullback_image,
    pullback_matrix,
    reports_to_json,
    run_all,
    scale_factor,
    known_trigonal_class,
    _json_text,
    _rank,
    _report,
)
from oracles import basis_index, closed_form_by_label, gauss_rank, rank

F = Fraction


def test_scale_factor_values():
    assert scale_factor(3) == F(1, 144)
    assert scale_factor(4) == F(1, 288)
    assert scale_factor(6) == F(1, 144)


def test_scale_factor_is_its_double_factorial_quotient():
    # (2k-7)!! = (2k-6)! / (2^(k-3) (k-3)!), and (-1)!! = 1 at k = 3
    for k in range(3, 61):
        double = F(factorial(2 * k - 6), 2 ** (k - 3) * factorial(k - 3))
        assert scale_factor(k) == F(2) ** (k - 6) * double / (3 * factorial(k))
    for k in (2, 1, 0, -1, -40):
        with pytest.raises(ValueError, match=f"closed formula holds for k >= 3, got k={k}$"):
            scale_factor(k)


def test_closed_form_k3_spot_values():
    cls = closed_form_class(3)
    assert cls[K1SQ] == F(41, 144)
    assert cls[th(2)] == F(-2)
    assert cls[dd(1, 4)] == F(3251, 360)
    assert cls[dd(0, 3)] == F(-41, 72)
    assert cls[D0SQ] == -cls[K1SQ]


@pytest.mark.parametrize("k", range(3, 61))
def test_closed_form_equals_the_per_label_oracle(k):
    assert list(closed_form_class(k).coefficients.items()) == list(
        closed_form_by_label(k).coefficients.items()
    )


def test_closed_form_rejects_small_k():
    with pytest.raises(ValueError):
        closed_form_class(2)


def test_known_trigonal_spot_values():
    cls = known_trigonal_class()
    assert cls[K2] == F(-4)
    assert cls[dd(0, 0)] == F(1)
    assert cls[dd(2, 2)] == F(1255, 72)


def test_closed_form_equals_known_trigonal_table():
    assert closed_form_class(3).diff(known_trigonal_class()) == []


def test_general_delta_coefficient_is_symmetric():
    def poly(i, j, k):
        return 2 * (
            3 * k * k * (144 * i * j - 1)
            - 3 * k * (72 * i * j * (i + j + 4) + 1)
            + 180 * i * (i + 1) * j * (j + 1)
            - 5
        )

    for k in range(3, 9):
        for i in range(1, 8):
            for j in range(1, 8):
                assert poly(i, j, k) == poly(j, i, k)


def test_pullback_matrix_rows():
    from bn2.basis import LD0

    images = pullback_matrix(6)
    assert images[LD0] == (F(1, 6), 0, 0, 0, 0)
    assert images[om(2)] == (
        F(-1, 120),
        F(-13, 120),
        F(1, 120),
        F(-24, 120),
        F(-168, 120),
    )
    assert images[th(2)] == (0, 0, 0, 0, 0)
    assert set(images) == set(enumerate_basis(6))
    assert all(type(x) is F for image in images.values() for x in image)


def test_pullback_vanishing_k3_k4():
    for k in (3, 4):
        image = pullback_image(closed_form_class(k))
        assert image[0] == image[1] == image[2] == image[4] == 0


def test_pullback_detects_perturbation():
    cls = closed_form_class(3)
    perturbed = dict(cls.coefficients)
    perturbed[K1SQ] += 1
    image = pullback_image(ClassExpression(6, perturbed))
    assert image[1] != 0  # the (a) coordinate moves


def test_check_pullback_reports():
    rep = check_pullback(3)
    assert rep["status"] == "pass"
    assert rep["check"] == "pullback[k=3]"
    assert "(c)" in rep["actual"]


def test_m4_data_shapes():
    tags, rows, rhs = m4_relations()
    matrix = RationalMatrix.from_sparse(rows, len(M4_LABELS))
    assert len(tags) == 13 and matrix.nrows == 13 and matrix.ncols == 14
    assert len(rhs) == 13
    assert len(m4_class()) == len(M4_LABELS) == 14


def test_m4_relations_rows_are_pinned():
    # the rows are {column: Fraction} dicts in the M4_LABELS order; as a
    # matrix they are exactly the one m4_relations returned when its library
    # type was a RationalMatrix
    _, rows, _ = m4_relations()
    assert all(type(v) is Fraction for row in rows for v in row.values())
    matrix = RationalMatrix.from_sparse(rows, 14)
    digest = hashlib.sha256(repr(list(matrix.nonzeros())).encode()).hexdigest()
    assert digest == "e54d402412d22f8eca47c22ae96f521219fefaf9e5e0c7513d9dbe7289dbbca3"


def test_m4_first_relation_by_hand():
    cls = m4_class()
    assert 8 * cls["d2^2"] == 36


def test_m4_check_passes():
    rep = check_m4()
    assert rep["status"] == "pass"
    assert rep["actual"]["rank"] == 13
    assert rep["actual"]["nullspace_matches"] is True


def test_m4_report_is_pinned():
    assert check_m4() == {
        "check": "m4",
        "status": "pass",
        "expected": {
            "relations": "all satisfied",
            "rank": 13,
            "nullspace": "span of the rank relation",
        },
        "actual": {"relations_violated": 0, "rank": 13, "nullspace_matches": True},
        "diff": [],
        "notes": [],
    }


def test_check_reports_own_their_lists():
    first = _report(check="a", status="pass", expected="x", actual="y")
    second = _report("b", "warn", {"rank": 1}, None)
    first["diff"].append({"row": 0})
    first["notes"].append("note")
    assert second["diff"] == [] and second["notes"] == []
    assert first == {
        "check": "a",
        "status": "pass",
        "expected": "x",
        "actual": "y",
        "diff": [{"row": 0}],
        "notes": ["note"],
    }
    assert list(second) == ["check", "status", "expected", "actual", "diff", "notes"]
    assert second == {
        "check": "b",
        "status": "warn",
        "expected": {"rank": 1},
        "actual": None,
        "diff": [],
        "notes": [],
    }
    diff = [{"row": 1}]
    assert _report("d", "fail", 0, 1, diff=diff)["diff"] is diff


def test_m4_kernel_proof_rejects_a_wrong_relation(monkeypatch):
    import bn2.verify

    # the check reads the integer relation that m4_rank_relation views
    true = list(bn2.verify._M4_RANK_RELATION)
    assert m4_rank_relation() == true
    perturbed = list(true)
    perturbed[4] += 1
    for wrong in (perturbed, [2 * v for v in true[:-1]] + [true[-1]], [0] * 14):
        monkeypatch.setattr(bn2.verify, "_M4_RANK_RELATION", wrong)
        rep = check_m4()
        assert rep["actual"] == {"relations_violated": 0, "rank": 13, "nullspace_matches": False}
        assert rep["status"] == "fail"
    # a nonzero multiple spans the same kernel
    monkeypatch.setattr(bn2.verify, "_M4_RANK_RELATION", [-3 * v for v in true])
    assert check_m4()["status"] == "pass"


def test_m4_rank_relation_is_in_kernel():
    _, rows, _ = m4_relations()
    matrix = RationalMatrix.from_sparse(rows, len(M4_LABELS))
    v = m4_rank_relation()
    assert matrix.matvec(v) == [0] * 13


def test_check_trigonal_table():
    rep = check_trigonal_table()
    assert rep["status"] == "pass"
    assert rep["diff"] == []


@pytest.mark.parametrize("k", [3, 4])
def test_check_closed_form(k):
    assert check_closed_form(k)["status"] == "pass"


@pytest.mark.parametrize("k", [3, 9])
def test_a_passing_closed_form_check_builds_no_labels(monkeypatch, k):
    # the label texts are built only for the coefficients that differ, so a
    # passing sweep builds no genus's labels
    import bn2.verify

    def no_labels(g):
        raise AssertionError(f"the genus-{g} labels were built")

    monkeypatch.setattr(bn2.verify, "enumerate_basis", no_labels)
    assert check_closed_form(k)["status"] == "pass"


def test_check_trigonal_interior():
    rep = check_trigonal_interior()
    assert rep["status"] == "pass"


def test_check_g5_rank():
    rep = check_g5_rank()
    assert rep["status"] == "pass"
    assert rep["actual"] == {"rows": 19, "cols": 20, "rank": 19}
    assert G5_CONVENTION_NOTE in rep["notes"]


@st.composite
def _int_rows(draw):
    """0..8 integer rows {column: nonzero} of 0..8 columns, some of them
    zero rows, repeats of other rows, or with a column that is zero."""
    ncols = draw(st.integers(0, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, 12, -144])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            kind = draw(st.sampled_from(["zero row", "repeat", "zero column"]))
            at = draw(st.integers(0, len(rows) - 1))
            if kind == "zero row":
                rows[at] = [0] * ncols
            elif kind == "repeat":
                rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
            elif ncols:
                c = draw(st.integers(0, ncols - 1))
                rows = [[0 if j == c else v for j, v in enumerate(row)] for row in rows]
    return [{j: v for j, v in enumerate(row) if v} for row in rows[:8]], ncols


def _oracle_ranks(rows, ncols):
    matrix = RationalMatrix.from_sparse(rows, ncols)
    return rank(matrix), gauss_rank(matrix)


@given(_int_rows())
@example(([], 0))
@example(([{}, {}], 3))
@example(([{0: 1, 2: 2}, {0: 1, 2: 2}, {1: 3}], 4))
@example(([{0: 2, 1: 4}, {0: 1, 1: 2}, {2: 7}], 3))
def test_rank_is_the_rank_of_the_oracles(matrix):
    rows, ncols = matrix
    r = _rank(rows, ncols)
    assert (r, r) == _oracle_ranks(rows, ncols)
    assert 0 <= r <= min(len(rows), ncols)


@pytest.mark.parametrize("g", range(5, 13))
def test_rank_of_the_relation_rows_is_that_of_the_oracles(g):
    # Q_g is square and nonsingular for g >= 6; the genus-5 system is 19 x 20
    rows = [rel.coefficients for rel in build_relations(g).rows]
    n = basis_dimension(g)
    r = _rank(rows, n)
    assert (r, r) == _oracle_ranks(rows, n)
    assert r == (19 if g == 5 else n)


def test_a_repeated_g5_row_fails_the_g5_check(monkeypatch):
    import bn2.verify

    rows = build_relations(5).coefficients
    rows[7] = rows[3]
    monkeypatch.setattr(bn2.verify, "build_relations", lambda g: SimpleNamespace(coefficients=rows))
    rep = check_g5_rank()
    assert rep["status"] == "fail"
    assert rep["actual"] == {"rows": 19, "cols": 20, "rank": 18}
    assert rep["expected"] == {"rows": 19, "cols": 20, "rank": 19}


@pytest.mark.parametrize("at", range(13))
def test_a_changed_m4_entry_fails_the_m4_check(monkeypatch, at):
    # every coefficient of the doubled class is nonzero, so a changed entry
    # breaks that row's relation
    import bn2.verify

    rows = list(bn2.verify._M4_ROWS)
    tag, coeffs, b = rows[at]
    name = next(iter(coeffs))
    rows[at] = (tag, {**coeffs, name: coeffs[name] + 1}, b)
    monkeypatch.setattr(bn2.verify, "_M4_ROWS", rows)
    rep = check_m4()
    assert rep["status"] == "fail"
    assert list(rep["actual"]) == ["relations_violated", "rank", "nullspace_matches"]
    assert rep["actual"]["relations_violated"] == 1
    assert [entry["relation"] for entry in rep["diff"]] == [tag]


def test_check_nonsingular_g6():
    assert check_nonsingular(6)["status"] == "pass"


def test_nonsingular_certificate_agrees_with_determinant():
    from oracles import build_matrix, det_is_nonzero

    for g in range(6, 17):
        assert check_nonsingular(g)["status"] == "pass"
        assert det_is_nonzero(build_matrix(g))


def test_nonsingular_without_certificate_fails(fresh_memos, monkeypatch):
    import bn2.triangular

    # with T_g = I the product is Q_g itself, which is not lower-triangular
    monkeypatch.setattr(bn2.triangular, "_t_rows", lambda cols: [{i: 1} for i in range(25)])
    rep = check_nonsingular(6)
    assert rep["status"] == "fail"
    assert rep["actual"] != "nonzero"
    # each entry names a row of Q_g * T_g: an entry above the diagonal or a zero diagonal
    assert rep["diff"] and all("row" in entry or "diagonal" in entry for entry in rep["diff"])


# reports_to_json of nonsingular[g=G] and triangularity[g=G] when T_g's
# columns c = 1 mod 4 are zero (a zero diagonal in P) and its last column is
# the sum of all of them (nonzeros above P's diagonal); at g = 30 each kind
# has more than 50 entries, so the diff keeps the first 50 of each
_BROKEN_CERTIFICATE_SHA256 = {
    8: "53231c66a267d4e0a9f78e8db4544d015cae510133b354ea4b2e84c88d5f3677",
    30: "cbd1c08dd325e951d2257056be739a21e93f6df7d415f4dd4a295386a0c77797",
}


@pytest.mark.parametrize("g", sorted(_BROKEN_CERTIFICATE_SHA256))
def test_failing_certificate_reports_are_pinned(fresh_memos, monkeypatch, g):
    import bn2.triangular

    system, built = bn2.triangular._t_columns(g)
    total: dict[int, int] = {}
    for col in built:
        for r, v in col.items():
            total[r] = total.get(r, 0) + v
    broken = [{} if c % 4 == 1 else col for c, col in enumerate(built[:-1])] + [total]
    monkeypatch.setattr(bn2.triangular, "_t_columns", lambda g: (system, broken))
    reports = [check_nonsingular(g), check_triangularity(g)]
    assert [rep["status"] for rep in reports] == ["fail", "warn"]
    assert reports[1]["actual"] == {
        "lower_triangular": False,
        "diagonal_nonzero": False,
        "order": len(built),
    }
    kinds = [sum(kind in entry for entry in reports[0]["diff"]) for kind in ("row", "diagonal")]
    assert kinds == ([28, 9] if g == 8 else [50, 50])
    text = reports_to_json(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _BROKEN_CERTIFICATE_SHA256[g]


def test_check_triangularity_g6():
    rep = check_triangularity(6)
    assert rep["status"] in ("pass", "warn")
    assert rep["actual"]["order"] == 25


def test_run_all_is_sorted_and_passes():
    reports = run_all(k_max=3)
    names = [rep["check"] for rep in reports]
    assert names == sorted(names)
    assert all(rep["status"] != "fail" for rep in reports)


def test_run_all_builds_each_genus_once(fresh_memos, monkeypatch):
    import bn2.relations
    import bn2.triangular
    import bn2.verify
    from bn2.basis import basis_dimension

    genera = [*range(6, 17), 18, 20]
    # the S2 rows of each genus, which the solve's core leaves out
    s2 = {g: sum(r.rhs.kind == "D" for r in bn2.relations.build_relations(g).rows) for g in genera}
    built = {"rows": [], "T": [], "P": [], "rhs": []}

    def counting(key, fn):
        def wrapper(g):
            built[key].append(g)
            return fn(g)

        return wrapper

    rows = counting("rows", bn2.relations.build_relations)
    for module in (bn2.triangular, bn2.verify):
        monkeypatch.setattr(module, "build_relations", rows)
    monkeypatch.setattr(bn2.triangular, "_t_columns", counting("T", bn2.triangular._t_columns))
    build_rhs_vector = bn2.relations.build_rhs_vector

    def counting_rhs(system, k):
        built["rhs"].append(k)
        return build_rhs_vector(system, k)

    monkeypatch.setattr(bn2.triangular, "build_rhs_vector", counting_rhs)
    product = bn2.triangular._product

    def counting_product(rows, t):
        built["P"].append((len(t), len(rows)))
        return product(rows, t)

    monkeypatch.setattr(bn2.triangular, "_product", counting_product)
    assert all(rep["status"] != "fail" for rep in run_all(k_max=10))
    assert built["rows"] == [5, *genera]
    assert built["T"] == genera
    # per genus: the core rows of P, for the solve when g = 2k and for the
    # nonsingularity certificate when g <= 16, then the S2 rows the
    # certificate adds to them; no row is multiplied twice
    expected = []
    for g in genera:
        n = basis_dimension(g)
        expected.append((n, n - s2[g]))
        if g <= 16:
            expected.append((n, s2[g]))
    assert built["P"] == expected
    # so every row of P is multiplied exactly once per certified genus
    for g in range(6, 17):
        n = basis_dimension(g)
        assert sum(rows for order, rows in built["P"] if order == n) == n
    # one solve per degree, and a second at k = 3 for the table check, on the
    # rows the genus memo already holds
    assert built["rhs"] == [3, *range(3, 11)]


def test_memos_hold_one_genus(fresh_memos):
    from bn2.triangular import _genus
    from bn2.verify import _closed_form

    for k in range(3, 13):
        assert check_closed_form(k)["status"] == "pass"
        assert check_pullback(k)["status"] == "pass"
        assert _genus.cache_info().currsize == 1
        assert _closed_form.cache_info().currsize == 1
        assert _genus(2 * k).system.g == 2 * k


def test_the_memos_wrap_their_functions():
    from bn2.triangular import _Genus, _genus
    from bn2.verify import _closed_form, _closed_form_parts

    for memo, function in ((_genus, _Genus), (_closed_form, _closed_form_parts)):
        assert memo.__wrapped__ is function and memo.cache_parameters()["maxsize"] == 1


def test_closed_form_class_is_fresh():
    check_pullback(3)  # fills the closed-formula memo
    assert closed_form_class(3) is not closed_form_class(3)


def test_run_all_rejects_k_max_below_3():
    with pytest.raises(ValueError, match=r"k >= 3, got k_max=2"):
        run_all(k_max=2)


def test_pullback_basis_order():
    assert PULLBACK_BASIS == ("D00", "(a)", "(b)", "(c)", "(d)")


# the failing reports, recorded before the checks compared
# integers: the k=5 solution with d(0,8) + 1, then with k1^2 - 1 and th(2) + 2,
# and the k=4 closed formula with k1^2 + scale_factor(4)/5
_FAILED_CLOSED_FORM = [
    {
        "check": "closed-form[k=5]",
        "status": "fail",
        "expected": "53 coefficients equal",
        "actual": "1 mismatches",
        "diff": [{"label": "d(0,8)", "actual": "1609/120", "expected": "1489/120"}],
        "notes": [],
    },
    {
        "check": "closed-form[k=5]",
        "status": "fail",
        "expected": "53 coefficients equal",
        "actual": "2 mismatches",
        "diff": [
            {"label": "k1^2", "actual": "-29/48", "expected": "19/48"},
            {"label": "th(2)", "actual": "-12", "expected": "-14"},
        ],
        "notes": [],
    },
]
_FAILED_PULLBACK = {
    "check": "pullback[k=4]",
    "status": "fail",
    "expected": "zero on D00, (a), (b), (d)",
    "actual": "4 nonzero coordinates",
    "diff": [
        {"coordinate": "D00", "value": "17/172800"},
        {"coordinate": "(a)", "value": "127/172800"},
        {"coordinate": "(b)", "value": "37/172800"},
        {"coordinate": "(d)", "value": "7/1440"},
    ],
    "notes": [],
}


def test_failed_closed_form_report_is_pinned(monkeypatch):
    import bn2.verify
    from bn2.triangular import _solve

    x, d = _solve(5)
    index = basis_index(10)
    for shifts, want in zip(({dd(0, 8): 1}, {K1SQ: -1, th(2): 2}), _FAILED_CLOSED_FORM):
        wrong = list(x)
        for lab, shift in shifts.items():
            wrong[index[lab]] += shift * d
        monkeypatch.setattr(bn2.verify, "_solve", lambda k, wrong=wrong: (wrong, d))
        assert check_closed_form(5) == want


def test_failed_pullback_report_is_pinned(monkeypatch):
    import bn2.verify

    b, c = bn2.verify._closed_form_parts(4)
    wrong = list(b)
    wrong[basis_index(8)[K1SQ]] += 1
    monkeypatch.setattr(bn2.verify, "_closed_form", lambda k: (wrong, c))
    assert check_pullback(4) == _FAILED_PULLBACK


def test_closed_form_check_builds_no_fraction_when_it_passes(monkeypatch):
    assert check_closed_form(12)["status"] == "pass"  # fills the memos
    new = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    report = check_closed_form(12)
    monkeypatch.undo()
    assert report["status"] == "pass" and built == []


def test_only_the_k3_checks_build_the_fraction_view(fresh_memos, monkeypatch):
    # the k = 3 checks (trigonal-table and trigonal) compare the integer
    # genus-6 table too, so no check calls a public Fraction view
    import bn2.triangular
    import bn2.verify

    monkeypatch.setattr(bn2.triangular, "solve_class", None)
    monkeypatch.setattr(bn2.verify, "closed_form_class", None)
    monkeypatch.setattr(bn2.verify, "known_trigonal_class", None)
    assert all(rep["status"] != "fail" for rep in run_all(k_max=8))


def test_run_all_builds_no_fraction(fresh_memos, monkeypatch):
    # every check compares, and writes its report texts, in integers
    new = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    reports = run_all(k_max=8)
    monkeypatch.undo()
    assert all(rep["status"] != "fail" for rep in reports) and built == []


# the report writer against json.dumps(indent=2)


def _written_as_json_dumps(value) -> bool:
    return _json_text(value) == json.dumps(value, indent=2)


def test_failed_reports_are_written_as_json_dumps(fresh_memos, monkeypatch):
    # the pinned closed-form and pull-back failures, and nonsingular[g=6]
    # with T_g = I
    import bn2.triangular
    import bn2.verify
    from bn2.triangular import _solve

    x, d = _solve(5)
    wrong = list(x)
    wrong[basis_index(10)[dd(0, 8)]] += d
    monkeypatch.setattr(bn2.verify, "_solve", lambda k: (wrong, d))
    reports = [check_closed_form(5)]
    b, c = bn2.verify._closed_form_parts(4)
    off = list(b)
    off[basis_index(8)[K1SQ]] += 1
    monkeypatch.setattr(bn2.verify, "_closed_form", lambda k: (off, c))
    monkeypatch.setattr(bn2.triangular, "_t_rows", lambda cols: [{i: 1} for i in range(25)])
    reports += [check_pullback(4), check_nonsingular(6)]
    assert reports[:2] == [_FAILED_CLOSED_FORM[0], _FAILED_PULLBACK]
    assert reports[2]["status"] == "fail" and reports[2]["diff"]
    assert reports_to_json(reports) == json.dumps(reports, indent=2) + "\n"
    assert all(map(_written_as_json_dumps, reports))


def test_report_without_actual_is_written_as_json_dumps():
    report = _report("b", "warn", {"rank": 1}, None, diff=[{}], notes=[[], ""])
    assert reports_to_json([report]) == json.dumps([report], indent=2) + "\n"
    assert reports_to_json([]) == "[]\n"


_JSON_ESCAPED = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "\u00e9", "\u2028", "\ud800"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | _JSON_ESCAPED,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text() | _JSON_ESCAPED, inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@example({"check": "a\"b", "notes": ["\\", "\u00e9"], "diff": [], "actual": None})
@example([{"rank": True, "k": -12, "": {}}])
def test_nested_values_are_written_as_json_dumps(value):
    assert _written_as_json_dumps(value)


@pytest.mark.parametrize("value", [{"x": object()}, [1, {2: "a"}]])
def test_values_outside_the_report_types_are_type_errors(value):
    with pytest.raises(TypeError):
        _json_text(value)
