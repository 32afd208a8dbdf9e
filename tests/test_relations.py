import csv
import hashlib
import io
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bn2.basis import D1SQ, K1SQ, K2, LD2, basis_dimension, dd, enumerate_basis, om
from bn2.relations import (
    Relation,
    Rhs,
    build_matrix,
    build_relations,
    build_rhs_vector,
    build_T,
    describe_rhs,
    evaluate_rhs,
    solve_class,
    system_matrix,
    system_to_csv,
    system_to_json,
    t_column_tags,
    t_matrix_to_csv,
    t_matrix_to_json,
    triangularity_report,
)
from bn2.solver import RationalMatrix, solve_lower_triangular
from oracles import castelnuovo_general, solve_exact

F = Fraction


def _row(system, source):
    return next(rel for rel in system.rows if rel.source == source)


def test_row_counts():
    assert len(build_relations(6).rows) == 25
    assert len(build_relations(5).rows) == 19
    assert not any(rel.source == "S10" for rel in build_relations(5).rows)
    for g in range(6, 17):
        assert len(build_relations(g).rows) == basis_dimension(g)


def test_s1_row_g6():
    rel = _row(build_relations(6), "S1[i=2]")
    assert rel.coefficients == {K1SQ: F(2), om(2): F(-1), om(4): F(-1)}
    assert rel.rhs == Rhs("T", 2)


def test_s1_accumulates_at_middle_genus():
    rel = _row(build_relations(6), "S1[i=3]")
    assert rel.coefficients == {K1SQ: F(2), om(3): F(-2)}


def test_s10_g6_coefficients():
    rel = _row(build_relations(6), "S10")
    assert rel.coefficients == {
        K1SQ: F(2),
        D1SQ: F(18),
        dd(1, 1): F(9),
        dd(1, 3): F(6),
        om(3): F(-2),
        dd(2, 3): F(-6),
        dd(1, 2): F(-18),
        dd(2, 2): F(9),
    }


def test_s10_g7_keeps_base_coefficient():
    rel = _row(build_relations(7), "S10")
    assert rel.coefficients[D1SQ] == 12


def test_s9_collision_cancels_at_g6():
    rel = _row(build_relations(6), "S9[j=2]")
    assert dd(2, 2) not in rel.coefficients
    assert rel.coefficients[dd(1, 2)] == 2


def test_all_keys_canonical():
    for g in (5, 6, 7, 9, 12):
        labels = set(enumerate_basis(g))
        for rel in build_relations(g).rows:
            assert set(rel.coefficients) <= labels


def test_g5_lambda_rows_land_on_ld2():
    system = build_relations(5)
    s11 = _row(system, "S11")
    assert s11.coefficients[LD2] == F(3) - 1  # 3*ld2 - la(2)
    s18 = _row(system, "S18[i=3]")
    assert s18.coefficients[LD2] == F(-2)  # -la(3) - ld2
    assert s18.coefficients[om(3)] == F(-2)  # om(3) and om(g-2) collide


def test_zero_rhs_relations_evaluate_to_zero():
    for g, k in ((6, 3), (8, 4)):
        for rel in build_relations(g).rows:
            if rel.rhs.kind == "zero":
                assert evaluate_rhs(rel, k) == 0


def test_rhs_values_g6_k3():
    system = build_relations(6)
    assert evaluate_rhs(_row(system, "S1[i=2]"), 3) == 12
    assert evaluate_rhs(_row(system, "S3"), 3) == 8
    assert evaluate_rhs(_row(system, "S5"), 3) == 0
    assert build_rhs_vector(system, 3) == [
        F(v)
        for v in (12, 36, 18, 18, 8, 12, 12, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 12, 0, 0, 48, 44, 0, 0, 0)
    ]


def test_rhs_requires_matching_genus():
    system = build_relations(6)
    with pytest.raises(ValueError):
        evaluate_rhs(_row(system, "S1[i=2]"), 4)
    # a zero rhs evaluates for any k
    assert evaluate_rhs(_row(system, "S5"), 4) == 0


def test_unknown_rhs_kind_is_rejected():
    rel = Relation("S0", 6, {}, Rhs("bogus"))
    with pytest.raises(ValueError, match="unknown rhs kind 'bogus'"):
        evaluate_rhs(rel, 3)
    with pytest.raises(ValueError, match="unknown rhs kind 'bogus'"):
        describe_rhs(rel)


def test_structural_counts_are_checked(monkeypatch):
    import bn2.relations

    monkeypatch.setattr(bn2.relations, "basis_dimension", lambda g: 26)
    with pytest.raises(RuntimeError, match=r"built 25 rows at g=6, expected 26"):
        build_relations(6)
    with pytest.raises(RuntimeError, match=r"built 25 T-columns at g=6, expected 26"):
        build_T(6)


@pytest.mark.parametrize("k", range(3, 13))
def test_solve_class_equals_bareiss(k):
    system = build_relations(2 * k)
    x = solve_exact(system_matrix(system), build_rhs_vector(system, k))
    assert list(solve_class(k).coefficients.values()) == x


def test_solve_class_rejects_small_k():
    with pytest.raises(ValueError, match=r"k >= 3 .*got k=2"):
        solve_class(2)


def test_solve_class_without_triangular_structure_is_internal(fresh_memos, monkeypatch):
    import bn2.relations

    # with T_g = I the product is Q_g itself, which has entries above the diagonal
    monkeypatch.setattr(bn2.relations, "build_T", lambda g: RationalMatrix.identity(25))
    with pytest.raises(RuntimeError, match=r"internal error: Q_g\*T_g at g=6: row \d+ "):
        solve_class(3)


def test_solve_class_checks_the_residual(monkeypatch):
    import bn2.relations

    monkeypatch.setattr(bn2.relations, "solve_lower_triangular", lambda p, b: [F(0)] * len(b))
    with pytest.raises(RuntimeError, match="internal error: the solution at k=3 has a nonzero"):
        solve_class(3)


def test_solve_class_residual_covers_every_row(monkeypatch):
    import bn2.relations

    # solving P y = b + e_r gives Q_g (T_g y) - b = e_r: a residual in row r alone
    for r in range(25):

        def off_in_row_r(p, b, r=r):
            return solve_lower_triangular(p, [v + (i == r) for i, v in enumerate(b)])

        monkeypatch.setattr(bn2.relations, "solve_lower_triangular", off_in_row_r)
        with pytest.raises(RuntimeError, match="internal error: the solution at k=3 has a nonzero"):
            solve_class(3)


def test_build_functions_return_fresh_objects():
    solve_class(3)  # fills the genus memo
    for build in (build_relations, build_matrix, build_T):
        assert build(6) is not build(6)
    assert solve_class(3) is not solve_class(3)
    system = build_relations(6)
    assert system.rows[0] is not build_relations(6).rows[0]


@cache
def _q_t_p(g):
    q, t = build_matrix(g), build_T(g)
    return q, t, q.matmul(t)


@given(st.integers(6, 16), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_triangular_route_equals_bareiss_on_random_rhs(g, rng):
    q, t, p = _q_t_p(g)
    b = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(q.nrows)]
    x = t.matvec(solve_lower_triangular(p, b))
    assert x == solve_exact(q, b)
    assert q.matvec(x) == b


def test_matrix_shapes():
    assert (build_matrix(6).nrows, build_matrix(6).ncols) == (25, 25)
    assert (build_matrix(7).nrows, build_matrix(7).ncols) == (32, 32)
    m5 = build_matrix(5)
    assert (m5.nrows, m5.ncols) == (19, 20)


def test_build_T_columns():
    g = 6
    t = build_T(g)
    tags = t_column_tags(g)
    labels = list(enumerate_basis(g))
    assert t.ncols == basis_dimension(g) == len(tags)
    col15 = tags.index("T15")
    column = [t.entry(r, col15) for r in range(t.nrows)]
    assert column[labels.index(K2)] == 1  # unit column on k2
    assert sum(1 for x in column if x != 0) == 1
    col12 = tags.index("T12")
    nonzero = {labels[r]: t.entry(r, col12) for r in range(t.nrows) if t.entry(r, col12) != 0}
    assert nonzero == {dd(0, 4): F(1), dd(1, 4): F(2)}


def test_build_T_rejects_g5():
    with pytest.raises(ValueError):
        build_T(5)


@pytest.mark.parametrize("export", [t_column_tags, t_matrix_to_csv, t_matrix_to_json])
def test_t_exports_reject_g5_like_build_T(export):
    with pytest.raises(ValueError) as want:
        build_T(5)
    with pytest.raises(ValueError) as got:
        export(5)
    assert str(got.value) == str(want.value) == "T_g is defined for g >= 6, got g=5"


def test_triangularity_identity_cases():
    q = build_matrix(6)
    t = build_T(6)
    ident = RationalMatrix.identity(25)
    rep_q = triangularity_report(q, ident)
    assert not rep_q.lower_triangular  # Q itself is not triangular
    rep_t = triangularity_report(ident, t)
    assert rep_t.order == 25
    rep = triangularity_report(q, t)
    assert rep.lower_triangular and rep.diagonal_nonzero


def test_triangularity_dimension_mismatch():
    with pytest.raises(ValueError):
        triangularity_report(build_matrix(6), RationalMatrix.identity(3))


def test_describe_rhs_strings():
    system = build_relations(6)
    assert describe_rhs(_row(system, "S1[i=2]")) == "T(2)/12"
    assert describe_rhs(_row(system, "S5")) == "0"
    assert describe_rhs(_row(system, "S16[i=4]")) == "m(4,(0,1))/6"


def test_exports_are_deterministic():
    a = system_to_csv(build_relations(6))
    b = system_to_csv(build_relations(6))
    assert a == b
    ja = system_to_json(build_relations(6), 3)
    jb = system_to_json(build_relations(6), 3)
    assert ja == jb
    ta = t_matrix_to_csv(8)
    tb = t_matrix_to_csv(8)
    assert ta == tb


def test_csv_shape_and_header():
    text = system_to_csv(build_relations(6))
    lines = text.splitlines()
    assert len(lines) == 26  # header + 25 rows
    header = lines[0]
    assert header.startswith("source,")
    assert header.endswith(",rhs")
    assert '"d(0,5)"' in header  # comma-bearing labels are quoted


def test_json_export_contents():
    import json

    data = json.loads(system_to_json(build_relations(6), 3))
    assert data["g"] == 6
    assert len(data["labels"]) == 25
    assert len(data["rows"]) == 25
    first = data["rows"][0]
    assert first["source"] == "S1[i=2]"
    assert first["coeffs"]["k1^2"] == "2"
    assert first["rhs"] == "12"


def test_build_relations_rejects_small_genus():
    with pytest.raises(ValueError):
        build_relations(4)


def test_rhs_vectors_are_pinned():
    # b_k for k = 3..30, hashed before the counting layer became integer-only
    h = hashlib.sha256()
    for k in range(3, 31):
        values = build_rhs_vector(build_relations(2 * k), k)
        h.update((f"{k}:" + ",".join(map(str, values)) + "\n").encode())
    assert h.hexdigest() == "8ee62ea83e80064ffb186845a966d4f530ddeed0dcef6bccfb7d922fe1eabfc9"


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_4N_rhs_matches_raw_determinant(k):
    g = 2 * k
    (rel,) = [rel for rel in build_relations(g).rows if rel.rhs.kind == "4N"]
    assert evaluate_rhs(rel, k) == 4 * castelnuovo_general(g - 4, 1, k, (0, 1), (0, 1))


@pytest.mark.parametrize("g", [6, 7, 9, 12])
def test_csv_cells_match_the_system_matrix(g):
    system = build_relations(g)
    q = system_matrix(system)
    rows = list(csv.reader(io.StringIO(system_to_csv(system))))
    assert rows[0] == ["source", *map(str, enumerate_basis(g)), "rhs"]
    for r, (rel, cells) in enumerate(zip(system.rows, rows[1:], strict=True)):
        assert cells[0] == rel.source
        assert cells[1:-1] == [str(v) for v in q.row(r)]
        assert cells[-1] == describe_rhs(rel)
