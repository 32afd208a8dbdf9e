import csv
import hashlib
import io
import json
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bn2.basis import (
    D1SQ,
    K1SQ,
    K2,
    LD1,
    LD2,
    basis_dimension,
    dd,
    enumerate_basis,
    la,
    om,
    th,
)
from bn2.relations import (
    Relation,
    RelationSystem,
    _s2_columns,
    _s2_pairs,
    Rhs,
    build_relations,
    build_rhs_vector,
    describe_rhs,
    evaluate_rhs,
)
from bn2.solver import RationalMatrix
from bn2.triangular import (
    _Genus,
    _genus,
    _product,
    _product_report,
    _solve,
    _t_columns,
    _t_rows,
    forward_substitute,
    solve_class,
)
from bn2.cli import main
from bn2.export import (
    _csv_line,
    system_to_csv,
    system_to_json,
    t_matrix_to_csv,
    t_matrix_to_json,
)
from bn2.verify import check_g5_rank, closed_form_class
from oracles import (
    basis_index,
    build_matrix,
    build_T_by_label,
    canonicalize,
    castelnuovo_general,
    dense_row,
    rhs_by_row,
    solve_exact,
    solve_full_p,
    solve_lower_triangular,
    system_matrix,
    system_to_csv_dense,
    system_to_json_dumps,
    t_column_tags,
    t_matrix_to_csv_dense,
    t_matrix_to_json_dumps,
)

F = Fraction


def _row(system, source):
    return next(rel for rel in system.rows if rel.source == source)


def _by_label(rel):
    """rel's coefficients keyed by label.  Every key must be a column of the
    genus-g basis."""
    labels = enumerate_basis(rel.g)
    assert all(type(c) is int and 0 <= c < len(labels) for c in rel.coefficients)
    return {labels[c]: v for c, v in rel.coefficients.items()}


def test_row_counts():
    assert len(build_relations(6).rows) == 25
    assert len(build_relations(5).rows) == 19
    assert not any(rel.source == "S10" for rel in build_relations(5).rows)
    for g in range(6, 17):
        assert len(build_relations(g).rows) == basis_dimension(g)


def test_s1_row_g6():
    rel = _row(build_relations(6), "S1[i=2]")
    assert _by_label(rel) == {K1SQ: F(2), om(2): F(-1), om(4): F(-1)}
    assert rel.rhs == Rhs("T", 2)


def test_s1_accumulates_at_middle_genus():
    rel = _row(build_relations(6), "S1[i=3]")
    assert _by_label(rel) == {K1SQ: F(2), om(3): F(-2)}


def test_s10_g6_coefficients():
    rel = _row(build_relations(6), "S10")
    assert _by_label(rel) == {
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
    assert _by_label(rel)[D1SQ] == 12


def test_s9_collision_cancels_at_g6():
    rel = _row(build_relations(6), "S9[j=2]")
    assert dd(2, 2) not in _by_label(rel)
    assert _by_label(rel)[dd(1, 2)] == 2


def test_all_keys_canonical():
    for g in (5, 6, 7, 9, 12):
        labels = set(enumerate_basis(g))
        for rel in build_relations(g).rows:
            assert set(_by_label(rel)) <= labels


def test_g5_lambda_rows_land_on_ld2():
    system = build_relations(5)
    s11 = _row(system, "S11")
    assert _by_label(s11)[LD2] == F(3) - 1  # 3*ld2 - la(2)
    s18 = _row(system, "S18[i=3]")
    assert _by_label(s18)[LD2] == F(-2)  # -la(3) - ld2
    assert _by_label(s18)[om(3)] == F(-2)  # om(3) and om(g-2) collide


def _hand_written_rows(g):
    """The rows S6[i=g-2] and S18[i=3] as the builder once wrote them by
    hand, with ld2 in place of la(g-2), accumulated into columns in the
    order of their terms."""
    terms = {
        f"S6[i={g - 2}]": [(K1SQ, 2), (LD2, -1), (dd(1, 2), 1), (dd(0, 2), -12)],
        "S18[i=3]": [
            (K1SQ, 3),
            (K2, 1),
            (om(3), -1),
            (om(g - 2), -1),
            (D1SQ, -1),
            (dd(2, g - 3), 1),
            (la(3), -1),
            (LD2, -1),
            (LD1, 1),
            (dd(0, 2), -12),
            (dd(0, g - 3), -12),
            (dd(0, g - 1), 12),
            (th(2), 12),
        ],
    }
    index = basis_index(g)
    rows = {}
    for source, row in terms.items():
        acc = {}
        for raw, coeff in row:
            c = index[canonicalize(raw, g)]
            acc[c] = acc.get(c, 0) + coeff
        rows[source] = {c: v for c, v in acc.items() if v}
    return rows


@pytest.mark.parametrize("g", range(5, 61))
def test_folded_rows_equal_the_hand_written_ones(g):
    system = build_relations(g)
    sources = [rel.source for rel in system.rows]
    # S6[i=g-2] closes its family before S7; S18[i=3] comes before S18[i=2], last
    assert sources[sources.index("S7") - 1] == f"S6[i={g - 2}]"
    assert sources[-2:] == ["S18[i=3]", "S18[i=2]"]
    for source, coeffs in _hand_written_rows(g).items():
        rel = _row(system, source)
        assert list(rel.coefficients.items()) == list(coeffs.items())
        assert rel.rhs == Rhs("zero") and sources.count(source) == 1


# sha256 of every row (source, coefficients in insertion order, rhs) and of
# every T_g column (tag, coefficients in insertion order), recorded before the
# builders wrote their columns by arithmetic instead of through labels
_ROW_DIGESTS = {
    range(5, 61): "2a4e82072850c8ec27d4e6668e9abc68b58ffb1dc41fa1e2c328edc72adbdf07",
    range(200, 201): "54c8d02dfc913b0270276e966b06765db4a9b14cd43e587e291cf9aa658b8451",
    range(401, 402): "640a9e7b995c7be6970331540982c78fe75f6f6c0c3cec43eaf28e57e2c736bd",
}
_T_DIGESTS = {
    range(6, 61): "815899e3a7313728366cb56993dd0d348e4f393ace72cb18d9fa5e2c92a66d8d",
    range(200, 201): "7e01c477ea37272b4ead063881e294b2030b9d22338a552a5b1397cd7fba3a96",
    range(401, 402): "74eed0d7c4784b9be5e008f3768c20edb073ad202d95c9ceae32d0e2772a14e6",
}


@pytest.mark.parametrize("genera", list(_ROW_DIGESTS), ids=str)
def test_rows_are_pinned_in_insertion_order(genera):
    h = hashlib.sha256()
    for g in genera:
        for rel in build_relations(g).rows:
            h.update(repr((rel.source, list(rel.coefficients.items()), tuple(rel.rhs))).encode())
    assert h.hexdigest() == _ROW_DIGESTS[genera]


@pytest.mark.parametrize("genera", list(_T_DIGESTS), ids=str)
def test_t_columns_are_pinned_in_insertion_order(genera):
    h = hashlib.sha256()
    for g in genera:
        system, cols = _t_columns(g)
        for tag, coeffs in zip(system.t_tags, cols, strict=True):
            h.update(repr((tag, list(coeffs.items()))).encode())
    assert h.hexdigest() == _T_DIGESTS[genera]


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


@pytest.mark.parametrize("g", range(5, 61))
def test_the_s2_pairs_are_one_run_of_columns(g):
    # each pair's d(i,j) column, by its label's place in the basis, and the
    # run's length by the sum that counted the pairs before the run
    index = {lab: c for c, lab in enumerate(enumerate_basis(g))}
    run = _s2_columns(g)
    assert list(run) == [index[dd(i, j)] for i, j in _s2_pairs(g)]
    assert len(run) == sum(g - 2 * i for i in range(2, (g + 1) // 2))


@pytest.mark.parametrize("g", [3, 4, 6])
def test_a_system_without_s2_rows_needs_no_columns(g):
    # the views of a hand-built system with no S2 rows are those of its core
    # rows, at every g, also where the genus has no columns
    core = [Relation("S5", g, {0: 2}, Rhs("zero")), Relation("S1[i=2]", g, {}, Rhs("T", 2))]
    system = RelationSystem(g, core)
    assert system.s2 == range(0) and system.s2_coefficients == [] and system.rows == core
    assert system.sources == ["S5", "S1[i=2]"]
    assert system.coefficients == [{0: 2}, {}]
    assert system.rhs_texts == [describe_rhs(rel) for rel in core]
    assert system.t_tags == ["T5", "T1[i=2]"]


@pytest.mark.parametrize("k", range(3, 13))
def test_solve_class_equals_bareiss(k):
    system = build_relations(2 * k)
    x = solve_exact(system_matrix(system), build_rhs_vector(system, k))
    assert list(solve_class(k).coefficients.values()) == x


def test_solve_class_rejects_small_k():
    with pytest.raises(ValueError, match=r"k >= 3 .*got k=2"):
        solve_class(2)


def test_solve_class_without_triangular_structure_is_internal(fresh_memos, monkeypatch):
    import bn2.triangular

    # with T_g = I the S2 rows of P are not unit rows: T_g's k1^2 row is {k1^2: 1}
    monkeypatch.setattr(bn2.triangular, "_t_rows", lambda cols: [{i: 1} for i in range(25)])
    with pytest.raises(RuntimeError, match=r"^internal error: T_g at g=6: row k1\^2 is not"):
        solve_class(3)


def test_solve_class_with_a_core_off_the_structure_is_internal(fresh_memos, monkeypatch):
    import bn2.triangular

    # T_g's k1^2 and S2 d(i,j) rows with I elsewhere: the S2 rows of P are unit
    # rows, and the core is the rest of Q_g, with entries above the diagonal
    real = _t_rows(_t_columns(6)[1])
    s2_columns = {c for rel in build_relations(6).rows if rel.rhs.kind == "D" for c in rel.coefficients}
    mixed = [real[c] if c in s2_columns else {c: 1} for c in range(25)]
    monkeypatch.setattr(bn2.triangular, "_t_rows", lambda cols: mixed)
    with pytest.raises(RuntimeError, match=r"^internal error: Q_g\*T_g at g=6: row \d+ has the nonzero"):
        solve_class(3)


def test_solve_class_checks_the_residual(monkeypatch):
    import bn2.triangular

    monkeypatch.setattr(bn2.triangular, "forward_substitute", lambda p, b: ([0] * len(b), 1))
    with pytest.raises(RuntimeError, match="internal error: the solution at k=3 has a nonzero"):
        solve_class(3)


def test_solve_class_residual_covers_every_row(monkeypatch):
    import bn2.triangular

    # solving P y = b + e_r gives Q_g (T_g y) - b = e_r: a residual in row r alone
    for r in range(25):

        def off_in_row_r(p, b, r=r):
            return forward_substitute(p, [v + (i == r) for i, v in enumerate(b)])

        monkeypatch.setattr(bn2.triangular, "forward_substitute", off_in_row_r)
        with pytest.raises(RuntimeError, match="internal error: the solution at k=3 has a nonzero"):
            solve_class(3)


@pytest.mark.parametrize("k", [3, 10])
def test_solve_is_integers_over_one_denominator(k):
    x, d = _solve(k)
    assert type(d) is int and d > 0 and all(type(v) is int for v in x)
    assert list(solve_class(k).coefficients.values()) == [F(v, d) for v in x]


def test_solve_class_at_k60_is_pinned():
    # sha256 of the `bn2 solve --k 60` lines, recorded before the solve ran in
    # integers over one denominator
    text = "".join(f"{lab} {v}\n" for lab, v in solve_class(60).coefficients.items())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "587cfb918c7060d793045e1ec46b539b1913ceb0346cccaabeba7cffd36500d0"


def test_solve_class_builds_few_fractions(monkeypatch):
    # b_k and the answer hold one Fraction per coefficient each; the solve
    # between them runs in integers
    solve_class(14)  # fills the genus memo
    new = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    solve_class(14)
    monkeypatch.undo()
    n = basis_dimension(28)
    assert n == 278 and 0 < len(built) <= 2 * n + 8


def test_build_functions_return_fresh_objects():
    solve_class(3)  # fills the genus memo
    for build in (build_relations, lambda g: _t_columns(g)[1]):
        assert build(6) is not build(6)
    assert solve_class(3) is not solve_class(3)
    system = build_relations(6)
    assert system.rows[0] is not build_relations(6).rows[0]
    column = system.core[0].column  # each read of a T_g column writes a fresh dict
    assert column() == column() and column() is not column()


def _t_matrix(g):
    """The runtime's rows of T_g as a ``RationalMatrix``."""
    return RationalMatrix.from_sparse(_t_rows(_t_columns(g)[1]), basis_dimension(g))


@cache
def _q_t_p(g):
    q, t = build_matrix(g), _t_matrix(g)
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
    t = _t_matrix(g)
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


@pytest.mark.parametrize("g", range(6, 61))
def test_build_T_equals_the_label_keyed_oracle(g):
    assert _t_matrix(g) == build_T_by_label(g)
    n = basis_dimension(g)
    assert all(type(c) is int and 0 <= c < n for col in _t_columns(g)[1] for c in col)


def test_build_T_rejects_g5():
    with pytest.raises(ValueError):
        _t_columns(5)


@pytest.mark.parametrize("export", [t_column_tags, t_matrix_to_csv, t_matrix_to_json])
def test_t_exports_reject_g5_like_build_T(export):
    with pytest.raises(ValueError) as want:
        _t_columns(5)
    with pytest.raises(ValueError) as got:
        export(5)
    assert str(got.value) == str(want.value) == "T_g is defined for g >= 6, got g=5"


def test_triangularity_identity_cases():
    q = [rel.coefficients for rel in build_relations(6).rows]
    t = _t_rows(_t_columns(6)[1])
    ident = [{i: 1} for i in range(25)]

    def above(rows):
        return sorted((r, c, v) for r, row in enumerate(rows) for c, v in row.items() if c > r)

    violations_q, _ = _product_report(_product(q, ident))
    assert violations_q  # Q itself is not triangular
    assert violations_q == above(q)
    p_t = _product(ident, t)
    violations_t, zero_diagonal_t = _product_report(p_t)
    assert len(p_t) == 25
    assert violations_t == above(t)
    assert zero_diagonal_t == [r for r, row in enumerate(t) if not row.get(r)]
    violations, zero_diagonal = _product_report(_product(q, t))
    assert not violations and not zero_diagonal


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


def test_rhs_vectors_are_pinned_to_k40():
    # b_k for k = 3..40, hashed as above when the counting layer became integer-only
    h = hashlib.sha256()
    for k in range(3, 41):
        values = build_rhs_vector(build_relations(2 * k), k)
        h.update((f"{k}:" + ",".join(map(str, values)) + "\n").encode())
    assert h.hexdigest() == "5c43b087fdc3caf913350077d45100760267448e8b2ba5f30fb81a7303bde933"


def test_rhs_vectors_are_pinned_to_k60():
    # b_k for k = 41..60, hashed as above before sum_D became a four-term
    # closed form at g = 2k
    h = hashlib.sha256()
    for k in range(41, 61):
        values = build_rhs_vector(build_relations(2 * k), k)
        h.update((f"{k}:" + ",".join(map(str, values)) + "\n").encode())
    assert h.hexdigest() == "d2380f461483416d07efb6b1a434a3a8abf3f0a5f858a8f7cc06db874373b009"


@pytest.mark.parametrize("k", [61, 150])
def test_the_s2_loop_of_b_equals_each_row_evaluated(k):
    # b_k's S2 entries come from one loop over the (i, j) pairs; each equals
    # its row of the view evaluated by its own descriptor, over one shared
    # sum_D table, past the pinned digests' k = 60
    from bn2.enumerative import _sum_D_table
    from bn2.relations import _evaluate

    system = build_relations(2 * k)
    d_sums = _sum_D_table(k)
    assert build_rhs_vector(system, k) == [_evaluate(rel, k, d_sums) for rel in system.rows]


@pytest.mark.parametrize("k", [3, 4, 7, 30])
def test_the_core_holds_no_s2_row(fresh_memos, k):
    # the S2 rows are a range described once, right after S1, not core rows
    system = _genus(2 * k).system
    assert not any(rel.rhs.kind == "D" for rel in system.core)
    assert len(system.core) + len(system.s2) == basis_dimension(2 * k)
    rows = system.rows
    assert rows[system.s2.start - 1].source == f"S1[i={k}]"
    assert rows[system.s2.start].source == "S2[i=2,j=2]"
    assert [r for r, rel in enumerate(rows) if rel.rhs.kind == "D"] == list(system.s2)


@pytest.mark.parametrize("g", [5, 6, 11, 30])
def test_the_views_of_the_s2_rows_are_those_of_rows(g):
    system = build_relations(g)
    rows = system.rows
    assert system.sources == [rel.source for rel in rows]
    assert system.s2_coefficients == [rows[r].coefficients for r in system.s2]
    # a system without S2 rows: every view is of its core rows alone
    core = RelationSystem(g, system.core)
    assert core.rows is system.core
    assert core.sources == [rel.source for rel in system.core]


def test_a_system_without_s2_rows_has_no_s2_coefficients():
    # s2_coefficients has one dict per S2 row the system holds, as the other
    # views have one entry per row
    system = RelationSystem(6, build_relations(6).core)
    assert len(system.s2_coefficients) == 0
    assert len(system.sources) == len(system.coefficients) == len(system.rows) == 23
    for g in range(5, 41):
        built = build_relations(g)
        assert len(built.s2_coefficients) == len(built.s2) > 0


def test_b_of_the_s2_rows_needs_g_2k():
    with pytest.raises(ValueError, match=r"needs g = 2k, got g=8, k=3"):
        build_rhs_vector(build_relations(8), 3)
    # a hand-built system with S2 rows and no core right-hand side to check
    system = RelationSystem(8, [Relation("S5", 8, {}, Rhs("zero"))], range(1, 7))
    with pytest.raises(ValueError, match=r"S2 rows needs g = 2k, got g=8, k=3"):
        build_rhs_vector(system, 3)


@pytest.mark.parametrize(
    "s2", [range(1, 2), range(1, 8), range(0, 12, 2), range(6, 0, -1), range(2, 8)]
)
def test_a_system_rejects_an_s2_range_its_genus_does_not_have(s2):
    # g = 8 has 6 S2 pairs; one core row leaves room for a start of 0 or 1
    core = [Relation("S5", 8, {}, Rhs("zero"))]
    with pytest.raises(ValueError, match=r"s2 must be range\(a, a \+ 6\) with a <= 1 at g=8"):
        RelationSystem(8, core, s2)
    with pytest.raises(ValueError, match="s2 must be"):
        RelationSystem._make((8, core, s2))
    with pytest.raises(ValueError, match="s2 must be"):
        RelationSystem(8, core, range(1, 7))._replace(s2=s2)


@pytest.mark.parametrize("g", [5, 6, 7, 8, 13, 40])
def test_a_system_takes_the_s2_range_of_its_genus(g):
    system = build_relations(g)
    pairs = len(list(_s2_pairs(g)))
    assert len(system.s2) == pairs and system._replace() == system
    assert RelationSystem(g, system.core[:1], range(1, 1 + pairs)).s2 == range(1, 1 + pairs)
    assert RelationSystem(g, system.core[:1], range(0, pairs)).s2 == range(pairs)
    assert RelationSystem(g + 1, []).s2 == range(0)


def test_the_solve_builds_no_s2_row(fresh_memos, monkeypatch):
    import bn2.relations

    def no_view(system):
        raise AssertionError("the S2 rows were built")

    monkeypatch.setattr(bn2.relations.RelationSystem, "rows", property(no_view))
    x, d = _solve(8)
    monkeypatch.undo()
    assert (x, d) == solve_full_p(8)


def test_the_t_tags_and_the_report_build_no_s2_row(monkeypatch):
    # the tags read the sources and the report the S2 coefficient dicts, so
    # neither writes a Relation of an S2 row
    import bn2.relations

    tags, report = build_relations(21).t_tags, _Genus(21).report

    def no_view(system):
        raise AssertionError("the S2 rows were built")

    monkeypatch.setattr(bn2.relations.RelationSystem, "rows", property(no_view))
    assert build_relations(21).t_tags == tags
    assert _Genus(21).report == report and report == ([], [])


@pytest.mark.parametrize("g", [5, 6, 11])
def test_the_exports_and_the_g5_check_build_no_s2_row(monkeypatch, g):
    # the exports write each row from the sources, the coefficient dicts and
    # the right-hand-side texts, and the genus-5 check ranks the coefficient
    # dicts, so none writes a Relation of an S2 row
    import bn2.relations

    system = build_relations(g)
    ks = [None, g // 2] if g % 2 == 0 else [None]

    def outputs():
        texts = [export(system, k) for export in (system_to_csv, system_to_json) for k in ks]
        return texts, check_g5_rank()

    before = outputs()

    def no_view(system):
        raise AssertionError("the S2 rows were built")

    monkeypatch.setattr(bn2.relations.RelationSystem, "rows", property(no_view))
    assert outputs() == before


def test_rhs_entries_are_ints_where_integral(monkeypatch):
    import bn2.relations

    # every entry of these b_k is integral, and each is an int
    for k in (3, 10, 28):
        assert {type(v) for v in build_rhs_vector(build_relations(2 * k), k)} == {int}
    rel = Relation("S1[i=2]", 6, {}, Rhs("T", 2))
    assert (evaluate_rhs(rel, 3), type(evaluate_rhs(rel, 3))) == (12, int)
    # a count that its divisor (2*2-2)(2*4-2) = 12 does not divide is an
    # internal error that names the row and k
    monkeypatch.setattr(bn2.relations, "sum_T", lambda i, g, k: 18)
    message = r"^internal error: rhs of S1\[i=2\] at k=3 is 18/12, not an integer$"
    with pytest.raises(RuntimeError, match=message):
        evaluate_rhs(rel, 3)
    with pytest.raises(RuntimeError, match=message):
        build_rhs_vector(build_relations(6), 3)
    # 4N = 4 (g-4)! num / s!: with (num, s) = (30, 4) at g = 6, N = 2 * 30 / 24
    # = 5/2 and 4N = 10, and with (30, 5) N = 1/2 and 4N = 2, while (7, 4)
    # makes 4N = 56/24, which names its row S7
    (rel,) = [r for r in build_relations(6).rows if r.rhs.kind == "4N"]
    for num_s, want in (((30, 4), 10), ((30, 5), 2)):
        monkeypatch.setattr(bn2.relations, "_castelnuovo_num", lambda *args, v=num_s: v)
        assert (evaluate_rhs(rel, 3), type(evaluate_rhs(rel, 3))) == (want, int)
    monkeypatch.setattr(bn2.relations, "_castelnuovo_num", lambda *args: (7, 4))
    with pytest.raises(RuntimeError, match=r"of S7 at k=3 is 56/24, not an integer$"):
        evaluate_rhs(rel, 3)


def test_a_non_integral_s2_entry_names_its_pair(monkeypatch):
    # D(i,j) = 6(i-1)(j-1) keeps every D6 row, D(2,i)/(6(i-1)), integral and
    # makes the first S2 row, D(2,2)/4, 6/4
    import bn2.relations

    monkeypatch.setattr(bn2.relations, "_sum_D_table", lambda k: lambda i, j: 6 * (i - 1) * (j - 1))
    message = r"^internal error: rhs of S2\[i=2,j=2\] at k=3 is 6/4, not an integer$"
    with pytest.raises(RuntimeError, match=message):
        build_rhs_vector(build_relations(6), 3)


@pytest.mark.parametrize(
    "argv", [("solve", "--k", "3"), ("matrix", "--g", "6", "--k", "3")], ids=["solve", "matrix"]
)
def test_a_non_integral_rhs_exits_3(fresh_memos, capsys, monkeypatch, argv):
    import bn2.relations

    monkeypatch.setattr(bn2.relations, "sum_T", lambda i, g, k: 18)
    code = main(list(argv))
    captured = capsys.readouterr()
    message = "internal error: rhs of S1[i=2] at k=3 is 18/12, not an integer"
    assert (code, captured.out, captured.err) == (3, "", f"bn2 {argv[0]}: {message}\n")


@pytest.mark.parametrize("k", [*range(3, 41), 60, 90])
def test_rhs_vector_is_each_row_over_its_divisor(k):
    # a second route to b_k: every row of the rows view, S2 rows included,
    # as one Fraction of its count over its divisor
    system = build_relations(2 * k)
    b = build_rhs_vector(system, k)
    assert b == rhs_by_row(system, k)
    assert {type(v) for v in b} == {int}


@pytest.mark.parametrize("k", [40, 60])
def test_rhs_vector_is_Q_times_closed_formula(k):
    # a second route to b_k: the closed formula solves Q_g x = b_k
    system = build_relations(2 * k)
    expected = system_matrix(system).matvec(closed_form_class(k).vector())
    assert build_rhs_vector(system, k) == expected


def test_rhs_vector_builds_each_E_term_once(monkeypatch):
    import bn2.enumerative

    k, g = 28, 56
    built = []

    def counting(j, k):
        built.append(j)
        return e_terms(j, k)

    def no_pairwise_kernel(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension or generator
            frame = frame.f_back
        caller = frame.f_code.co_name
        if caller != "castelnuovo_N":
            raise AssertionError(f"per-pair kernel called from {caller}")
        return castelnuovo_num(*args)

    e_terms, castelnuovo_num = bn2.enumerative._e_terms, bn2.enumerative._castelnuovo_num
    monkeypatch.setattr(bn2.enumerative, "_e_terms", counting)
    monkeypatch.setattr(bn2.enumerative, "_castelnuovo_num", no_pairwise_kernel)
    system = build_relations(g)
    b = build_rhs_vector(system, k)
    # 754 D and D6 rows from the four terms E_r(j) of each genus j <= g-3,
    # each built once
    assert sum(rel.rhs.kind in ("D", "D6") for rel in system.rows) == 754
    assert sorted(built) == list(range(2, g - 2))
    monkeypatch.undo()
    assert b == build_rhs_vector(system, k)


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
        assert cells[1:-1] == [str(v) for v in dense_row(q, r)]
        assert cells[-1] == describe_rhs(rel)


@pytest.mark.parametrize("g", range(5, 31))
def test_system_csv_equals_the_csv_writer(g):
    system = build_relations(g)
    assert system_to_csv(system) == system_to_csv_dense(system)
    if g >= 6 and g % 2 == 0:
        assert system_to_csv(system, g // 2) == system_to_csv_dense(system, g // 2)


def test_system_csv_of_a_carriage_return_equals_the_csv_writer():
    # a source holding "\r" is quoted by the export and by the oracle alike
    rows = [Relation(text, 6, {3: -2}, Rhs("zero")) for text in ("a\rb", "c\r\nd", "e\nf")]
    system = RelationSystem(6, rows)
    assert system_to_csv(system) == system_to_csv_dense(system)


@pytest.mark.parametrize("g", range(6, 21))
def test_t_matrix_csv_equals_the_csv_writer(g):
    assert t_matrix_to_csv(g) == t_matrix_to_csv_dense(g)


@pytest.mark.parametrize("g", range(5, 31))
def test_json_exports_equal_json_dumps(g):
    system = build_relations(g)
    assert system_to_json(system) == system_to_json_dumps(system)
    if g >= 6 and g % 2 == 0:
        assert system_to_json(system, g // 2) == system_to_json_dumps(system, g // 2)
    if g >= 6:
        assert t_matrix_to_json(g) == t_matrix_to_json_dumps(g)


def _json_strings(value):
    """Every string of a parsed JSON value, the object keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _json_strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _json_strings(item)


@pytest.mark.parametrize("g", range(5, 61))
def test_json_exports_quote_only_plain_ascii(g, monkeypatch):
    # every string the JSON writers quote is printable ASCII with no double
    # quote or backslash, so writing it between double quotes as it is equals
    # json.dumps, and json's escaper is never called
    import json.encoder

    def no_escaping(text):
        raise AssertionError(f"{text!r} was escaped")

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", no_escaping)
    system = build_relations(g)
    texts = [system_to_json(system)]
    if g >= 6:
        texts.append(t_matrix_to_json(g))
    if g >= 6 and g % 2 == 0:
        texts.append(system_to_json(system, g // 2))
    for text in texts:
        assert "\\" not in text
        strings = set(_json_strings(json.loads(text)))
        plain = {s for s in strings if s.isascii() and s.isprintable() and '"' not in s}
        assert len(strings) > g and strings == plain


# each string is quoted on its own, so one export can hold plain strings,
# written as they are, next to strings that json's encoder escapes
_ESCAPED_SOURCES = ["a\nb", "\x00", "\x7f", "\u00e9", "\u2028", "\ud800"]


@pytest.mark.parametrize(
    "rows",
    [
        [Relation("empty", 6, {}, Rhs("zero")), Relation('a "b"\\', 6, {3: -2}, Rhs("zero"))],
        [
            Relation("plain", 6, {}, Rhs("zero")),
            *(Relation(text, 6, {c: c + 1}, Rhs("zero")) for c, text in enumerate(_ESCAPED_SOURCES)),
        ],
    ],
    ids=["empty-and-quoted", "plain-and-escaped"],
)
def test_json_export_writes_an_empty_row_as_json_dumps(rows):
    system = RelationSystem(6, rows)
    assert '"coeffs": {},' in system_to_json(system)
    assert system_to_json(system) == system_to_json_dumps(system)


@pytest.mark.parametrize("column", [25, -1])
@pytest.mark.parametrize("export", [system_to_csv, system_to_json])
def test_q_exports_reject_a_column_outside_the_genus(export, column):
    # g = 6 has the columns 0..24: a hand-built row off them would write a
    # 28-cell CSV row under the 27-cell header, and in JSON index past the
    # labels (25) or wrap onto th(2) (-1)
    hand = Relation("hand", 6, {3: 1, column: 2}, Rhs("zero"))
    rows = [Relation("S5", 6, {0: 1}, Rhs("zero")), hand]
    message = rf"^hand has column {column}, outside the 25 columns of its genus$"
    with pytest.raises(ValueError, match=message):
        export(RelationSystem(6, rows))


def test_rhs_evaluation_builds_no_text(monkeypatch):
    import bn2.relations

    class NoText(str):
        def format(self, *args, **kwargs):
            raise AssertionError("rhs text built during evaluation")

    system = build_relations(20)
    b = build_rhs_vector(system, 10)
    table = bn2.relations._RHS
    no_text = {kind: (count, div, NoText(text)) for kind, (count, div, text) in table.items()}
    monkeypatch.setattr(bn2.relations, "_RHS", no_text)
    assert build_rhs_vector(system, 10) == b
    with pytest.raises(AssertionError, match="rhs text built"):
        describe_rhs(system.rows[0])


_CSV_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "(", "/"]), max_size=6)


@given(
    st.lists(_CSV_TEXT, min_size=1, max_size=3),
    st.integers(0, 8),
    st.dictionaries(st.integers(0, 7), st.integers(-20, 20).filter(bool)),
    st.lists(_CSV_TEXT, max_size=2),
)
@example(["d(0,5)", "a\rb", 'say "x"', " a ", "a\nb"], 3, {1: -1}, ["D(2,3)/6", ""])
@settings(max_examples=300, deadline=None)
def test_csv_line_quotes_as_the_csv_writer(head, width, row, tail):
    """Every line the exports build equals csv.writer's for the dense row,
    with the writer's line terminator "\\r\\n" written as "\\n", text fields
    holding commas, quotes, carriage returns, newlines and spaces included.
    Under that terminator csv.writer quotes a carriage return as it quotes a
    newline on every Python from 3.10 on, and csv.reader reads each line back
    as its fields.  (csv.writer quotes a line of one empty field; no export
    builds a line of one field.)"""
    assume(len(head) + width + len(tail) >= 2)
    nonzeros = sorted((c, v) for c, v in row.items() if c < width)
    cells = ["0"] * width
    for c, v in nonzeros:
        cells[c] = str(v)
    fields = [*head, *cells, *tail]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    line = _csv_line(head, nonzeros, width, tuple(tail))
    assert line == buf.getvalue().removesuffix("\r\n") + "\n"
    assert list(csv.reader(io.StringIO(line))) == [fields]


@pytest.mark.parametrize("k", range(3, 61))
def test_solve_equals_the_full_p_oracle(k):
    # the S2 block in closed form and the core substituted give the (X, D) of
    # forward substitution over all of P = Q_g * T_g
    assert _solve(k) == solve_full_p(k)


# the diagonal entry of P = Q_g * T_g on a core row, by the row's family, as
# a function of g and the row's index (0 for a family of one row): the values
# of the built P at every g in 6..60, which a derivation with g formal is to prove
_P_DIAGONAL = {
    "S1": lambda g, i: -2 if 2 * i == g else -1,
    "S3": lambda g, i: -1,
    "S4": lambda g, i: -1,
    "S5": lambda g, i: -12,
    "S6": lambda g, i: -1,
    "S7": lambda g, i: 1,
    "S8": lambda g, i: 24,
    "S9": lambda g, j: 6 if j == g - 3 else 4,
    "S10": lambda g, i: 216 if g == 6 else 144,
    "S11": lambda g, i: -36,
    "S12": lambda g, i: 20,
    "S13": lambda g, i: -2 * (g - 4),
    "S14": lambda g, i: 144 * (g - 2),
    "S15": lambda g, i: 2 * g - 4,
    "S16": lambda g, i: 6 * g * (g - 1) if i == g - 2 else -2 if g % 2 and i == g // 2 else -1,
    "S17": lambda g, i: 72,
    "S18": lambda g, i: 864 if i == 2 else 12,
}


@pytest.mark.parametrize("g", range(6, 61))
def test_the_diagonal_of_p_is_pinned_per_family(g):
    # each core row dotted with the T_g column written beside it is its own
    # entry of P's diagonal, nonzero as the det Q_g != 0 certificate needs
    system, genus = build_relations(g), _Genus(g)
    for r, rel in zip(genus.core, system.core, strict=True):
        column = rel.column()
        entry = sum(v * column.get(c, 0) for c, v in rel.coefficients.items())
        family, _, index = rel.source.partition("[")
        assert entry == genus.core[r][r] == _P_DIAGONAL[family](g, int(index[2:-1] or 0))


@pytest.mark.parametrize("g", range(6, 61))
def test_integer_product_equals_matmul(g):
    genus = _genus(g)
    n = basis_dimension(g)
    p = _product([rel.coefficients for rel in genus.system.rows], genus.t)
    t = RationalMatrix.from_sparse(genus.t, n)
    assert RationalMatrix.from_sparse(p, n) == system_matrix(genus.system).matmul(t)
    assert all(0 not in row.values() for row in p)
    # the solve's core is the rest of the same product, and its S2 rows are e_r
    core, s2_rows = genus.core, genus.s2[0]
    assert list(core) == sorted(core) and all(core[r] == p[r] for r in core)
    assert all(p[r] == {r: 1} for r in s2_rows)
    assert len(core) + len(s2_rows) == n


@pytest.mark.parametrize("g", [6, 9, 16])
def test_report_reuses_the_core_rows_it_finds(g, monkeypatch):
    # the full P's report is the core's rows plus the S2 rows of P, the same
    # whether the solve's core was built first or by the report: it multiplies
    # the S2 rows alone after a core, and builds no S2 certificate
    import bn2.triangular

    multiplied = []

    def counting(rows, t):
        multiplied.append(len(rows))
        return _product(rows, t)

    cold, warm = _Genus(g), _Genus(g)
    warm.core
    monkeypatch.setattr(bn2.triangular, "_product", counting)
    q = [rel.coefficients for rel in cold.system.rows]
    s2 = len(cold.system.s2)
    assert warm.report == cold.report == _product_report(_product(q, cold.t))
    assert multiplied == [s2, len(q) - s2, s2]  # warm: S2 rows; cold: core, then S2 rows
    assert cold.report == ([], []) and "s2" not in vars(cold) and "core" in vars(cold)


def test_report_after_a_broken_s2_form_is_the_full_product(monkeypatch):
    # a broken k1^2 row of T_g, on which every S2 row of P rests: the solve,
    # which checks that row first, raises, and the report, a diagnostic, is
    # still the full product and does not raise
    import bn2.triangular

    genus = _Genus(8)
    genus.t[0] = {**genus.t[0], 5: 1}
    monkeypatch.setattr(bn2.triangular, "_genus", lambda g: genus)
    with pytest.raises(RuntimeError, match="is not"):
        _solve(4)
    q = [rel.coefficients for rel in genus.system.rows]
    assert genus.report == _product_report(_product(q, genus.t))
    assert genus.report != ([], [])


def _s2_row(g):
    """The index, the relation and the d(i,j) column of the first S2 row at
    genus g."""
    r, rel = next((r, rel) for r, rel in enumerate(build_relations(g).rows) if rel.rhs.kind == "D")
    return r, rel, next(c for c in rel.coefficients if c)


def _t_rows_with(change):
    real = _t_rows

    def rows(cols):
        t = real(cols)
        change(t)
        return t

    return rows


def _solve_exit(capsys, k):
    code = main(["solve", "--k", str(k)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("k1sq_row", [{"t14": 7}, {"t14": 6, 1: 1}, {}])
def test_a_changed_k1sq_row_of_T_is_internal(fresh_memos, monkeypatch, capsys, k, k1sq_row):
    import bn2.triangular

    def change(t):
        (t14,) = t[0]
        t[0] = {t14 if c == "t14" else c: v for c, v in k1sq_row.items()}

    monkeypatch.setattr(bn2.triangular, "_t_rows", _t_rows_with(change))
    code, out, err = _solve_exit(capsys, k)
    assert (code, out) == (3, "")
    assert err == f"bn2 solve: internal error: T_g at g={2 * k}: row k1^2 is not {{T14: 6}}\n"


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("extra", [{5: 1}, {"t14": -11}, {"r": 2}])
def test_a_changed_s2_row_of_T_is_internal(fresh_memos, monkeypatch, capsys, k, extra):
    # the S2 rows of T_g are not checked one by one: the change reaches the
    # core of P, and forward substitution or the residual finds it
    import bn2.triangular

    g = 2 * k
    r, rel, c = _s2_row(g)

    def change(t):
        (t14,) = t[0]
        t[c] = {**t[c], **{{"t14": t14, "r": r}.get(key, key): v for key, v in extra.items()}}

    monkeypatch.setattr(bn2.triangular, "_t_rows", _t_rows_with(change))
    code, out, err = _solve_exit(capsys, k)
    assert (code, out) == (3, "")
    assert err.startswith("bn2 solve: internal error: ")


@pytest.mark.parametrize("form", [(3, 1), (2, 2)])
def test_a_changed_s2_row_of_Q_is_exported_and_internal(fresh_memos, monkeypatch, capsys, form):
    # the S2 row's form is stated once, in bn2.relations: the export writes
    # the changed rows, and the solve's residual, which reads the same
    # statement, finds that its unit rows of P no longer solve them
    import bn2.relations

    monkeypatch.setattr(bn2.relations, "_S2_ROW", form)
    assert main(["matrix", "--g", "10"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    s2 = [row for row in rows if row[0].startswith("S2[")]
    assert len(s2) == len(list(_s2_pairs(10)))
    for row, (i, j) in zip(s2, _s2_pairs(10)):
        assert row[0] == f"S2[i={i},j={j}]"
        cells = {name: v for name, v in zip(header[1:-1], row[1:-1]) if v != "0"}
        assert cells == {"k1^2": str(form[0]), f"d({i},{j})": str(form[1])}
    code, out, err = _solve_exit(capsys, 5)
    assert (code, out) == (3, "")
    assert err == "bn2 solve: internal error: the solution at k=5 has a nonzero residual\n"

