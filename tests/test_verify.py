from fractions import Fraction

import pytest

from bn2.basis import D0SQ, K1SQ, K2, ClassExpression, dd, enumerate_basis, om, th
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
    run_all,
    scale_factor,
    known_trigonal_class,
)

F = Fraction


def test_scale_factor_values():
    assert scale_factor(3) == F(1, 144)
    assert scale_factor(4) == F(1, 288)
    assert scale_factor(6) == F(1, 144)


def test_closed_form_k3_spot_values():
    cls = closed_form_class(3)
    assert cls[K1SQ] == F(41, 144)
    assert cls[th(2)] == F(-2)
    assert cls[dd(1, 4)] == F(3251, 360)
    assert cls[dd(0, 3)] == F(-41, 72)
    assert cls[D0SQ] == -cls[K1SQ]


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
    assert rep.status == "pass"
    assert rep.check == "pullback[k=3]"
    assert "(c)" in rep.actual


def test_m4_data_shapes():
    tags, matrix, rhs = m4_relations()
    assert len(tags) == 13 and matrix.nrows == 13 and matrix.ncols == 14
    assert len(rhs) == 13
    assert len(m4_class()) == len(M4_LABELS) == 14


def test_m4_first_relation_by_hand():
    cls = m4_class()
    assert 8 * cls["d2^2"] == 36


def test_m4_check_passes():
    rep = check_m4()
    assert rep.status == "pass"
    assert rep.actual["rank"] == 13
    assert rep.actual["nullspace_matches"] is True


def test_m4_report_is_pinned():
    assert check_m4().to_dict() == {
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


def test_m4_kernel_proof_rejects_a_wrong_relation(monkeypatch):
    import bn2.verify

    true = m4_rank_relation()
    perturbed = list(true)
    perturbed[4] += 1
    for wrong in (perturbed, [2 * v for v in true[:-1]] + [true[-1]], [F(0)] * 14):
        monkeypatch.setattr(bn2.verify, "m4_rank_relation", lambda: wrong)
        rep = check_m4()
        assert rep.actual == {"relations_violated": 0, "rank": 13, "nullspace_matches": False}
        assert rep.status == "fail"
    # a nonzero multiple spans the same kernel
    monkeypatch.setattr(bn2.verify, "m4_rank_relation", lambda: [-3 * v for v in true])
    assert check_m4().status == "pass"


def test_m4_rank_relation_is_in_kernel():
    _, matrix, _ = m4_relations()
    v = m4_rank_relation()
    assert matrix.matvec(v) == [0] * 13


def test_check_trigonal_table():
    rep = check_trigonal_table()
    assert rep.status == "pass"
    assert rep.diff == []


@pytest.mark.parametrize("k", [3, 4])
def test_check_closed_form(k):
    assert check_closed_form(k).status == "pass"


def test_check_trigonal_interior():
    rep = check_trigonal_interior()
    assert rep.status == "pass"


def test_check_g5_rank():
    rep = check_g5_rank()
    assert rep.status == "pass"
    assert rep.actual == {"rows": 19, "cols": 20, "rank": 19}
    assert G5_CONVENTION_NOTE in rep.notes


def test_check_nonsingular_g6():
    assert check_nonsingular(6).status == "pass"


def test_nonsingular_certificate_agrees_with_determinant():
    from bn2.relations import build_matrix
    from oracles import det_is_nonzero

    for g in range(6, 17):
        assert check_nonsingular(g).status == "pass"
        assert det_is_nonzero(build_matrix(g))


def test_nonsingular_without_certificate_fails(fresh_memos, monkeypatch):
    import bn2.relations
    from bn2.solver import RationalMatrix

    # with T_g = I the product is Q_g itself, which is not lower-triangular
    monkeypatch.setattr(bn2.relations, "build_T", lambda g: RationalMatrix.identity(25))
    rep = check_nonsingular(6)
    assert rep.status == "fail"
    assert rep.actual != "nonzero"
    # each entry names a row of Q_g * T_g: an entry above the diagonal or a zero diagonal
    assert rep.diff and all("row" in entry or "diagonal" in entry for entry in rep.diff)


def test_check_triangularity_g6():
    rep = check_triangularity(6)
    assert rep.status in ("pass", "warn")
    assert rep.actual["order"] == 25


def test_run_all_is_sorted_and_passes():
    reports = run_all(k_max=3)
    names = [rep.check for rep in reports]
    assert names == sorted(names)
    assert all(rep.status != "fail" for rep in reports)


def test_run_all_builds_each_genus_once(fresh_memos, monkeypatch):
    import bn2.relations
    import bn2.verify
    from bn2.basis import basis_dimension
    from bn2.solver import RationalMatrix

    built = {"rows": [], "T": [], "P": []}

    def counting(key, fn):
        def wrapper(g):
            built[key].append(g)
            return fn(g)

        return wrapper

    rows = counting("rows", bn2.relations.build_relations)
    for module in (bn2.relations, bn2.verify):
        monkeypatch.setattr(module, "build_relations", rows)
    monkeypatch.setattr(bn2.relations, "build_T", counting("T", bn2.relations.build_T))
    matmul = RationalMatrix.matmul

    def counting_matmul(self, other):
        built["P"].append(self.nrows)
        return matmul(self, other)

    monkeypatch.setattr(RationalMatrix, "matmul", counting_matmul)
    assert all(rep.status != "fail" for rep in run_all(k_max=10))
    genera = [*range(6, 17), 18, 20]
    assert built["rows"] == [5, *genera]
    assert built["T"] == genera
    assert built["P"] == [basis_dimension(g) for g in genera]


def test_memos_hold_one_genus(fresh_memos):
    from bn2.relations import _genus
    from bn2.verify import _closed_form

    for k in range(3, 13):
        assert check_closed_form(k).status == "pass"
        assert check_pullback(k).status == "pass"
        assert _genus.cache_info().currsize == 1
        assert _closed_form.cache_info().currsize == 1
        assert _genus(2 * k).system.g == 2 * k


def test_closed_form_class_is_fresh():
    check_pullback(3)  # fills the closed-formula memo
    assert closed_form_class(3) is not closed_form_class(3)


def test_run_all_rejects_k_max_below_3():
    with pytest.raises(ValueError, match=r"k >= 3, got k_max=2"):
        run_all(k_max=2)


def test_pullback_basis_order():
    assert PULLBACK_BASIS == ("D00", "(a)", "(b)", "(c)", "(d)")
