from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bn2.basis import (
    D0SQ,
    D1SQ,
    K1SQ,
    K2,
    LD0,
    LD1,
    LD2,
    ClassLabel,
    basis_dimension,
    columns,
    dd,
    enumerate_basis,
    fraction_text,
    la,
    om,
    th,
)
from bn2.classes import ClassExpression, is_valid, parse_label
from oracles import basis_index, canonicalize


def test_basis_dimension_values():
    assert basis_dimension(6) == 25
    assert basis_dimension(5) == 20
    assert basis_dimension(7) == 32
    assert basis_dimension(12) == 70


def test_basis_dimension_rejects_small_genus():
    with pytest.raises(ValueError):
        basis_dimension(4)


def test_basis_dimension_rejects_a_count_no_list_can_index():
    # about g^2/4 generators: 2^62 and more at g = 2^32, past sys.maxsize at
    # g = 2^33; the builders check the count before they build anything
    import sys

    from bn2.verify import _closed_form_parts

    assert 2**62 < basis_dimension(2**32) <= sys.maxsize
    for build in (basis_dimension, enumerate_basis, columns, lambda g: _closed_form_parts(g // 2)):
        with pytest.raises(ValueError, match=r"g=8589934592 has more generators than a list"):
            build(2**33)


def test_enumerate_basis_g6():
    labels = enumerate_basis(6)
    assert len(labels) == 25
    assert labels[0] == K1SQ
    pairs = {(lab.i, lab.j) for lab in labels if lab.kind == "d"}
    assert pairs == {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
    }


def test_enumerate_basis_g5_has_no_lambda():
    labels = enumerate_basis(5)
    assert len(labels) == 20
    assert not any(lab.kind == "la" for lab in labels)


@pytest.mark.parametrize("g", range(5, 21))
def test_enumerate_basis_counts_and_uniqueness(g):
    labels = enumerate_basis(g)
    assert len(labels) == basis_dimension(g)
    assert len(set(labels)) == len(labels)
    assert all(is_valid(lab, g) for lab in labels)


# labels with a field their kind does not use, or an index that is not an
# int: none is a generator, and none may hold a coefficient that no
# generator reads
MALFORMED = [
    ClassLabel("om", 3, 5),
    ClassLabel("la", 3, 0),
    ClassLabel("th", 1, 1),
    ClassLabel("d", 2),
    ClassLabel("d", 0),
    ClassLabel("k2", 1),
    ClassLabel("k1^2", None, 0),
    ClassLabel("om", "3"),
    ClassLabel("th", 1.0),
    ClassLabel("th", True),
    ClassLabel("d", 1, 2.0),
    ClassLabel("d", "0", 0),
    ClassLabel("om"),
]


@pytest.mark.parametrize("g", range(5, 16))
def test_every_valid_label_is_enumerated(g):
    candidates = [K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2, *MALFORMED]
    candidates += [om(i) for i in range(0, g + 2)]
    candidates += [la(i) for i in range(0, g + 2)]
    candidates += [th(i) for i in range(0, g + 2)]
    candidates += [dd(i, j) for i in range(0, g + 2) for j in range(i, g + 2)]
    valid = {lab for lab in candidates if is_valid(lab, g)}
    assert valid == set(enumerate_basis(g))
    assert not any(is_valid(lab, g) for lab in MALFORMED)


def test_enumerate_basis_count_mismatch_is_an_error(monkeypatch):
    import bn2.basis

    monkeypatch.setattr(bn2.basis, "basis_dimension", lambda g: 26)
    with pytest.raises(RuntimeError, match=r"enumerated 25 generators at g=6, expected 26"):
        enumerate_basis(6)


def test_canonicalize_sorts_pairs():
    assert canonicalize(dd(3, 1), 6) == dd(1, 3)


def test_canonicalize_is_idempotent_on_basis():
    for g in (5, 6, 9):
        for lab in enumerate_basis(g):
            assert canonicalize(lab, g) == lab


def test_canonicalize_g5_lambda_convention():
    assert canonicalize(la(3), 5) == LD2
    assert canonicalize(la(2), 5) == LD2
    # at g = 6 the label la(3) is a generator of its own
    assert canonicalize(la(3), 6) == la(3)


@pytest.mark.parametrize("g", range(5, 61))
def test_canonicalize_identifies_la_g_minus_2_with_ld2(g):
    # la(g-2) is never a generator; the S6 and S18 templates write it
    assert not is_valid(la(g - 2), g)
    assert canonicalize(la(g - 2), g) == LD2


@pytest.mark.parametrize("g", range(6, 61))
def test_canonicalize_keeps_la2_for_g5_only(g):
    # test_canonicalize_g5_lambda_convention holds la(2) -> ld2 at g = 5
    with pytest.raises(ValueError, match=rf"^label la\(2\) is invalid for genus {g}$"):
        canonicalize(la(2), g)


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonicalize(om(5), 6)  # om range at g=6 is 2..4
    with pytest.raises(ValueError):
        canonicalize(dd(3, 3), 6)  # 3 + 3 > g - 1


@pytest.mark.parametrize("g", [*range(5, 201), 401, 600])
def test_columns_equal_the_label_route(g):
    # every generator, and each d pair in both orders, lands where the
    # oracle puts its canonical label
    *scalars, col_om, col_la, col_dd, col_th = columns(g)
    index = basis_index.__wrapped__(g)  # uncached: one dict per genus is large
    functions = {"om": col_om, "la": col_la, "th": col_th}
    assert scalars == list(range(7))
    for lab, pos in index.items():
        if lab.kind == "d":
            assert col_dd(lab.i, lab.j) == col_dd(lab.j, lab.i) == pos
            assert index[canonicalize(ClassLabel("d", lab.j, lab.i), g)] == pos
        elif lab.kind in functions:
            assert functions[lab.kind](lab.i) == pos
        else:
            assert scalars[pos] == pos
        assert index[canonicalize(lab, g)] == pos


@pytest.mark.parametrize("g", [*range(5, 201), 401, 600])
def test_columns_identify_la_g_minus_2_with_ld2(g):
    *_, col_la, _, _ = columns(g)
    assert col_la(g - 2) == enumerate_basis(g).index(LD2) == 6
    if g == 5:
        assert col_la(2) == 6
    else:
        with pytest.raises(ValueError, match=rf"^label la\(2\) is invalid for genus {g}$"):
            col_la(2)


@pytest.mark.parametrize("g", range(5, 61))
def test_columns_reject_what_canonicalize_rejects(g):
    *_, col_om, col_la, col_dd, col_th = columns(g)
    cases = [
        (col_om, om(1)),
        (col_om, om(g - 1)),
        (col_dd, dd(0, g)),
        (col_dd, ClassLabel("d", g, 0)),
        (col_th, th(0)),
        (col_th, th((g + 1) // 2)),
    ]
    if g >= 6:
        cases.append((col_la, la(2)))
    if g == 6:
        cases.append((col_dd, dd(3, 3)))
    for column, lab in cases:
        with pytest.raises(ValueError) as want:
            canonicalize(lab, g)
        with pytest.raises(ValueError) as got:
            column(*(i for i in lab[1:] if i is not None))
        assert str(got.value) == str(want.value)


def test_label_strings_round_trip():
    for g in (5, 6, 10):
        for lab in enumerate_basis(g):
            assert parse_label(str(lab)) == lab


def test_label_string_forms():
    assert str(K1SQ) == "k1^2"
    assert str(dd(0, 5)) == "d(0,5)"
    assert str(om(3)) == "om(3)"
    assert str(th(2)) == "th(2)"


def test_label_is_a_frozen_value_with_a_stable_hash():
    import copy
    import pickle

    for factory_made, constructed, text, shown in [
        (dd(1, 2), ClassLabel("d", 1, 2), "d(1,2)", "ClassLabel(kind='d', i=1, j=2)"),
        (om(3), ClassLabel("om", 3), "om(3)", "ClassLabel(kind='om', i=3, j=None)"),
        (la(4), ClassLabel("la", 4), "la(4)", "ClassLabel(kind='la', i=4, j=None)"),
        (th(1), ClassLabel("th", 1), "th(1)", "ClassLabel(kind='th', i=1, j=None)"),
        (K1SQ, ClassLabel("k1^2"), "k1^2", "ClassLabel(kind='k1^2', i=None, j=None)"),
    ]:
        parsed = parse_label(text)
        # str hashes differ between processes, so a pickle must not carry one
        assert b"_hash" not in pickle.dumps(factory_made)
        copies = [pickle.loads(pickle.dumps(factory_made)), copy.deepcopy(factory_made)]
        for other in (constructed, parsed, *copies):
            assert other == factory_made and hash(other) == hash(factory_made)
            assert {factory_made: 1}[other] == 1
        assert str(factory_made) == str(constructed) == text
        assert repr(factory_made) == repr(parsed) == shown
        i = factory_made.i
        with pytest.raises(AttributeError):
            factory_made.i = 7
        assert factory_made.i == i
    assert dd(1, 2) != dd(2, 1) and om(3) != la(3) and om(3) != "om(3)"


def test_class_expression_basics():
    expr = ClassExpression(6, {K1SQ: Fraction(41, 144), dd(0, 0): Fraction(1)})
    assert expr[K1SQ] == Fraction(41, 144)
    assert expr[K2] == 0
    vec = expr.vector()
    assert len(vec) == 25
    assert ClassExpression.from_vector(6, vec) == expr


def test_class_expression_rejects_invalid_label():
    # a coefficient the expression stored but never read made
    # ClassExpression(6, {ClassLabel("om", 3, 5): 1}) equal the zero class
    for lab in (om(17), *MALFORMED):
        with pytest.raises(ValueError, match=r"^label .* is invalid for genus 6$"):
            ClassExpression(6, {lab: Fraction(1)})


def test_class_expression_diff():
    a = ClassExpression(6, {K1SQ: Fraction(1)})
    b = ClassExpression(6, {K1SQ: Fraction(2)})
    assert a.diff(b) == [("k1^2", Fraction(1), Fraction(2))]


@given(st.integers(5, 18))
def test_dimension_formula_matches_enumeration(g):
    assert len(enumerate_basis(g)) == (g * g - 1) // 4 + 3 * g - 1


@given(st.integers(), st.integers().filter(bool))
@example(0, 7)
@example(0, -7)
@example(-6, 4)
@example(6, -4)
@example(-5, -1)
@example(12, 12)
def test_fraction_text_is_str_fraction(n, d):
    assert fraction_text(n, d) == str(Fraction(n, d))


def test_fraction_text_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        fraction_text(1, 0)
