import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bn2.solver import DimensionMismatchError, RationalMatrix
from bn2.triangular import forward_substitute
from oracles import (
    SingularMatrixError,
    _cleared,
    dense,
    dense_row,
    dense_rows,
    det,
    det_is_nonzero,
    gauss_rank,
    identity,
    nullspace,
    rank,
    solve_exact,
    solve_lower_triangular,
    zeros,
)


def test_identity_solve():
    m = identity(4)
    b = [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(7, 5)]
    assert solve_exact(m, b) == b


def test_two_by_two_solve():
    m = dense([[1, 1], [1, -1]])
    assert solve_exact(m, [2, 0]) == [Fraction(1), Fraction(1)]


def test_solve_methods_agree():
    m = dense([[2, 1, -1], [-3, -1, 2], [-2, 1, 2]])
    b = [8, -11, -3]
    assert solve_exact(m, b, method="bareiss") == solve_exact(m, b, method="gauss")


def test_singular_reports_rank():
    m = dense([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as err:
        solve_exact(m, [1, 2])
    assert err.value.rank == 1


@pytest.mark.parametrize("method", ["bareiss", "gauss"])
def test_inconsistent_singular_system_reports_rank(method):
    # the right-hand side column takes the second pivot; it does not count
    m = dense([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as err:
        solve_exact(m, [1, 3], method=method)
    assert err.value.rank == 1


def test_matrix_without_rows_has_the_stated_width():
    empty = dense([])
    assert (empty.nrows, empty.ncols) == (0, 0)
    for n in (0, 3):
        m = RationalMatrix.from_sparse([], n)
        assert (m.nrows, m.ncols) == (0, n)
        assert m == zeros(0, n)
        assert rank(m) == 0
    assert RationalMatrix.from_sparse([], 3) != empty


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_exact(dense([[1, 2]]), [1])
    with pytest.raises(DimensionMismatchError):
        solve_exact(identity(2), [1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        dense([[1, 2], [3]])


def test_rank_and_det():
    m = dense([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert det(m) == 0
    assert not det_is_nonzero(m)
    assert det(dense([[Fraction(1, 2), 0], [0, 3]])) == Fraction(3, 2)


def test_nullspace_zero_matrix():
    vectors = nullspace(zeros(2, 2))
    assert len(vectors) == 2
    assert vectors[0][vectors[0].index(1)] == 1


def test_nullspace_normalization_and_membership():
    m = dense([[1, 2, 3], [4, 5, 6]])
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    first = next(x for x in v if x != 0)
    assert first == 1
    assert m.matvec(v) == [0, 0]


def _random_matrix(rng, n, density=1.0):
    return dense(
        [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if rng.random() < density
                else Fraction(0)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_bareiss_and_gauss_agree_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n, density=rng.choice([0.4, 0.8, 1.0]))
        r_b = rank(m)
        r_g = gauss_rank(m)
        assert r_b == r_g
        assert r_b + len(nullspace(m)) == m.ncols
        if r_b == n:
            b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            assert solve_exact(m, b, method="bareiss") == solve_exact(m, b, method="gauss")


def test_solution_satisfies_every_equation():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = _random_matrix(rng, n)
        if rank(m) < n:
            continue
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        x = solve_exact(m, b)
        assert m.matvec(x) == b


def test_matmul_and_identity():
    m = dense([[1, 2], [3, 4]])
    assert m.matmul(identity(2)) == m
    sq = m.matmul(m)
    assert sq.entry(0, 0) == 7 and sq.entry(1, 1) == 22


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_property(n, data):
    entries = data.draw(
        st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    m = dense(entries)
    assert rank(m) + len(nullspace(m)) == n
    for v in nullspace(m):
        assert m.matvec(v) == [0] * n


# most draws are an explicit zero, as in the relation matrices
_MOSTLY_ZERO = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_storage_matches_dense_reference(nrows, inner, ncols, data):
    def draw_dense(r, c):
        row = st.lists(_MOSTLY_ZERO, min_size=c, max_size=c)
        return data.draw(st.lists(row, min_size=r, max_size=r))

    a, b = draw_dense(nrows, inner), draw_dense(inner, ncols)
    v = draw_dense(1, inner)[0]
    m = dense(a)
    assert dense_rows(m) == a
    assert all(m.entry(i, j) == a[i][j] for i in range(nrows) for j in range(inner))
    assert sorted(m.nonzeros()) == [
        (i, j, a[i][j]) for i in range(nrows) for j in range(inner) if a[i][j] != 0
    ]
    assert m.matvec(v) == [sum(a[i][t] * v[t] for t in range(inner)) for i in range(nrows)]
    product = [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(ncols)] for i in range(nrows)
    ]
    assert dense_rows(m.matmul(dense(b))) == product
    # equality ignores explicit zeros
    assert RationalMatrix.from_sparse([dict(enumerate(row)) for row in a], inner) == m
    assert RationalMatrix.from_sparse(
        [{j: x for j, x in enumerate(row) if x} for row in a], inner
    ) == m


def _same_exact(x, y):
    """x == y with the same type at every level, and only ints and Fractions
    as numbers."""
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same_exact, x, y))
    return type(x) is type(y) and type(x) in (int, Fraction) and x == y


_SPARSE_INT = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
_MIXED = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_int_and_fraction_entries_agree(nrows, ncols, data):
    def draw_ints(r, c):
        row = st.lists(_SPARSE_INT, min_size=c, max_size=c)
        return data.draw(st.lists(row, min_size=r, max_size=r))

    def both(rows, width):
        """The matrix built from ints and from the equal Fractions."""
        return (
            RationalMatrix.from_sparse([dict(enumerate(r)) for r in rows], width),
            RationalMatrix.from_sparse(
                [{j: Fraction(x) for j, x in enumerate(r)} for r in rows], width
            ),
        )

    a = draw_ints(nrows, ncols)
    m_int, m_frac = both(a, ncols)
    assert m_int == m_frac
    if nrows:
        assert dense(a) == m_int
    for i in range(nrows):
        assert _same_exact(dense_row(m_int, i), dense_row(m_frac, i))
        assert all(type(x) is Fraction for x in dense_row(m_int, i))
        for j in range(ncols):
            assert _same_exact(m_int.entry(i, j), m_frac.entry(i, j))
    assert _same_exact(dense_rows(m_int), dense_rows(m_frac))
    assert _same_exact(sorted(m_int.nonzeros()), sorted(m_frac.nonzeros()))

    v = data.draw(st.lists(_MIXED, min_size=ncols, max_size=ncols))
    reference = [
        sum((Fraction(a[i][t]) * v[t] for t in range(ncols)), Fraction(0)) for i in range(nrows)
    ]
    assert _same_exact(m_int.matvec(v), reference)
    assert _same_exact(m_frac.matvec(v), reference)

    width = data.draw(st.integers(0, 4))
    b = draw_ints(ncols, width)
    b_int, b_frac = both(b, width)
    product_int, product_frac = m_int.matmul(b_int), m_frac.matmul(b_frac)
    assert product_int == product_frac
    assert _same_exact(sorted(product_int.nonzeros()), sorted(product_frac.nonzeros()))
    assert all(type(x) is int for _, _, x in product_int.nonzeros())

    assert _same_exact(rank(m_int), rank(m_frac))
    assert _same_exact(gauss_rank(m_int), gauss_rank(m_frac))
    assert _same_exact(nullspace(m_int), nullspace(m_frac))
    if nrows != ncols:
        return
    n = nrows
    assert _same_exact(det(m_int), det(m_frac))
    rhs = data.draw(st.lists(_MIXED, min_size=n, max_size=n))
    if det(m_int) != 0:
        for method in ("bareiss", "gauss"):
            x = solve_exact(m_int, rhs, method=method)
            assert _same_exact(x, solve_exact(m_frac, rhs, method=method))
    # the lower triangle of a, with a nonzero diagonal
    lower = [[a[i][j] if j < i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        lower[i][i] = a[i][i] or 1
    l_int, l_frac = both(lower, n)
    y = solve_lower_triangular(l_int, rhs)
    assert _same_exact(y, solve_lower_triangular(l_frac, rhs))
    assert _same_exact(l_int.matvec(y), [Fraction(x) for x in rhs])


def test_from_sparse_rejects_out_of_range_columns():
    with pytest.raises(DimensionMismatchError):
        RationalMatrix.from_sparse([{2: 1}], 2)
    with pytest.raises(DimensionMismatchError):
        RationalMatrix.from_sparse([{-1: 1}], 2)


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_lower_triangular_solve_matches_bareiss(n, data):
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)
    rows = [
        {
            **{j: data.draw(_MOSTLY_ZERO) for j in range(i)},
            i: data.draw(nonzero),
        }
        for i in range(n)
    ]
    p = RationalMatrix.from_sparse(rows, n)
    b = data.draw(st.lists(st.fractions(max_denominator=9), min_size=n, max_size=n))
    assert solve_lower_triangular(p, b) == solve_exact(p, b)


def test_forward_substitute_grows_one_denominator():
    # y = (1/2, 1/6, 1/3): the first two rows multiply D by 2 and by 3, and the
    # third row, y1 + 5/2 y2 = 1 cleared to 2 y1 + 5 y2 = 2, divides exactly
    p = {0: {0: 2}, 1: {0: 1, 1: 3}, 2: {1: 2, 2: 5}}
    assert forward_substitute(p, [1, 1, 2]) == ([3, 1, 2], 6)
    # b = (1/4, 0, 0) goes through the oracle, which clears its denominator
    # 4, and y = (1/8, -1/24, 1/60) over the one denominator 120
    dense_p = dense([[2, 0, 0], [1, 3, 0], [0, 2, 5]])
    assert solve_lower_triangular(dense_p, [Fraction(1, 4), 0, 0]) == [
        Fraction(v, 120) for v in (15, -5, 2)
    ]


def test_forward_substitute_takes_the_unit_rows_from_b():
    # rows 0 and 2 are e_0 and e_2, so y_0 = b_0 and y_2 = b_2; row 1,
    # y_0 + 3 y_1 = 2, gives y_1 = 1/3 and D = 3, which scales the unit rows
    # before and after it
    assert forward_substitute({1: {0: 1, 1: 3}}, [1, 2, 5]) == ([3, 1, 15], 3)
    assert forward_substitute({}, [1, 5]) == ([1, 5], 1)
    # a b of Fractions goes through the oracle, with every unit row given:
    # y_1 = 1/2 from y_0 = 1/2, and row 3, -y_1 + 2 y_2 + 4 y_3 = 1 with
    # y_2 = -3/4, gives y_3 = 3/4, all over 4
    p = dense([[1, 0, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, -1, 2, 4]])
    b = [Fraction(1, 2), 2, Fraction(-3, 4), 1]
    assert solve_lower_triangular(p, b) == [Fraction(v, 4) for v in (2, 2, -3, 3)]
    assert solve_lower_triangular(identity(2), [Fraction(1, 6), 5]) == [
        Fraction(v, 6) for v in (1, 30)
    ]


@pytest.mark.parametrize(
    "rows, message",
    [
        ({1: {0: 2, 1: 3, 2: -7}}, "row 1 has the nonzero -7 above the diagonal, in column 2"),
        ({1: {0: 2}}, "row 1 has a zero diagonal entry, in column 1"),
        ({2: {}}, "row 2 has a zero diagonal entry, in column 2"),
        # rows come in increasing index, each a row of b
        ({1: {0: 1, 1: 3}, 0: {0: 2}}, "row 0 is given after row 1"),
        ({1: {1: 1}, 2: {2: 1}, 0: {0: 1}}, "row 0 is given after row 2"),
        ({-1: {-1: 1}}, r"row -1 is given outside 0\.\.2"),
        ({0: {0: 1}, 3: {3: 1}}, r"row 3 is given outside 0\.\.2"),
    ],
)
def test_forward_substitute_rejects_rows_off_the_structure(rows, message):
    with pytest.raises(ValueError, match=message):
        forward_substitute(rows, [1, 1, 1])


# diagonals whose divisions are often not exact, so the denominator grows
_GROWING_DIAGONAL = st.sampled_from([2, 3, 5, 7, 6, 35]).flatmap(
    lambda d: st.sampled_from([d, -d, Fraction(d, 4), Fraction(-d, 9)])
)
_SPARSE_MIXED = st.one_of(st.just(0), st.just(0), _MIXED)


@given(st.integers(1, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_forward_substitute_matches_bareiss(n, data):
    rows = [
        {**{j: data.draw(_SPARSE_MIXED) for j in range(i)}, i: data.draw(_GROWING_DIAGONAL)}
        for i in range(n)
    ]
    p = RationalMatrix.from_sparse(rows, n)
    # a b of ints and Fractions goes through the oracle, which clears it
    b = data.draw(st.lists(_MIXED, min_size=n, max_size=n))
    assert solve_lower_triangular(p, b) == solve_exact(p, b)
    # forward_substitute itself on an int b: each row and its entry of b
    # times the lcm of the row's denominators; a row that is e_i (drawn, or
    # made so) may be left to forward_substitute
    b = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    cleared, scales = _cleared(p._rows)
    given = {
        i: row
        for i, row in enumerate(cleared)
        if row != {i: 1} or data.draw(st.booleans(), label=f"give e_{i}")
    }
    y, d = forward_substitute(given, [v * s for v, s in zip(b, scales)])
    assert type(d) is int and d > 0 and all(type(v) is int for v in y)
    assert [Fraction(v, d) for v in y] == solve_exact(p, b)


def test_lower_triangular_rejects_zero_diagonal():
    p = dense([[1, 0, 0], [2, 0, 0], [0, 1, 1]])
    with pytest.raises(ValueError, match="row 1 has a zero diagonal entry, in column 1"):
        solve_lower_triangular(p, [1, 1, 1])


def test_lower_triangular_rejects_entry_above_diagonal():
    p = dense([[1, 0, 0], [2, 3, Fraction(1, 2)], [0, 1, 1]])
    message = "row 1 has the nonzero 1/2 above the diagonal, in column 2"
    with pytest.raises(ValueError, match=message):
        solve_lower_triangular(p, [1, 1, 1])


def test_lower_triangular_rejects_non_square():
    with pytest.raises(DimensionMismatchError, match="got 2 rows and 3 columns"):
        solve_lower_triangular(dense([[1, 0, 0], [1, 1, 0]]), [1, 1])
    with pytest.raises(DimensionMismatchError, match="rhs length 3 vs order 2"):
        solve_lower_triangular(identity(2), [1, 2, 3])
