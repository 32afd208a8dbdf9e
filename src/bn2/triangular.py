"""The linear-algebra layer over the relation rows: the rows of the relation
matrix Q_g and of the triangularizing column matrix T_g, the product
P = Q_g * T_g, the certificate that det Q_g != 0 (``_product_report``: no
entry of P above its diagonal and no zero on it) and the exact degree-k
solve.

Q_g, T_g and P are integer rows, one {column: int} dict per row (Q_g's are
the relation rows' own coefficient dicts), and ``_product`` is the one kernel
of P, for the solve and the triangularity report alike.  Every S2 row of P
(two moving tails on a fixed two-pointed curve, 97% of the rows at g = 600)
is the unit row on the diagonal.  The solve takes those entries of the
solution from b_k, which is integers, and substitutes only the other rows
of P, the core; it builds no S2 row of Q_g.  No matrix object is built here
and ``bn2.solver`` is never imported (only the test oracles build its
matrices), so ``bn2 solve`` and ``bn2 tmatrix`` load neither ``bn2.solver``
nor ``fractions`` (``solve_class`` builds its Fractions and imports
``bn2.classes`` when called), and ``bn2 matrix`` loads none of this module.
The CSV and JSON exports of T_g are in ``bn2.export``, which reads the rows
and columns built here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from bn2 import relations
from bn2.basis import basis_dimension, columns
from bn2.relations import build_relations, build_rhs_vector

__all__ = ["solve_class"]


def _t_columns(g: int):
    """The columns of T_g as {column: coefficient} dicts, in group order;
    each generator is written as its column (``basis.columns``).  Every
    column comes from its family's formula: la(g-2) is ld2 (T6[ld2] and
    T9[j=2]), and T18's th(2) is its i = 3 column, last as in S18.  The tags
    are ``bn2.export._t_tags``, which only the exports write."""
    K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2, om, la, dd, th = columns(g)
    fl = g // 2
    yield from ({om(i): 1} for i in range(2, fl + 1))
    # T2[i,j] for 2 <= i <= j, i+j <= g-1: the d(i,j) columns from d(2,2) on
    yield from ({c: 1} for c in range(dd(2, 2), th(1)))
    yield {dd(1, g - 2): 1}
    yield from ({c: 1} for c in range(dd(1, 2), dd(1, g - 3) + 1))  # T4: d(1,2..g-3)
    yield {dd(0, g - 1): 1}
    yield from ({la(i): 1} for i in range(3, g - 1))
    yield {dd(1, 1): 1}
    yield {LD0: 1}
    for j in range(2, g - 2):
        yield {dd(1, j): 2, dd(0, j): 1, la(g - j): -10}
    d0g1, d00, d01, d11 = dd(0, g - 1), dd(0, 0), dd(0, 1), dd(1, 1)
    yield {LD1: 60, D1SQ: 12, d0g1: -3, d01: 8, d00: 2}
    yield {LD1: 12, LD0: 1, d0g1: -1}
    yield {dd(0, g - 2): 1, dd(1, g - 2): 2}
    yield {LD1: 12, LD0: 6, d0g1: -1, d01: -1, d00: -1}
    t14: dict[int, int] = {K1SQ: 6, LD0: 72, LD1: 144, LD2: 144}
    if g % 2 == 0:
        # the self-paired middle class; absent for odd g, where every pair
        # {s, g-s} is already covered by the sum below
        t14[om(fl)] = 6
    for s in range(2, (g + 1) // 2):  # s < g/2
        c = om(s)
        t14[c] = t14.get(c, 0) + 12
    for s in range(3, g - 2):
        t14[la(s)] = 144
    for c in range(d00, th(1)):  # the d(i,j) generators are one run of columns
        t14[c] = -12
    t14[d0g1] = -11
    yield t14
    yield {K2: 1}
    for i in range(fl, g - 2):
        yield {om(i + 1): 1, om(g - i - 1): -1}

    def om_pairs(col: dict[int, int], scale: int) -> dict[int, int]:
        """col plus scale * 6 (g - 2s) (om(g-s) - om(s)) for 2 <= s <= g/2,
        without its zero entries."""
        for s in range(2, fl + 1):
            w = scale * 6 * (g - 2 * s)
            hi, lo = om(g - s), om(s)
            col[hi] = col.get(hi, 0) + w
            col[lo] = col.get(lo, 0) - w
        return {c: v for c, v in col.items() if v != 0}

    t16 = {D1SQ: 12 * (g - 1), d11: -24 * (g - 1), d0g1: 2 * (g - 1), D0SQ: 3, d00: -6}
    yield om_pairs(t16, g - 1)
    t17 = {K2: 6 * g, D1SQ: 12 - 6 * g, d11: 12 * (g - 2), D0SQ: -3, d0g1: 2 - g, d00: 6}
    yield om_pairs(t17, 1)
    yield from ({th(i - 1): 1} for i in (*range(4, (g + 1) // 2 + 1), 3))
    t18 = {
        K2: -6 * g,
        D1SQ: 6 * g - 12,
        d11: 12 * (2 - g),
        D0SQ: 3,
        d0g1: g - 2,
        d00: -6,
        th(1): 72,
    }
    yield om_pairs(t18, -1)


def _t_order(g: int) -> int:
    """The order of T_g, which is defined for g >= 6."""
    if g < 6:
        raise ValueError(f"T_g is defined for g >= 6, got g={g}")
    return basis_dimension(g)


def _checked_t_columns(g: int) -> list[dict[int, int]]:
    """The list of the columns of T_g, one per basis label."""
    n = _t_order(g)
    cols = list(_t_columns(g))
    if len(cols) != n:
        raise RuntimeError(f"internal error: built {len(cols)} T-columns at g={g}, expected {n}")
    return cols


def _t_rows(g: int) -> list[dict[int, int]]:
    """The rows of T_g, one {column: coefficient} dict per basis label, from
    its columns."""
    cols = _checked_t_columns(g)
    rows: list[dict[int, int]] = [{} for _ in cols]
    for c, coeffs in enumerate(cols):
        for r, v in coeffs.items():
            rows[r][c] = v
    return rows


def _product(rows: list[dict[int, int]], t: list[dict[int, int]]) -> list[dict[int, int]]:
    """The rows of A * T for A given by the integer rows ``rows`` and T by
    its rows t, without zero entries: the one product kernel of the full P
    and of the solve's core."""
    out = []
    for row in rows:
        acc: dict[int, int] = {}
        for c, a in row.items():
            for j, b in t[c].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: v for j, v in acc.items() if v})
    return out


def _matvec(rows: list[dict[int, int]], v: list[int]) -> list[int]:
    get = v.__getitem__
    return [sum(map(mul, row.values(), map(get, row))) for row in rows]


def _product_report(p: list[dict]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """(violations, zero_diagonal) of the square product P given by its rows:
    the sorted (row, col, value) entries above the diagonal and the rows whose
    diagonal entry is zero.  Both empty is the structure the production solve
    (``_solve``) relies on and the certificate that det Q_g != 0."""
    violations = sorted((r, c, v) for r, row in enumerate(p) for c, v in row.items() if c > r)
    return violations, [r for r, row in enumerate(p) if not row.get(r)]


class _Genus:
    """One genus's system, built once: the relation rows, the core rows of
    Q_g (the core relations' coefficient dicts, not copied) and the rows of
    T_g, and on first use the core of P = Q_g * T_g, the S2 block's check
    that the solve reads, and ``_product_report`` of the full P, the
    certificate that det Q_g != 0, which adds the S2 rows of P to the core.
    Only this module and ``bn2.verify`` read it, and neither changes it."""

    def __init__(self, g: int):
        self.g = g
        self.t = _t_rows(g)  # first, so that every g < 6 gets T_g's own error
        self.system = build_relations(g)
        self.q = [rel.coefficients for rel in self.system.core]

    @cached_property
    def report(self) -> tuple[list[tuple[int, int, int]], list[int]]:
        # the core's rows and the S2 rows of P: each row is multiplied once
        system, core = self.system, list(self.core.values())
        return _product_report(system._spliced(core, _product(system.s2_coefficients, self.t)))

    @cached_property
    def s2(self) -> tuple[range, range, int]:
        """(rows, cols, t14): the S2 rows, their d(i,j) columns in the same
        order and the column of T14.  Row r, column c of Q_g is
        ``relations._S2_ROW``, {k1^2: 2, d(i,j): 1}, the k1^2 row of T_g
        {T14: 6} (checked here) and its d(i,j) row {T2[i,j]: 1, T14: -12}
        with T2[i,j] = r, so row r of P is e_r; the solve's residual checks
        every row against the form the exports write."""
        g, t = self.g, self.t
        K1SQ, *_, dd, th = columns(g)
        t14 = next(iter(t[K1SQ]), None)
        if t[K1SQ] != {t14: 6}:
            raise RuntimeError(f"internal error: T_g at g={g}: row k1^2 is not {{T14: 6}}")
        return self.system.s2, range(dd(2, 2), th(1)), t14

    @cached_property
    def core(self) -> dict[int, dict[int, int]]:
        """The rows of P other than the S2 rows, by index in increasing
        order."""
        rows = self.system.s2
        rest = [*range(rows.start), *range(rows.stop, len(self.t))]
        return dict(zip(rest, _product(self.q, self.t)))


# the system of genus g >= 6; the memo holds one genus: ``verify.run_all``
# runs its checks genus by genus, so each genus is built once per run
_genus = lru_cache(maxsize=1)(_Genus)


def forward_substitute(rows: dict[int, dict[int, int]], b: list[int]) -> tuple[list[int], int]:
    """Integer numerators y over one denominator d > 0 with P (y/d) = b, for
    b of ints, by fraction-free forward substitution.

    P is square of order len(b), lower-triangular with a nonzero diagonal and
    of integer entries.  ``rows`` maps the index i of each row of P that is
    not the unit row e_i to that row, a {column: int} dict, in increasing i;
    y_i of a unit row is d b_i and is written only at the end.  d starts at
    1; a row whose division is not exact multiplies d and the numerators so
    far by what makes it exact.  A row given with an entry above the diagonal
    or a zero diagonal is a ValueError that names the row and column at
    fault."""
    d = 1
    y: dict[int, int] = {}  # the numerators of the rows given, over d; d b_j for the others
    for i, row in rows.items():
        if max(row, default=-1) != i:
            j, a = next(((j, a) for j, a in row.items() if j > i), (i, 0))
            if a:
                raise ValueError(f"row {i} has the nonzero {a} above the diagonal, in column {j}")
            raise ValueError(f"row {i} has a zero diagonal entry, in column {i}")
        acc = d * b[i] - sum(a * (y[j] if j in y else d * b[j]) for j, a in row.items() if j != i)
        y[i], r = divmod(acc, row[i])
        if r:
            f = abs(row[i]) // gcd(acc, row[i])
            d *= f
            y = {j: v * f for j, v in y.items()}
            y[i] = acc * f // row[i]
    out = [d * v for v in b]
    for i, v in y.items():
        out[i] = v
    return out, d


def _solve(k: int) -> tuple[list[int], int]:
    """(X, D) with X / D the exact solution of Q_g x = b_k at g = 2k.

    P = Q_g T_g is lower-triangular with a nonzero diagonal, so forward
    substitution solves P Y = D b_k in integers over one denominator D, and
    X = T_g Y.  The S2 rows of P are unit rows (``_Genus.s2``), so Y is
    D b_k there; only the core rows are substituted, in their order, and D
    is the one of a substitution over all of P.  Every equation of
    Q_g X = D b_k is checked in integers before X and D are returned, which
    proves X; on the S2 rows that is a X_k1^2 + e X_d(i,j), for the form
    (a, e) = ``relations._S2_ROW`` that the exports write.  A failure of the
    structure or of the residual is an internal error.  The rows come from
    the one-genus memo, so a second solve of the same k builds only b_k and
    substitutes again.
    """
    if k < 3:
        raise ValueError(
            f"the class is solved for k >= 3 (Q_g is square for g = 2k >= 6), got k={k}"
        )
    genus = _genus(2 * k)
    (rows, cols, t14), q, t = genus.s2, genus.q, genus.t
    b = build_rhs_vector(genus.system, k)
    try:
        y, d = forward_substitute(genus.core, b)
    except ValueError as exc:
        raise RuntimeError(f"internal error: Q_g*T_g at g={2 * k}: {exc}") from exc
    w = 12 * y[t14]  # X = T_g Y, where T_g's S2 rows are {T2[i,j]: 1, T14: -12}
    x = _matvec(t[: cols.start], y) + [v - w for v in y[rows.start : rows.stop]]
    x += _matvec(t[cols.stop :], y)
    a, e = relations._S2_ROW  # Q_g X, where Q_g's S2 rows are {k1^2: a, d(i,j): e}
    w = a * x[0]
    lhs = _matvec(q[: rows.start], x) + [e * v + w for v in x[cols.start : cols.stop]]
    lhs += _matvec(q[rows.start :], x)
    if lhs != [d * v for v in b]:
        raise RuntimeError(f"internal error: the solution at k={k} has a nonzero residual")
    return x, d


def solve_class(k: int) -> ClassExpression:
    """The degree-k class at genus 2k: the exact solution of Q_g x = b_k, as
    the one Fraction X_i / D per coefficient of ``_solve``'s (X, D)."""
    from fractions import Fraction

    from bn2.classes import ClassExpression

    x, d = _solve(k)
    return ClassExpression.from_vector(2 * k, [Fraction(v, d) for v in x])

