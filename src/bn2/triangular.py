"""The linear-algebra layer over the relation rows: the rows of the relation
matrix Q_g and of the triangularizing column matrix T_g (each column read
from the relation row it pairs with), the product P = Q_g * T_g, the
certificate that det Q_g != 0 (``_product_report``: no entry of P above its
diagonal and no zero on it) and the exact degree-k solve.

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


def _t_columns(g: int) -> tuple[RelationSystem, list[dict[int, int]]]:
    """``build_relations(g)`` and T_g's {column: coefficient} columns, in group order: each
    core row's own, and the S2 unit run T2[i,j] = {d(i,j): 1}, which no row writes."""
    if g < 6:
        raise ValueError(f"T_g is defined for g >= 6, got g={g}")
    system, (*_, dd, th) = build_relations(g), columns(g)
    s2 = ({c: 1} for c in range(dd(2, 2), th(1)))
    cols = system._spliced([rel.column() for rel in system.core], s2)
    n = basis_dimension(g)
    if len(cols) != n:
        raise RuntimeError(f"internal error: built {len(cols)} T-columns at g={g}, expected {n}")
    return system, cols


def _t_rows(cols: list[dict[int, int]]) -> list[dict[int, int]]:
    """The rows of T_g, one {column: coefficient} dict per basis label, from its columns."""
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
        self.system, cols = _t_columns(g)
        self.t = _t_rows(cols)
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
        ``relations._S2_ROW``, {k1^2: 2, d(i,j): 1}; T_g's row k1^2 is
        {T14: 6} (checked here) and its row d(i,j) {T2[i,j]: 1, T14: -12},
        by ``relations._S2_T14``, with T2[i,j] = r.  So row r of P is 1 on
        T2[i,j], and 2*6 + 1*(-12) = 0 on T14: every S2 row of P is the unit
        row e_r, at every g.  The solve's residual checks every row against
        the form the exports write."""
        g, t, (a, _) = self.g, self.t, relations._S2_T14
        K1SQ, *_, dd, th = columns(g)
        t14 = next(iter(t[K1SQ]), None)
        if t[K1SQ] != {t14: a}:
            raise RuntimeError(f"internal error: T_g at g={g}: row k1^2 is not {{T14: {a}}}")
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
    w = relations._S2_T14[1] * y[t14]  # X = T_g Y, on the S2 rows {T2[i,j]: 1, T14: _S2_T14[1]}
    x = _matvec(t[: cols.start], y) + [v + w for v in y[rows.start : rows.stop]]
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

