"""The linear-algebra layer over the relation rows: the relation matrix Q_g,
the triangularizing column matrix T_g, the check that P = Q_g * T_g is
lower-triangular with a nonzero diagonal, and the exact degree-k solve.

Everything here is a ``RationalMatrix`` or reads one, so this module is
loaded only by the commands that build one (``bn2 solve``, ``bn2 tmatrix``
and ``bn2 verify``).  ``bn2 matrix`` reads the rows and right-hand sides of
``bn2.relations`` alone and loads none of it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from bn2.basis import ClassExpression, basis_dimension, columns, enumerate_basis
from bn2.relations import (
    RelationSystem,
    _csv_line,
    _json_export,
    build_relations,
    build_rhs_vector,
)
from bn2.solver import RationalMatrix, forward_substitute

__all__ = [
    "build_matrix",
    "system_matrix",
    "solve_class",
    "build_T",
    "TriangularityReport",
    "triangularity_report",
    "t_matrix_to_csv",
    "t_matrix_to_json",
]


def system_matrix(system: RelationSystem) -> RationalMatrix:
    """Rows in system order, columns in the frozen basis order."""
    return RationalMatrix.from_sparse(
        [rel.coefficients for rel in system.rows], basis_dimension(system.g)
    )


def build_matrix(g: int) -> RationalMatrix:
    return system_matrix(build_relations(g))


def _t_columns(g: int):
    """(tag, {column: coefficient}) pairs for the columns of T_g, in group
    order; each generator is written as its column (``basis.columns``)."""
    K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2, om, la, dd, th = columns(g)
    fl = g // 2
    for i in range(2, fl + 1):
        yield f"T1[i={i}]", {om(i): 1}
    for i in range(2, g - 2):
        for j in range(i, min(g - 3, g - 1 - i) + 1):
            yield f"T2[i={i},j={j}]", {dd(i, j): 1}
    yield "T3", {dd(1, g - 2): 1}
    for i in range(2, g - 2):
        yield f"T4[i={i}]", {dd(1, i): 1}
    yield "T5", {dd(0, g - 1): 1}
    for i in range(3, g - 2):
        yield f"T6[i={i}]", {la(i): 1}
    yield "T6[ld2]", {LD2: 1}
    yield "T7", {dd(1, 1): 1}
    yield "T8", {LD0: 1}
    yield "T9[j=2]", {dd(1, 2): 2, dd(0, 2): 1, LD2: -10}
    for j in range(3, g - 2):
        yield f"T9[j={j}]", {dd(1, j): 2, dd(0, j): 1, la(g - j): -10}
    d0g1, d00, d01, d11 = dd(0, g - 1), dd(0, 0), dd(0, 1), dd(1, 1)
    yield "T10", {LD1: 60, D1SQ: 12, d0g1: -3, d01: 8, d00: 2}
    yield "T11", {LD1: 12, LD0: 1, d0g1: -1}
    yield "T12", {dd(0, g - 2): 1, dd(1, g - 2): 2}
    yield "T13", {LD1: 12, LD0: 6, d0g1: -1, d01: -1, d00: -1}
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
    yield "T14", t14
    yield "T15", {K2: 1}
    for i in range(fl, g - 2):
        yield f"T16[i={i}]", {om(i + 1): 1, om(g - i - 1): -1}

    def om_pairs(col: dict[int, int], scale: int) -> dict[int, int]:
        """col plus scale * 6 (g - 2s) (om(g-s) - om(s)) for 2 <= s <= g/2,
        without its zero entries."""
        for s in range(2, fl + 1):
            w = scale * 6 * (g - 2 * s)
            if w:
                hi, lo = om(g - s), om(s)
                col[hi] = col.get(hi, 0) + w
                col[lo] = col.get(lo, 0) - w
        return {c: v for c, v in col.items() if v != 0}

    t16 = {D1SQ: 12 * (g - 1), d11: -24 * (g - 1), d0g1: 2 * (g - 1), D0SQ: 3, d00: -6}
    yield "T16[sum]", om_pairs(t16, g - 1)
    t17 = {K2: 6 * g, D1SQ: 12 - 6 * g, d11: 12 * (g - 2), D0SQ: -3, d0g1: 2 - g, d00: 6}
    yield "T17", om_pairs(t17, 1)
    for i in range(4, (g + 1) // 2 + 1):
        yield f"T18[i={i}]", {th(i - 1): 1}
    yield "T18[th2]", {th(2): 1}
    t18 = {
        K2: -6 * g,
        D1SQ: 6 * g - 12,
        d11: 12 * (2 - g),
        D0SQ: 3,
        d0g1: g - 2,
        d00: -6,
        th(1): 72,
    }
    yield "T18[final]", om_pairs(t18, -1)


def _checked_t_columns(g: int) -> list[tuple[str, dict[int, int]]]:
    if g < 6:
        raise ValueError(f"T_g is defined for g >= 6, got g={g}")
    cols = list(_t_columns(g))
    n = basis_dimension(g)
    if len(cols) != n:
        raise RuntimeError(f"internal error: built {len(cols)} T-columns at g={g}, expected {n}")
    return cols


def _t_rows(cols) -> list[dict[int, int]]:
    """The rows of T_g, one {column: coefficient} dict per basis label, from
    its columns."""
    rows: list[dict[int, int]] = [{} for _ in cols]
    for c, (_, coeffs) in enumerate(cols):
        for r, v in coeffs.items():
            rows[r][c] = v
    return rows


def build_T(g: int) -> RationalMatrix:
    """The triangularizing column matrix: rows indexed by the basis, one
    column per group entry, built to pair with the rows of Q_g."""
    cols = _checked_t_columns(g)
    return RationalMatrix.from_sparse(_t_rows(cols), len(cols))


class TriangularityReport(
    namedtuple(
        "TriangularityReport",
        "order lower_triangular diagonal_nonzero violations zero_diagonal",
    )
):
    """Outcome of the Q_g * T_g product check.  ``ok`` is the structure the
    production solve (``_solve``) relies on and the certificate that
    det Q_g != 0."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lower_triangular and self.diagonal_nonzero


def triangularity_report(q: RationalMatrix, t: RationalMatrix) -> TriangularityReport:
    """Compute P = Q * T and report whether P is lower-triangular with a
    nonzero diagonal.  Violations are listed, never asserted."""
    if not (q.is_square() and t.is_square() and q.nrows == t.nrows):
        raise ValueError(
            f"need square matrices of equal order, got {q.nrows}x{q.ncols} and {t.nrows}x{t.ncols}"
        )
    return _product_report(q.matmul(t))


def _product_report(p: RationalMatrix) -> TriangularityReport:
    n = p.nrows
    violations = sorted((r, c, v) for r, c, v in p.nonzeros() if c > r)
    zero_diag = [r for r in range(n) if p.entry(r, r) == 0]
    return TriangularityReport(
        order=n,
        lower_triangular=not violations,
        diagonal_nonzero=not zero_diag,
        violations=violations,
        zero_diagonal=zero_diag,
    )


class _Genus:
    """One genus's system, built once: the relation rows, Q_g, T_g and
    P = Q_g * T_g, and P's triangularity report on first use.  Only this
    module and ``bn2.verify`` read it, and neither changes it."""

    def __init__(self, g: int):
        self.system = build_relations(g)
        self.q = system_matrix(self.system)
        self.t = build_T(g)
        self.p = self.q.matmul(self.t)

    @cached_property
    def report(self) -> TriangularityReport:
        return _product_report(self.p)


@lru_cache(maxsize=1)
def _genus(g: int) -> _Genus:
    """The system of genus g >= 6.  The memo holds one genus: ``verify.run_all``
    runs its checks genus by genus, so each genus is built once per run."""
    return _Genus(g)


def _solve(k: int) -> tuple[list[int], int]:
    """(X, D) with X / D the exact solution of Q_g x = b_k at g = 2k.

    P = Q_g T_g is lower-triangular with a nonzero diagonal, so forward
    substitution solves P Y = D b_k in integers over one denominator D, and
    X = T_g Y.  Every equation of Q_g X = D b_k is checked in integers before
    X and D are returned; a failure of either the structure or the residual is
    an internal error.  Q_g, T_g and P come from the one-genus memo.
    """
    if k < 3:
        raise ValueError(
            f"the class is solved for k >= 3 (Q_g is square for g = 2k >= 6), got k={k}"
        )
    genus = _genus(2 * k)
    b = build_rhs_vector(genus.system, k)
    try:
        y, d = forward_substitute(genus.p, b)
    except ValueError as exc:
        raise RuntimeError(f"internal error: Q_g*T_g at g={2 * k}: {exc}") from exc
    x = genus.t.int_matvec(y)
    if genus.q.int_matvec(x) != [v.numerator * (d // v.denominator) for v in b]:
        raise RuntimeError(f"internal error: the solution at k={k} has a nonzero residual")
    return x, d


def solve_class(k: int) -> ClassExpression:
    """The degree-k class at genus 2k: the exact solution of Q_g x = b_k, as
    the one Fraction X_i / D per coefficient of ``_solve``'s (X, D)."""
    x, d = _solve(k)
    return ClassExpression.from_vector(2 * k, [Fraction(v, d) for v in x])


def t_matrix_to_csv(g: int) -> str:
    cols = _checked_t_columns(g)
    lines = [_csv_line(["label", *(tag for tag, _ in cols)], (), 0)]
    for lab, row in zip(enumerate_basis(g), _t_rows(cols)):
        lines.append(_csv_line([str(lab)], sorted(row.items()), len(cols)))
    return "".join(lines)


def t_matrix_to_json(g: int) -> str:
    entries = [("tag", tag, coeffs) for tag, coeffs in _checked_t_columns(g)]
    return _json_export(g, "columns", entries)
