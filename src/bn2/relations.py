"""Test-surface relation rows, the genus-g relation matrix Q_g with its
symbolic right-hand sides, and the triangularizing column matrix T_g.

Each of the eighteen families of test surfaces contributes one group of
rows; a row stores exact coefficients on the canonical generators plus a
right-hand-side descriptor that evaluates to an exact rational once the
pencil degree k (with g = 2k) is fixed.  Raw template labels pass through
``canonicalize`` and coincident labels accumulate additively, which is what
collapses repeated terms at small g.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from bn2.basis import (
    D0SQ,
    D1SQ,
    K1SQ,
    K2,
    LD0,
    LD1,
    LD2,
    ClassExpression,
    ClassLabel,
    basis_dimension,
    basis_index,
    canonicalize,
    dd,
    enumerate_basis,
    la,
    om,
    th,
)
from bn2.enumerative import (
    SchubertIndex,
    castelnuovo_N,
    count_ell,
    count_m,
    count_n,
    sum_D,
    sum_S16,
    sum_T,
)
from bn2.solver import RationalMatrix, solve_lower_triangular

__all__ = [
    "Rhs",
    "Relation",
    "RelationSystem",
    "build_relations",
    "evaluate_rhs",
    "describe_rhs",
    "build_matrix",
    "system_matrix",
    "build_rhs_vector",
    "solve_class",
    "build_T",
    "t_column_tags",
    "TriangularityReport",
    "triangularity_report",
    "system_to_csv",
    "system_to_json",
    "t_matrix_to_csv",
    "t_matrix_to_json",
]

@dataclass(frozen=True)
class Rhs:
    """Right-hand-side descriptor, evaluable once k is fixed.

    kinds: zero | T(i) | D(i,j) | n_over (S3) | D6(i) (S4) | 4N (S7) |
    2ell (S13) | S16(i) | S16sp (S16, i = g-2).
    """

    kind: str
    i: int = 0
    j: int = 0


@dataclass
class Relation:
    """One test-surface row: source tag, nonzero integer coefficients, RHS
    descriptor."""

    source: str
    g: int
    coefficients: dict[ClassLabel, int]
    rhs: Rhs


@dataclass
class RelationSystem:
    g: int
    rows: list[Relation]

    @property
    def labels(self) -> tuple[ClassLabel, ...]:
        """The columns: the genus-g generators in the frozen order."""
        return enumerate_basis(self.g)


def _accumulate(g: int, terms) -> dict[ClassLabel, int]:
    acc: dict[ClassLabel, int] = {}
    for raw, coeff in terms:
        lab = canonicalize(raw, g)
        acc[lab] = acc.get(lab, 0) + coeff
    return {lab: c for lab, c in acc.items() if c}


def build_relations(g: int) -> RelationSystem:
    """All relation rows for genus g, in the frozen group order.

    For g >= 6 the system is square of order basis_dimension(g); for g = 5
    the S10 row does not exist and the system is 19 x 20.
    """
    if g < 5:
        raise ValueError(f"relations are defined for g >= 5, got g={g}")
    rows: list[Relation] = []

    def add(source: str, rhs: Rhs, terms) -> None:
        rows.append(Relation(source, g, _accumulate(g, terms), rhs))

    # S1: two moving points glued, genus i + (g-i).
    for i in range(2, g // 2 + 1):
        add(f"S1[i={i}]", Rhs("T", i), [(K1SQ, 2), (om(i), -1), (om(g - i), -1)])

    # S2: two moving tails on a fixed two-pointed curve.
    for i in range(2, g - 2):
        for j in range(i, g - 2):
            if i + j > g - 1:
                break
            add(f"S2[i={i},j={j}]", Rhs("D", i, j), [(K1SQ, 2), (dd(i, j), 1)])

    # S3: elliptic curve glued to itself and to a moving point.
    add(
        "S3",
        Rhs("n_over"),
        [(K1SQ, 4), (om(2), -1), (om(g - 2), -1), (dd(1, g - 2), -1), (dd(0, g - 2), 2)],
    )

    # S4: self-glued elliptic curve, fixed middle curve, moving tail.
    for i in range(2, g - 2):
        add(
            f"S4[i={i}]",
            Rhs("D6", i),
            [(K1SQ, 4), (dd(1, i), -1), (dd(0, i), 2), (dd(2, i), 1)],
        )

    # S5: pencil of plane cubics glued to a moving point.
    add("S5", Rhs("zero"), [(K1SQ, 2), (dd(0, g - 1), -12), (D1SQ, 2), (LD1, -1)])

    # S6: elliptic pencil tail plus a moving tail on a fixed curve.
    for i in range(3, g - 2):
        add(
            f"S6[i={i}]",
            Rhs("zero"),
            [(K1SQ, 2), (la(i), -1), (dd(1, g - i), 1), (dd(0, g - i), -12)],
        )
    add(
        f"S6[i={g - 2}]",
        Rhs("zero"),
        [(K1SQ, 2), (LD2, -1), (dd(1, 2), 1), (dd(0, 2), -12)],
    )

    # S7: two self-glued elliptic curves on a fixed two-pointed curve.
    add(
        "S7",
        Rhs("4N"),
        [
            (K1SQ, 8),
            (dd(2, 2), 1),
            (dd(1, 2), -2),
            (dd(1, 1), 1),
            (D1SQ, 2),
            (D0SQ, 8),
            (dd(0, 0), 4),
            (dd(0, 2), 4),
            (dd(0, 1), -4),
        ],
    )

    # S8: two elliptic pencil tails on a fixed curve.
    add(
        "S8",
        Rhs("zero"),
        [
            (K1SQ, 2),
            (D0SQ, 288),
            (LD0, 24),
            (D1SQ, 2),
            (LD1, -2),
            (dd(0, 0), 144),
            (dd(1, 1), 1),
            (dd(0, 1), -24),
        ],
    )

    # S9: rational spine with two elliptic tails, fixed tail, moving tail.
    for j in range(2, g - 2):
        add(
            f"S9[j={j}]",
            Rhs("zero"),
            [
                (K1SQ, 2),
                (dd(1, j), 2),
                (dd(j, g - j - 2), 1),
                (dd(2, j), -1),
                (dd(j, g - j - 1), -2),
                (om(j), -1),
                (om(g - j), -1),
            ],
        )

    # S10: two rational spines glued at moving points (g >= 6 only); at g = 6
    # the d1^2 coefficient is 18 rather than 12.
    if g >= 6:
        add(
            "S10",
            Rhs("zero"),
            [
                (K1SQ, 2),
                (D1SQ, 18 if g == 6 else 12),
                (dd(1, 1), 6),
                (dd(1, g - 5), 3),
                (dd(1, 3), 2),
                (dd(3, g - 5), 1),
                (dd(1, g - 3), 3),
                (om(3), -1),
                (om(g - 3), -1),
                (dd(2, g - 3), -3),
                (dd(2, g - 5), -3),
                (dd(1, 2), -6),
                (dd(1, g - 4), -6),
                (dd(3, g - 4), -2),
                (dd(1, 2), -3),
                (dd(2, 3), -1),
                (dd(2, g - 4), 6),
                (dd(2, 2), 3),
            ],
        )

    # S11: elliptic pencil tail and a moving point on a rational spine.
    add(
        "S11",
        Rhs("zero"),
        [
            (K1SQ, 2),
            (la(g - 3), -1),
            (D1SQ, 6),
            (dd(1, 1), 3),
            (LD1, -3),
            (dd(1, 3), 1),
            (dd(0, 1), -36),
            (dd(0, 3), -12),
            (LD2, 3),
            (dd(0, 2), 36),
            (dd(1, 2), -3),
        ],
    )

    # S12: rational spine carrying an elliptic pencil, glued to a moving point.
    add(
        "S12",
        Rhs("zero"),
        [
            (K1SQ, 2),
            (LD1, -3),
            (dd(0, 1), -24),
            (dd(0, g - 3), -12),
            (dd(0, g - 1), -12),
            (D1SQ, 6),
            (dd(1, 1), 2),
            (dd(1, g - 3), 1),
            (la(3), -1),
            (LD2, 2),
            (dd(0, g - 2), 24),
            (dd(1, g - 2), -2),
            (LD2, 1),
            (dd(0, 2), 12),
            (dd(1, 2), -1),
        ],
    )

    # S13: self-glued curve and self-glued elliptic curve, joined at a point.
    c13 = g - 3
    add(
        "S13",
        Rhs("2ell"),
        [
            (K1SQ, 8 * c13),
            (dd(0, 0), 4 * c13),
            (D0SQ, 8 * c13),
            (dd(0, 2), 2 * c13),
            (dd(0, g - 2), 2),
            (om(2), -1),
            (om(g - 2), -1),
            (dd(0, 1), -2 * c13),
            (dd(1, g - 2), -1),
            (dd(0, 1), -2),
            (dd(1, 2), -1),
            (dd(1, 1), 1),
            (D1SQ, 2),
        ],
    )

    # S14: self-glued curve carrying an elliptic pencil tail.
    w14 = 2 * g - 4
    add(
        "S14",
        Rhs("zero"),
        [
            (K1SQ, 2 * w14),
            (LD0, -w14),
            (D0SQ, -24 * w14),
            (dd(0, 0), -12 * w14),
            (dd(0, 1), w14),
            (dd(0, g - 1), -12),
            (dd(0, 1), 12),
            (dd(1, 1), -1),
        ],
    )

    # S15: curve glued to itself along two moving points.
    add(
        "S15",
        Rhs("zero"),
        [
            (K1SQ, 8 * g * g - 26 * g + 20),
            (K2, 2 * g - 4),
            (D1SQ, 4 - 2 * g),
            (D0SQ, 8 * (g - 1) * (g - 2)),
        ],
    )

    # S16: elliptic curve and fixed tail attached at two moving points.
    for i in range(g // 2, g - 2):
        add(
            f"S16[i={i}]",
            Rhs("S16", i),
            [
                (K1SQ, 4 * i - 1),
                (K2, 1),
                (om(i), 1),
                (om(i + 1), -1),
                (D1SQ, 1),
                (dd(1, g - i - 1), 2 * i - 1),
            ],
        )
    add(
        f"S16[i={g - 2}]",
        Rhs("S16sp"),
        [(K1SQ, 4 * g - 9), (K2, 1), (om(g - 2), 1), (D1SQ, 4 * g - 8), (dd(1, 1), 2 * g - 5)],
    )

    # S17: two-pointed elliptic bridge moving in a pencil.
    add(
        "S17",
        Rhs("zero"),
        [
            (K1SQ, 3),
            (K2, 1),
            (LD0, -2),
            (LD1, 1),
            (D0SQ, -44),
            (D1SQ, -1),
            (dd(0, g - 1), 12),
            (dd(0, 0), -12),
            (th(1), 1),
        ],
    )

    # S18: central elliptic curve of a two-tailed chain moving in a pencil.
    for i in range(4, (g + 1) // 2 + 1):
        add(
            f"S18[i={i}]",
            Rhs("zero"),
            [
                (K1SQ, 3),
                (K2, 1),
                (om(i), -1),
                (om(g - i + 1), -1),
                (D1SQ, -1),
                (dd(i - 1, g - i), 1),
                (la(i), -1),
                (la(g - i + 1), -1),
                (LD1, 1),
                (dd(0, i - 1), -12),
                (dd(0, g - i), -12),
                (dd(0, g - 1), 12),
                (th(i - 1), 12),
            ],
        )
    add(
        "S18[i=3]",
        Rhs("zero"),
        [
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
    )
    add(
        "S18[i=2]",
        Rhs("zero"),
        [
            (K1SQ, 3),
            (K2, 1),
            (om(2), -1),
            (dd(1, g - 2), 1),
            (LD2, -1),
            (dd(0, 1), -12),
            (dd(0, g - 2), -12),
            (dd(0, g - 1), 12),
            (th(1), 12),
        ],
    )

    expected = basis_dimension(g) - (1 if g == 5 else 0)
    if len(rows) != expected:
        raise RuntimeError(f"internal error: built {len(rows)} rows at g={g}, expected {expected}")
    return RelationSystem(g, rows)


_S01 = SchubertIndex(0, 1)

# kind -> (g, i, j) -> (symbolic count, divisor, the count at degree k); the
# right-hand side is the count over the divisor.
_RHS_KINDS = {
    "zero": lambda g, i, j: ("0", 1, lambda k: 0),
    "T": lambda g, i, j: (f"T({i})", (2 * i - 2) * (2 * (g - i) - 2), lambda k: sum_T(i, g, k)),
    "D": lambda g, i, j: (f"D({i},{j})", (2 * i - 2) * (2 * j - 2), lambda k: sum_D(i, j, g, k)),
    "n_over": lambda g, i, j: (f"n({g - 2},(0,1))", g - 3, lambda k: count_n(g - 2, k, _S01)),
    "D6": lambda g, i, j: (f"D(2,{i})", 6 * (i - 1), lambda k: sum_D(2, i, g, k)),
    "4N": lambda g, i, j: (
        f"4*N({g - 4},(0,1),(0,1))",
        1,
        lambda k: 4 * castelnuovo_N(g - 4, k, _S01, _S01),
    ),
    "2ell": lambda g, i, j: (f"2*ell({g - 2})", 1, lambda k: 2 * count_ell(g - 2, k)),
    "S16": lambda g, i, j: (f"S16({i})", 2 * i - 2, lambda k: sum_S16(i, g, k)),
    "S16sp": lambda g, i, j: (f"m({g - 2},(0,1))", 2 * g - 6, lambda k: count_m(g - 2, k, _S01)),
}


def _rhs_parts(rel: Relation):
    r = rel.rhs
    if r.kind not in _RHS_KINDS:
        raise ValueError(f"unknown rhs kind {r.kind!r}")
    return _RHS_KINDS[r.kind](rel.g, r.i, r.j)


def evaluate_rhs(rel: Relation, k: int) -> Fraction:
    """Exact right-hand side of a relation for the degree-k problem.

    Zero descriptors evaluate for any genus; the nonzero ones require
    g = 2k."""
    _, divisor, count = _rhs_parts(rel)
    if rel.rhs.kind != "zero" and rel.g != 2 * k:
        raise ValueError(f"rhs of {rel.source} needs g = 2k, got g={rel.g}, k={k}")
    return Fraction(count(k), divisor)


def describe_rhs(rel: Relation) -> str:
    """Symbolic form of the right-hand side, for exports without a fixed k."""
    text, divisor, _ = _rhs_parts(rel)
    return text if divisor == 1 else f"{text}/{divisor}"


def system_matrix(system: RelationSystem) -> RationalMatrix:
    """Rows in system order, columns in the frozen basis order."""
    index = basis_index(system.g)
    return RationalMatrix.from_sparse(
        [{index[lab]: v for lab, v in rel.coefficients.items()} for rel in system.rows],
        len(index),
    )


def build_matrix(g: int) -> RationalMatrix:
    return system_matrix(build_relations(g))


def build_rhs_vector(system: RelationSystem, k: int) -> list[Fraction]:
    return [evaluate_rhs(rel, k) for rel in system.rows]


def solve_class(k: int) -> ClassExpression:
    """The degree-k class at genus 2k: the exact solution of Q_g x = b_k.

    P = Q_g T_g is lower-triangular with a nonzero diagonal, so forward
    substitution solves P y = b_k and x = T_g y.  The answer is substituted
    back into every equation of Q_g x = b_k before it is returned; a failure
    of either the structure or the residual is an internal error.  The rows,
    Q_g, T_g and P come from the one-genus memo shared with the checks.
    """
    if k < 3:
        raise ValueError(
            f"the class is solved for k >= 3 (Q_g is square for g = 2k >= 6), got k={k}"
        )
    genus = _genus(2 * k)
    b = build_rhs_vector(genus.system, k)
    try:
        y = solve_lower_triangular(genus.p, b)
    except ValueError as exc:
        raise RuntimeError(f"internal error: Q_g*T_g at g={2 * k}: {exc}") from exc
    x = genus.t.matvec(y)
    if genus.q.matvec(x) != b:
        raise RuntimeError(f"internal error: the solution at k={k} has a nonzero residual")
    return ClassExpression.from_vector(2 * k, x)


def _t_columns(g: int):
    """(tag, coefficient dict) pairs for the columns of T_g, in group order."""
    fl = g // 2
    for i in range(2, fl + 1):
        yield f"T1[i={i}]", {om(i): 1}
    for i in range(2, g - 2):
        for j in range(i, g - 2):
            if i + j > g - 1:
                break
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
    yield "T10", {LD1: 60, D1SQ: 12, dd(0, g - 1): -3, dd(0, 1): 8, dd(0, 0): 2}
    yield "T11", {LD1: 12, LD0: 1, dd(0, g - 1): -1}
    yield "T12", {dd(0, g - 2): 1, dd(1, g - 2): 2}
    yield "T13", {LD1: 12, LD0: 6, dd(0, g - 1): -1, dd(0, 1): -1, dd(0, 0): -1}
    t14: dict[ClassLabel, int] = {K1SQ: 6, LD0: 72, LD1: 144, LD2: 144}
    if g % 2 == 0:
        # the self-paired middle class; absent for odd g, where every pair
        # {s, g-s} is already covered by the sum below
        t14[om(fl)] = 6
    for s in range(2, (g + 1) // 2):  # s < g/2
        t14[om(s)] = t14.get(om(s), 0) + 12
    for s in range(3, g - 2):
        t14[la(s)] = 144
    for lab in enumerate_basis(g):
        if lab.kind == "d":
            t14[lab] = -12
    t14[dd(0, g - 1)] = -11
    yield "T14", t14
    yield "T15", {K2: 1}
    for i in range(fl, g - 2):
        yield f"T16[i={i}]", {om(i + 1): 1, om(g - i - 1): -1}
    t16: dict[ClassLabel, int] = {
        D1SQ: 12 * (g - 1),
        dd(1, 1): -24 * (g - 1),
        dd(0, g - 1): 2 * (g - 1),
        D0SQ: 3,
        dd(0, 0): -6,
    }
    for s in range(2, fl + 1):
        w = 6 * (g - 2 * s)  # = 12 (g/2 - s)
        if w:
            t16[om(g - s)] = t16.get(om(g - s), 0) + (g - 1) * w
            t16[om(s)] = t16.get(om(s), 0) - (g - 1) * w
    yield "T16[sum]", {lab: v for lab, v in t16.items() if v != 0}
    t17: dict[ClassLabel, int] = {
        K2: 6 * g,
        D1SQ: 12 - 6 * g,
        dd(1, 1): 12 * (g - 2),
        D0SQ: -3,
        dd(0, g - 1): 2 - g,
        dd(0, 0): 6,
    }
    for s in range(2, fl + 1):
        w = 6 * (g - 2 * s)
        if w:
            t17[om(g - s)] = t17.get(om(g - s), 0) + w
            t17[om(s)] = t17.get(om(s), 0) - w
    yield "T17", {lab: v for lab, v in t17.items() if v != 0}
    for i in range(4, (g + 1) // 2 + 1):
        yield f"T18[i={i}]", {th(i - 1): 1}
    yield "T18[th2]", {th(2): 1}
    t18: dict[ClassLabel, int] = {
        K2: -6 * g,
        D1SQ: 6 * g - 12,
        dd(1, 1): 12 * (2 - g),
        D0SQ: 3,
        dd(0, g - 1): g - 2,
        dd(0, 0): -6,
        th(1): 72,
    }
    for s in range(2, fl + 1):
        w = 6 * (g - 2 * s)
        if w:
            t18[om(s)] = t18.get(om(s), 0) + w
            t18[om(g - s)] = t18.get(om(g - s), 0) - w
    yield "T18[final]", {lab: v for lab, v in t18.items() if v != 0}


def t_column_tags(g: int) -> list[str]:
    return [tag for tag, _ in _checked_t_columns(g)]


def _checked_t_columns(g: int) -> list[tuple[str, dict[ClassLabel, int]]]:
    if g < 6:
        raise ValueError(f"T_g is defined for g >= 6, got g={g}")
    cols = list(_t_columns(g))
    n = basis_dimension(g)
    if len(cols) != n:
        raise RuntimeError(f"internal error: built {len(cols)} T-columns at g={g}, expected {n}")
    return cols


def build_T(g: int) -> RationalMatrix:
    """The triangularizing column matrix: rows indexed by the basis, one
    column per group entry, built to pair with the rows of Q_g."""
    cols = _checked_t_columns(g)
    index = basis_index(g)
    rows: list[dict[int, int]] = [{} for _ in index]
    for c, (_, coeffs) in enumerate(cols):
        for lab, v in coeffs.items():
            rows[index[lab]][c] = v
    return RationalMatrix.from_sparse(rows, len(cols))


@dataclass
class TriangularityReport:
    """Outcome of the Q_g * T_g product check.  ``ok`` is the structure the
    production solve (``solve_class``) relies on and the certificate that
    det Q_g != 0."""

    order: int
    lower_triangular: bool
    diagonal_nonzero: bool
    violations: list[tuple[int, int, int | Fraction]]
    zero_diagonal: list[int]

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


def _rhs_text(rel: Relation, k: int | None) -> str:
    return str(evaluate_rhs(rel, k)) if k is not None else describe_rhs(rel)


def _in_basis_order(coeffs: dict[ClassLabel, int], g: int) -> dict[str, str]:
    """Nonzero coefficients as strings, keyed in the frozen basis order."""
    index = basis_index(g)
    return {str(lab): str(v) for lab, v in sorted(coeffs.items(), key=lambda kv: index[kv[0]])}


def system_to_csv(system: RelationSystem, k: int | None = None) -> str:
    labels = system.labels
    index = basis_index(system.g)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", *map(str, labels), "rhs"])
    for rel in system.rows:
        cells = ["0"] * len(labels)
        for lab, v in rel.coefficients.items():
            cells[index[lab]] = str(v)
        writer.writerow([rel.source, *cells, _rhs_text(rel, k)])
    return buf.getvalue()


def system_to_json(system: RelationSystem, k: int | None = None) -> str:
    data = {
        "g": system.g,
        "labels": [str(lab) for lab in system.labels],
        "rows": [
            {
                "source": rel.source,
                "coeffs": _in_basis_order(rel.coefficients, system.g),
                "rhs": _rhs_text(rel, k),
            }
            for rel in system.rows
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def t_matrix_to_csv(g: int) -> str:
    t = build_T(g)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *t_column_tags(g)])
    for r, lab in enumerate(enumerate_basis(g)):
        writer.writerow([str(lab), *map(str, t.row(r))])
    return buf.getvalue()


def t_matrix_to_json(g: int) -> str:
    data = {
        "g": g,
        "labels": [str(lab) for lab in enumerate_basis(g)],
        "columns": [
            {"tag": tag, "coeffs": _in_basis_order(coeffs, g)}
            for tag, coeffs in _checked_t_columns(g)
        ],
    }
    return json.dumps(data, indent=2) + "\n"
