"""Independent exact routes that the tests hold ``bn2`` against.

The module name does not match ``test_*.py``, so pytest does not collect
it; test modules import it by name.  Nothing in ``bn2`` calls these routes.
The runtime solves by forward substitution on ``Q_g * T_g`` and certifies
``det Q_g != 0`` from that product's diagonal.  Here the same answers come
from routes that share none of that code:

- the dense constructors and copies ``dense``, ``identity``, ``zeros``,
  ``dense_row`` and ``dense_rows``, and the shape test ``is_square`` of the
  dense eliminations.  The runtime builds every matrix from sparse rows
  (``RationalMatrix.from_sparse``).
- dense elimination: ``rank``, ``solve_exact``, ``det``, ``det_is_nonzero``
  and ``nullspace``.  Elimination is either fraction-free (Bareiss), on
  integer rows cleared of their denominators (``_cleared``,
  ``_scaled_int_rows``) with the one kernel ``_bareiss_echelon``, or plain
  Gaussian elimination on Fraction entries (``gauss_rank``).  Both choose
  pivots by the same rule, by bit length.  The runtime takes the genus-4
  and genus-5 ranks with ``verify._rank``, its own elimination, which
  pivots on the first nonzero entry.
- the raw reciprocal-factorial determinant ``castelnuovo_general``.  The
  runtime's ``castelnuovo_N`` is the reduced two-term formula for the same
  number.
- the pairwise ``sum_D_pairs``, one reduced two-term numerator per index
  pair, and the vector route ``sum_D_vectors``, one dot product of a
  genus-i and a genus-j vector by Chu-Vandermonde.  The runtime's ``sum_D``
  joins the pairs into four integer products per pair at g = 2k, and into
  one sum over the full range of the first index off g = 2k.  Both oracles
  find the counted indices by scanning every a0 < k (``counted_by_scan``)
  and take each count from its definitions (``n_from_rho``: adjusted
  rho = -1, and rho(g,1,d') >= 0 after the base point), not from the
  runtime's ``count_n``; the runtime walks one interval in integers
  (``_counted``).
- the dense CSV exports ``system_to_csv_dense`` and ``t_matrix_to_csv_dense``:
  every cell of ``Q_g`` and ``T_g`` written by ``csv.writer``.  The runtime
  writes each line from the row's nonzeros with its own field quoting.
- the JSON exports ``system_to_json_dumps`` and ``t_matrix_to_json_dumps``,
  written by ``json.dumps(indent=2)``.  The runtime writes the fixed-shape
  text itself.
- the per-label closed formula ``closed_form_by_label``: one Fraction per
  generator, its bracket coefficient chosen by the label's kind.  The
  runtime evaluates 5 times the brackets in integers, family by family over
  the columns, and holds one scale ``scale_factor(k) / 5``.
- the label-keyed columns of ``T_g``, ``t_columns_by_label`` and
  ``build_T_by_label``.  The runtime keys each column by basis position.
- ``sum_S16_castelnuovo``, two binomials per counted term through the
  reduced Castelnuovo numerator.  The runtime's ``sum_S16`` walks one
  binomial from term to term.

- the label route to a column, ``basis_index`` after ``canonicalize``: one
  dict from label to position per genus, and the relation templates' raw
  labels resolved to generators.  The runtime computes each column from the
  indices (``basis.columns``).

- the full-P solve ``solve_full_p``: P = Q_g * T_g built whole by
  ``RationalMatrix.matmul`` and every row of it substituted, with no S2
  certificate.  The runtime's ``triangular._solve`` certifies the S2 rows
  of P as unit rows, takes their entries from b_k, and substitutes only
  the other rows.
- the per-row right-hand side ``rhs_by_row``: every row of the
  ``RelationSystem.rows`` view, S2 rows included, evaluated as one
  ``Fraction`` of its count over its divisor, 4N from the raw determinant.
  The runtime's ``build_rhs_vector`` divides each count exactly, in
  integers, and evaluates the S2 block in one loop over the pairs, with no
  ``Relation``.

Views of runtime code that serve only the tests live here too:
``system_matrix`` and ``build_matrix``, the rows of ``Q_g`` as a
``RationalMatrix`` for the elimination oracles above;
``solve_lower_triangular``, ``forward_substitute`` on a ``RationalMatrix``
with each row and then b cleared of their denominators, read as
Fractions; and
``t_column_tags``, the tags of the ``T_g`` columns.  The runtime keeps
``Q_g`` and ``T_g`` as integer rows and builds no matrix object from them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

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
    dd,
    enumerate_basis,
    la,
    om,
    th,
)
from bn2.classes import ClassExpression, is_valid
from bn2.enumerative import _castelnuovo_num, _counted, _ram_sequence, _sum_D_table, rho
from bn2.relations import _RHS, build_relations, build_rhs_vector, describe_rhs
from bn2.solver import DimensionMismatchError, RationalMatrix
from bn2.triangular import _t_columns, forward_substitute
from bn2.verify import scale_factor

F = Fraction


@lru_cache(maxsize=None)
def basis_index(g: int) -> dict[ClassLabel, int]:
    return {lab: pos for pos, lab in enumerate(enumerate_basis(g))}


def canonicalize(raw: ClassLabel, g: int) -> ClassLabel:
    """Resolve a raw relation-template label to a canonical generator.

    Sorts boundary pairs ascending, and identifies la(g-2), which is never a
    generator, with ld2 at every g: the S6 and S18 templates write it at
    i = g-2 and i = 3.  At g = 5 only, la(2) = la(g-3) is identified with ld2
    too; the genus-5 rank diagnostic reports this convention.  Coincident
    labels are accumulated additively by the relation builder, not merged here.
    """
    lab = raw
    if lab.kind == "d" and lab.i > lab.j:
        lab = dd(lab.j, lab.i)
    elif lab.kind == "la" and (lab.i == g - 2 or (g == 5 and lab.i == 2)):
        lab = LD2
    if not is_valid(lab, g):
        raise ValueError(f"label {lab} is invalid for genus {g}")
    return lab


def dense(rows) -> RationalMatrix:
    """Matrix from dense rows of rationals.  Its width is that of the rows,
    so a matrix with no rows has 0 columns; ``RationalMatrix.from_sparse([],
    n)`` builds an n-column matrix with no rows."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise DimensionMismatchError("rows have unequal lengths")
    return RationalMatrix.from_sparse([dict(enumerate(r)) for r in rows], width)


def identity(n: int) -> RationalMatrix:
    return RationalMatrix.from_sparse([{i: 1} for i in range(n)], n)


def system_matrix(system) -> RationalMatrix:
    """Rows in system order, columns in the frozen basis order."""
    rows = [rel.coefficients for rel in system.rows]
    return RationalMatrix.from_sparse(rows, basis_dimension(system.g))


def build_matrix(g: int) -> RationalMatrix:
    return system_matrix(build_relations(g))


def zeros(nrows: int, ncols: int) -> RationalMatrix:
    return RationalMatrix.from_sparse([{} for _ in range(nrows)], ncols)


def is_square(matrix: RationalMatrix) -> bool:
    return matrix.nrows == matrix.ncols


def dense_row(matrix: RationalMatrix, i: int) -> tuple[Fraction, ...]:
    """Row i with every entry, zeros included, as a Fraction."""
    return tuple(Fraction(matrix.entry(i, j)) for j in range(matrix.ncols))


def dense_rows(matrix: RationalMatrix) -> list[list[Fraction]]:
    """A mutable dense copy of the entries."""
    return [list(dense_row(matrix, i)) for i in range(matrix.nrows)]


class SingularMatrixError(ValueError):
    """The matrix is singular; ``rank`` carries the rank attained."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


def _gauss_echelon(rows: list[list[Fraction]]):
    """Rational row echelon form with the same pivot rule as Bareiss.
    Returns (rows, pivots) where pivots is a list of (row, col)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    pr = 0
    for c in range(nc):
        best, best_bits = -1, -1
        for r in range(pr, nr):
            if m[r][c] != 0:
                bits = abs(m[r][c].numerator).bit_length()
                if bits > best_bits:
                    best, best_bits = r, bits
        if best < 0:
            continue
        if best != pr:
            m[pr], m[best] = m[best], m[pr]
        p = m[pr][c]
        prow = m[pr]
        for r in range(pr + 1, nr):
            f = m[r][c]
            if f != 0:
                ratio = f / p
                row = m[r]
                for cc in range(c, nc):
                    row[cc] -= ratio * prow[cc]
        pivots.append((pr, c))
        pr += 1
        if pr == nr:
            break
    return m, pivots


def _cleared(rows: list[dict[int, int | Fraction]]):
    """Each row times the lcm of its denominators, as integer nonzeros, and
    those lcms, the row scales."""
    scales = [lcm(*(x.denominator for x in row.values())) for row in rows]
    pairs = zip(rows, scales)
    cleared = [{j: x.numerator * (s // x.denominator) for j, x in r.items()} for r, s in pairs]
    return cleared, scales


def _scaled_int_rows(rows: list[dict[int, int | Fraction]], width: int):
    """Clear denominators row by row from the nonzeros; returns dense integer
    rows of the given width and the row scales."""
    cleared, scales = _cleared(rows)
    return [[row.get(j, 0) for j in range(width)] for row in cleared], scales


def _bareiss_echelon(int_rows: list[list[int]]):
    """Fraction-free row echelon form.  Pivots are chosen inside each column
    by largest bit length.  Returns (rows, pivots, sign) where pivots is a
    list of (row, col) and sign that of the row permutation."""
    m = [r[:] for r in int_rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    prev = 1
    pr = 0
    sign = 1
    for c in range(nc):
        best, best_bits = -1, -1
        for r in range(pr, nr):
            v = m[r][c]
            if v != 0:
                bits = abs(v).bit_length()
                if bits > best_bits:
                    best, best_bits = r, bits
        if best < 0:
            continue
        if best != pr:
            m[pr], m[best] = m[best], m[pr]
            sign = -sign
        p = m[pr][c]
        prow = m[pr]
        for r in range(pr + 1, nr):
            row = m[r]
            f = row[c]
            for cc in range(c + 1, nc):
                row[cc] = (p * row[cc] - f * prow[cc]) // prev
            row[c] = 0
        prev = p
        pivots.append((pr, c))
        pr += 1
        if pr == nr:
            break
    return m, pivots, sign


def rank(matrix: RationalMatrix) -> int:
    """Exact rank by fraction-free elimination on the cleared rows."""
    int_rows, _ = _scaled_int_rows(matrix._rows, matrix.ncols)
    return len(_bareiss_echelon(int_rows)[1])


def gauss_rank(matrix: RationalMatrix) -> int:
    """Exact rank by Gaussian elimination on Fractions."""
    return len(_gauss_echelon(dense_rows(matrix))[1])


def det(matrix: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not is_square(matrix):
        raise DimensionMismatchError(f"det needs a square matrix, got {matrix!r}")
    n = matrix.nrows
    if n == 0:
        return Fraction(1)
    int_rows, scales = _scaled_int_rows(matrix._rows, n)
    rows, pivots, sign = _bareiss_echelon(int_rows)
    if len(pivots) < n:
        return Fraction(0)
    pr, pc = pivots[-1]
    value = Fraction(sign * rows[pr][pc])
    for s in scales:
        value /= s
    return value


def det_is_nonzero(matrix: RationalMatrix) -> bool:
    return det(matrix) != 0


def _back_substitute(rows, pivots, n: int) -> list[Fraction]:
    """x with rows[:n] x = rows[n] for an echelon form of [A | b] whose n
    pivots all lie in the coefficient columns."""
    x: list[Fraction] = [Fraction(0)] * n
    for pr, pc in reversed(pivots):
        row = rows[pr]
        acc = Fraction(row[n])
        for c in range(pc + 1, n):
            if row[c] != 0 and x[c] != 0:
                acc -= Fraction(row[c]) * x[c]
        x[pc] = acc / row[pc]
    return x


def solve_exact(matrix: RationalMatrix, b, method: str = "bareiss") -> list[Fraction]:
    """Unique exact solution of a square nonsingular system by elimination on
    the augmented matrix [A | b].

    Only pivots in the coefficient columns count toward the rank; a pivot in
    the right-hand-side column means A is singular.  The result is
    substituted back into every original equation before being returned.
    Raises SingularMatrixError (with the rank attained) or
    DimensionMismatchError.
    """
    if not is_square(matrix):
        raise DimensionMismatchError(
            f"solve_exact needs a square matrix, got {matrix.nrows}x{matrix.ncols}"
        )
    n = matrix.nrows
    if len(b) != n:
        raise DimensionMismatchError(f"rhs length {len(b)} vs order {n}")
    rhs = [Fraction(v) for v in b]
    if method == "bareiss":
        aug = [{**row, n: v} for row, v in zip(matrix._rows, rhs)]
        rows, pivots, _ = _bareiss_echelon(_scaled_int_rows(aug, n + 1)[0])
    elif method == "gauss":
        rows, pivots = _gauss_echelon([row + [v] for row, v in zip(dense_rows(matrix), rhs)])
    else:
        raise ValueError(f"unknown elimination method {method!r}")
    pivots = [(pr, pc) for pr, pc in pivots if pc < n]
    if len(pivots) < n:
        raise SingularMatrixError(
            f"matrix of order {n} is singular (rank {len(pivots)})", rank=len(pivots)
        )
    x = _back_substitute(rows, pivots, n)
    if matrix.matvec(x) != rhs:
        raise RuntimeError("internal error: solution has a nonzero residual")
    return x


def solve_lower_triangular(p: RationalMatrix, b) -> list[Fraction]:
    """Exact solution of p y = b for a lower-triangular p with a nonzero
    diagonal: ``forward_substitute`` on every row of p, each row and its
    entry of b multiplied by the lcm of the row's denominators, and that b
    by the lcm m of its own denominators, so that it is integers, read as
    Fractions over m.  An entry above the diagonal is named as p holds it."""
    if not is_square(p):
        raise DimensionMismatchError(
            f"forward_substitute needs a square matrix, got {p.nrows} rows "
            f"and {p.ncols} columns"
        )
    if len(b) != p.nrows:
        raise DimensionMismatchError(f"rhs length {len(b)} vs order {p.nrows}")
    for i, row in enumerate(p._rows):
        above = [(j, a) for j, a in row.items() if j > i]
        if above:
            j, a = above[0]
            raise ValueError(f"row {i} has the nonzero {a} above the diagonal, in column {j}")
    rows, scales = _cleared(p._rows)
    scaled = [Fraction(v) * s for v, s in zip(b, scales)]
    m = lcm(*(v.denominator for v in scaled))
    y, d = forward_substitute(dict(enumerate(rows)), [v.numerator * (m // v.denominator) for v in scaled])
    return [Fraction(v, d * m) for v in y]


def solve_full_p(k: int) -> tuple[list[int], int]:
    """(X, D) with X / D the solution of Q_g x = b_k at g = 2k, as the
    runtime solved before it certified the S2 block: P = Q_g * T_g built
    whole by ``RationalMatrix.matmul``, forward substitution over every row
    of P, X = T_g Y, and the residual Q_g X = D b_k over every row."""
    g = 2 * k
    system = build_relations(g)
    q, t = system_matrix(system), build_T_by_label(g)
    b = build_rhs_vector(system, k)
    y, d = forward_substitute(dict(enumerate(q.matmul(t)._rows)), b)
    x = t.int_matvec(y)
    if q.int_matvec(x) != [d * v for v in b]:
        raise RuntimeError(f"the full-P solution at k={k} has a nonzero residual")
    return x, d


def rhs_by_row(system, k: int) -> list[Fraction]:
    """b_k as each row of the ``rows`` view evaluates: its count over its
    divisor as one Fraction, read from the table ``relations._RHS``, with no
    check that a division is exact.  The 4N count, itself a quotient in the
    runtime, is 4 times the raw determinant ``castelnuovo_general``.  The
    runtime's ``build_rhs_vector`` divides exactly and evaluates the S2 rows
    in one loop over the pairs, without a ``Relation``."""
    d_sums = _sum_D_table(k)
    out = []
    for rel in system.rows:
        (kind, i, j), g = rel.rhs, rel.g
        count, divisor, _ = _RHS[kind]
        if kind == "4N":
            num = 4 * castelnuovo_general(g - 4, 1, k, (0, 1), (0, 1))
        else:
            num = count(g, i, j, k, d_sums, rel.source)
        out.append(Fraction(num, divisor(g, i, j)))
    return out


def nullspace(matrix: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column, each with its
    first nonzero coordinate normalized to 1."""
    rows, pivots = _gauss_echelon(dense_rows(matrix))
    nc = matrix.ncols
    pivot_cols = {pc for _, pc in pivots}
    basis: list[list[Fraction]] = []
    for fc in range(nc):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for pr, pc in reversed(pivots):
            if pc > fc:
                continue
            row = rows[pr]
            acc = Fraction(0)
            for c in range(pc + 1, nc):
                if row[c] != 0 and v[c] != 0:
                    acc -= row[c] * v[c]
            v[pc] = acc / row[pc]
        first = next((c for c in range(nc) if v[c] != 0), None)
        if first is not None and v[first] != 1:
            scale = v[first]
            v = [x / scale for x in v]
        basis.append(v)
    return basis


def inv_factorial_or_zero(x: int) -> Fraction:
    """1/x! for x >= 0, and exactly 0 for negative x.

    The zero convention for negative arguments is what makes degenerate terms
    of the reciprocal-factorial determinants drop out.
    """
    if x < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(x))


def _det_small(m: list[list[Fraction]]) -> Fraction:
    """Cofactor-expansion determinant; the matrices here are (r+1) x (r+1)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det_small(minor)
        total += term if j % 2 == 0 else -term
    return total


def castelnuovo_general(g: int, r: int, d: int, alpha, beta) -> Fraction:
    """g! * det( 1/[alpha_i + i + beta_{r-j} + r - j + g - d]! ), 0 <= i,j <= r.

    Reciprocal factorials of negative arguments are 0.  In the rho = 0 regime
    this is the number of series of type (r, d) with ramification alpha, beta
    at two general points; the value may vanish, and away from that regime it
    is an exact rational that need not be integral.
    """
    a = _ram_sequence(alpha, r, d)
    b = _ram_sequence(beta, r, d)
    n = r + 1
    mat = [
        [inv_factorial_or_zero(a[i] + i + b[r - j] + r - j + g - d) for j in range(n)]
        for i in range(n)
    ]
    return factorial(g) * _det_small(mat)


def _weight_pairs(k: int, w: int) -> list[tuple[int, int]]:
    """All (a0, a1) with 0 <= a0 <= a1 <= k-1 and a0 + a1 = w."""
    return [(a0, w - a0) for a0 in range(k) if a0 <= w - a0 <= k - 1]


def n_from_rho(g: int, d: int, a0: int, a1: int) -> int:
    """n_{g,d,alpha} straight from the definitions: adjusted rho = -1 and
    rho(g,1,d') >= 0 after removing the a0-fold base point, else 0."""
    dp = d - a0
    if rho(g, 1, d, [(a0, a1)]) != -1 or rho(g, 1, dp) < 0:
        return 0
    lead = 2 * dp - g - 1
    return lead * (lead + 1) * (lead + 2) * math.comb(g, dp)


def counted_by_scan(i: int, k: int, w: int) -> list[tuple[int, int, int]]:
    """(a0, a1, n_{i,k,(a0,a1)}) where n counts, from the scan over every
    a0 < k of weight w; the runtime's ``_counted`` walks one interval."""
    return [(a0, a1, n) for a0, a1 in _weight_pairs(k, w) if (n := n_from_rho(i, k, a0, a1)) > 0]


def sum_D_pairs(i: int, j: int, g: int, k: int) -> int:
    """``sum_D`` by its definition: for every counted pair (alpha, beta) the
    numerator of N_{g-i-j,k,comp(alpha),comp(beta)} over the common s!, with
    the same value, range check and ArithmeticError message."""
    if not (2 <= i <= j <= g - 3 and i + j <= g - 1):
        raise ValueError(
            f"sum_D needs 2 <= i <= j <= g-3 and i+j <= g-1, got i={i}, j={j}, g={g}"
        )
    h = g - i - j
    betas = []
    for b0, b1 in _weight_pairs(k, 2 * k - j - 1):
        nb = n_from_rho(j, k, b0, b1)
        if nb > 0:
            betas.append((nb, b1 - b0, k - 1 - b1))
    total = 0
    for a0, a1 in _weight_pairs(k, 2 * k - i - 1):
        na = n_from_rho(i, k, a0, a1)
        if na <= 0:
            continue
        gd_a = h - 1 - a1
        for nb, b_top, b_base in betas:
            total += na * nb * _castelnuovo_num(gd_a + b_base, a1 - a0, b_top)[0]
    s = 2 * (g - k) - i - j
    value = Fraction(factorial(h) * total, factorial(s)) if total else Fraction(0)
    if value.denominator != 1:
        raise ArithmeticError(
            f"sum_D({i},{j},{g},{k}) is not integral ({value}); it only counts points when g = 2k"
        )
    return value.numerator


def _genus_vector(i: int, g: int, k: int, alpha: bool) -> list[int]:
    """F_i if alpha, else G_i (see sum_D_vectors), at k-1 <= m < g, index
    m-k+1, with C(s_i, X-m) = C(s_i, m-2k+1+a0) and the generalized C(q, r)
    for q < 0."""
    q = g - k - i
    row = [
        math.comb(q, r) if q >= 0 else (-1) ** r * math.comb(r - q - 1, r) for r in range(g - k + 1)
    ]
    vec = [0] * (g - k + 1)
    for a0, a1, n in counted_by_scan(i, k, 2 * k - i - 1):
        terms = ((n, 2 * k - 1 - a0), (-n, 2 * k - 2 - a1)) if alpha else ((n, i + a1),)
        for weight, start in terms:  # start >= k-1
            for m, c in zip(range(start - k + 1, g - k + 1), row):
                vec[m] += weight * c
    return vec


def sum_D_vectors(i: int, j: int, g: int, k: int) -> int:
    """``sum_D`` as one dot product, with the same value, range check and
    ArithmeticError message.

    comp(a0, a1) = (k-1-a1, k-1-a0) gives every N the same s = s_i + s_j,
    s_i = g-k-i, s_j = g-k-j, and splits x and g - d' into X = g-i+k-1-a0 and
    X' = X-1-a1+a0 plus Y = -j-b1.  By Chu-Vandermonde C(s, X+Y) = sum_m
    C(s_i, X-m) C(s_j, Y+m), so the sum is (g-i-j)! <F_i, G_j> / s! with
    F_i[m] = sum n_alpha (C(s_i, X-m) - C(s_i, X'-m)), G_j[m] = sum n_beta
    C(s_j, Y+m).  s < 0 makes every binomial vanish, and s >= 0 gives
    s_i >= 0 as i <= j, so the sum over m is finite."""
    if not (2 <= i <= j <= g - 3 and i + j <= g - 1):
        raise ValueError(
            f"sum_D needs 2 <= i <= j <= g-3 and i+j <= g-1, got i={i}, j={j}, g={g}"
        )
    s = 2 * (g - k) - i - j
    if s < 0:
        return 0
    total = sum(a * b for a, b in zip(_genus_vector(i, g, k, True), _genus_vector(j, g, k, False)))
    value = Fraction(factorial(g - i - j) * total, factorial(s))
    if value.denominator != 1:
        raise ArithmeticError(
            f"sum_D({i},{j},{g},{k}) is not integral ({value}); it only counts points when g = 2k"
        )
    return value.numerator


def _csv_text(rows) -> str:
    """csv.writer's lines of rows, each ended by "\\n": written under the
    terminator "\\r\\n", which quotes a field holding a carriage return on every
    Python from 3.10 on, and each line's terminator then swapped."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def system_to_csv_dense(system, k: int | None = None) -> str:
    """``export.system_to_csv`` as ``csv.writer`` writes it from dense rows:
    a header, then per relation its source, every coefficient in basis order
    (zeros included) and its right-hand side, symbolic or evaluated at k."""
    labels = enumerate_basis(system.g)
    if k is None:
        rhs = [describe_rhs(rel) for rel in system.rows]
    else:
        rhs = [str(v) for v in build_rhs_vector(system, k)]
    rows = [["source", *map(str, labels), "rhs"]]
    for rel, text in zip(system.rows, rhs, strict=True):
        cells = ["0"] * len(labels)
        for c, v in rel.coefficients.items():
            cells[c] = str(v)
        rows.append([rel.source, *cells, text])
    return _csv_text(rows)


def t_column_tags(g: int) -> list[str]:
    """The tags of the columns of T_g, in column order."""
    return _t_columns(g)[0].t_tags


def t_matrix_to_csv_dense(g: int) -> str:
    """``export.t_matrix_to_csv`` as ``csv.writer`` writes it from the
    dense rows of ``build_T_by_label(g)``."""
    t = build_T_by_label(g)
    rows = [["label", *t_column_tags(g)]]
    rows += [[str(lab), *map(str, dense_row(t, r))] for r, lab in enumerate(enumerate_basis(g))]
    return _csv_text(rows)

def _bracket_coefficient(lab: ClassLabel, k: int) -> Fraction:
    """Unscaled coefficient of one generator in the degree-k closed formula."""
    g = 2 * k
    if lab == K1SQ:
        return F(3 * k * k + 3 * k + 5)
    if lab == D0SQ:
        return -F(3 * k * k + 3 * k + 5)
    if lab == K2:
        return F(-24 * k * (k + 5))
    if lab == D1SQ:
        return F(-(3 * k * (9 * k + 41) + 5))
    if lab == LD0:
        return F(-24 * (3 * (k - 1) * k - 5))
    if lab == LD1:
        return F(24 * (-33 * k * k + 39 * k + 65))
    if lab == LD2:
        return F(24 * (3 * (37 - 23 * k) * k + 185))
    if lab.kind == "om":
        i = lab.i
        return F(
            -180 * i**4
            + 120 * i**3 * (6 * k + 1)
            - 36 * i * i * (20 * k * k + 24 * k - 5)
            + 24 * i * (52 * k * k - 16 * k - 5)
            + 27 * k * k
            + 123 * k
            + 5
        )
    if lab.kind == "la":
        i = lab.i
        return F(
            24
            * (
                6 * i * i * (3 * k + 5)
                - 6 * i * (6 * k * k + 23 * k + 5)
                + 159 * k * k
                + 63 * k
                + 5
            )
        )
    if lab.kind == "th":
        i = lab.i
        return F(
            -12
            * i
            * (
                5 * i**3
                + i * i * (10 - 20 * k)
                + i * (20 * k * k - 8 * k - 5)
                - 24 * k * k
                + 32 * k
                - 10
            )
        )
    if lab.kind == "d":
        i, j = lab.i, lab.j
        if (i, j) == (0, 0):
            return F(24 * k * (k - 1))
        if i == 0 and j == g - 2:
            return F(2, 5) * (3 * k * (187 * k - 389) - 745)
        if i == 0 and j == g - 1:
            return F(2 * (k * (31 * k - 49) - 65))
        if i == 0:  # 1 <= j <= 2k-3
            return F(2 * (-3 * (12 * j * j + 36 * j + 1) * k + (72 * j - 3) * k * k - 5))
        if (i, j) == (1, 1):
            return F(48 * (19 * k * k - 49 * k + 30))
        if i == 1 and j == g - 2:
            return F(2, 5) * (3 * k * (859 * k - 2453) + 2135)
        # i >= 1 and 2 <= j <= 2k-3
        return F(
            2
            * (
                3 * k * k * (144 * i * j - 1)
                - 3 * k * (72 * i * j * (i + j + 4) + 1)
                + 180 * i * (i + 1) * j * (j + 1)
                - 5
            )
        )
    raise ValueError(f"no closed-form coefficient for label {lab}")


def closed_form_by_label(k: int) -> ClassExpression:
    """``verify.closed_form_class`` label by label in Fractions: each
    generator's bracket coefficient, found by its kind, times
    ``scale_factor(k)``.  The runtime evaluates 5 times the brackets as
    integers over the columns of each family."""
    if k < 3:
        raise ValueError(f"closed formula holds for k >= 3, got k={k}")
    c = scale_factor(k)
    g = 2 * k
    return ClassExpression(g, {lab: c * _bracket_coefficient(lab, k) for lab in enumerate_basis(g)})


def t_columns_by_label(g: int):
    """(tag, {label: coefficient}) pairs for the columns of T_g, in group
    order: the label-keyed templates of the columns that
    ``relations.build_relations`` writes beside its rows by column."""
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


def build_T_by_label(g: int) -> RationalMatrix:
    """T_g as a ``RationalMatrix``, rows indexed by the basis, from the
    label-keyed columns, each label placed through ``basis_index``."""
    index = basis_index(g)
    cols = list(t_columns_by_label(g))
    rows: list[dict[int, int]] = [{} for _ in index]
    for c, (_, coeffs) in enumerate(cols):
        for lab, v in coeffs.items():
            rows[index[lab]][c] = v
    return RationalMatrix.from_sparse(rows, len(cols))


def sum_S16_castelnuovo(i: int, g: int, k: int) -> int:
    """``sum_S16`` with two binomials per counted term, through the reduced
    Castelnuovo numerator ``_castelnuovo_num``; the runtime walks one
    binomial from term to term."""
    if not g // 2 <= i <= g - 3:
        raise ValueError(f"sum_S16 needs g/2 <= i <= g-3, got i={i}, g={g}")
    h = g - i - 1
    counted = _counted(i, k, h, "sum_S16", "i")
    total = sum(n * _castelnuovo_num(h - 1 - a1, a1 - a0, 0)[0] for a0, a1, n in counted)
    return (3 * i - 1) * total


def system_to_json_dumps(system, k: int | None = None) -> str:
    """``export.system_to_json`` as ``json.dumps(indent=2)`` writes it."""
    if k is None:
        rhs = [describe_rhs(rel) for rel in system.rows]
    else:
        rhs = [str(v) for v in build_rhs_vector(system, k)]
    names = [str(lab) for lab in enumerate_basis(system.g)]
    data = {
        "g": system.g,
        "labels": names,
        "rows": [
            {
                "source": rel.source,
                "coeffs": {names[c]: str(v) for c, v in sorted(rel.coefficients.items())},
                "rhs": text,
            }
            for rel, text in zip(system.rows, rhs, strict=True)
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def t_matrix_to_json_dumps(g: int) -> str:
    """``export.t_matrix_to_json`` as ``json.dumps(indent=2)`` writes it
    from the label-keyed columns."""
    index = basis_index(g)
    data = {
        "g": g,
        "labels": [str(lab) for lab in enumerate_basis(g)],
        "columns": [
            {
                "tag": tag,
                "coeffs": {
                    str(lab): str(v) for lab, v in sorted(coeffs.items(), key=lambda kv: index[kv[0]])
                },
            }
            for tag, coeffs in t_columns_by_label(g)
        ],
    }
    return json.dumps(data, indent=2) + "\n"
