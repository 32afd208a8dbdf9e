"""Exact linear algebra over the rationals on sparse matrices.

A matrix stores each row as a mapping from column to its nonzero entry.  An
integral entry is stored as an ``int`` and any other as a ``Fraction``, so a
product of integer matrices such as ``Q_g * T_g`` runs in integer arithmetic
and a matrix-vector product clears the vector's denominators once.  Dense
copies (``row``, ``rows``) and every computed vector hand out Fractions.
No float enters any computation.

``solve_lower_triangular`` is the production solve: forward substitution
over the sparse rows of a lower-triangular matrix, which rejects any other
structure.  Two independent dense elimination strategies serve as oracles:
fraction-free (Bareiss) elimination on integer rows built straight from the
nonzeros, and plain Gaussian elimination on Fraction entries.  The test
suite uses them against each other and against the triangular solve;
``solve_exact`` additionally verifies its answer by substitution into every
equation before returning.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "RationalMatrix",
    "DimensionMismatchError",
    "SingularMatrixError",
    "solve_lower_triangular",
    "solve_exact",
    "rank",
    "det",
    "det_is_nonzero",
    "nullspace",
]

# every zero entry a matrix hands out is this one object
ZERO = Fraction(0)


def _exact(x) -> int | Fraction:
    """x as an int when it is integral, as a Fraction otherwise."""
    if type(x) is int:
        return x
    value = Fraction(x)
    return value.numerator if value.denominator == 1 else value


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """The matrix is singular; ``rank`` carries the rank attained."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class RationalMatrix:
    """Sparse rational matrix, one {column: nonzero entry} dict per row,
    immutable by convention.  An entry is an int when it is integral and a
    Fraction otherwise, whatever type it was given as; ``entry`` and
    ``nonzeros`` hand out the stored value, ``row`` and ``rows`` Fractions."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, entries):
        """Matrix from dense rows of rationals."""
        rows = [list(r) for r in entries]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("rows have unequal lengths")
        self._fill([dict(enumerate(r)) for r in rows], width)

    @classmethod
    def from_sparse(cls, rows, ncols: int) -> "RationalMatrix":
        """Matrix from one {column: rational} mapping per row; zeros are dropped."""
        matrix = cls.__new__(cls)
        matrix._fill(rows, ncols)
        return matrix

    def _fill(self, rows, ncols: int) -> None:
        self._ncols = ncols
        self._rows: list[dict[int, int | Fraction]] = []
        for row in rows:
            entries = {}
            for j, x in row.items():
                if not 0 <= j < ncols:
                    raise DimensionMismatchError(f"column {j} outside a matrix of {ncols} columns")
                value = _exact(x)
                if value:
                    entries[j] = value
            self._rows.append(entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_sparse([{i: 1} for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls.from_sparse([{} for _ in range(nrows)], ncols)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def entry(self, i: int, j: int) -> int | Fraction:
        return self._rows[i].get(j, ZERO)

    def row(self, i: int) -> tuple[Fraction, ...]:
        row = self._rows[i]
        return tuple(Fraction(row[j]) if j in row else ZERO for j in range(self._ncols))

    def rows(self) -> list[list[Fraction]]:
        """A mutable dense copy of the entries."""
        return [list(self.row(i)) for i in range(self.nrows)]

    def nonzeros(self):
        """(row, column, value) of every nonzero entry, row by row."""
        for i, row in enumerate(self._rows):
            for j, value in row.items():
                yield i, j, value

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def matvec(self, v) -> list[Fraction]:
        """The exact product with v.  v is brought to integer numerators over
        the lcm of its denominators, so each row costs integer products and
        one Fraction."""
        if len(v) != self.ncols:
            raise DimensionMismatchError(f"matvec: {self.ncols} columns vs {len(v)} entries")
        vv = [Fraction(x) for x in v]
        den = lcm(*(x.denominator for x in vv))
        nums = [x.numerator * (den // x.denominator) for x in vv]
        return [Fraction(sum(a * nums[j] for j, a in row.items()), den) for row in self._rows]

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"matmul: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )
        out = []
        for row in self._rows:
            acc: dict[int, int | Fraction] = {}
            for t, a in row.items():
                for j, b in other._rows[t].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(acc)
        return RationalMatrix.from_sparse(out, other.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"


def _scaled_int_rows(rows: list[dict[int, int | Fraction]], width: int):
    """Clear denominators row by row from the nonzeros; returns dense integer
    rows of the given width and the row scales."""
    out, scales = [], []
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        dense = [0] * width
        for j, x in row.items():
            dense[j] = x.numerator * (scale // x.denominator)
        out.append(dense)
        scales.append(scale)
    return out, scales


def _bareiss_echelon(int_rows: list[list[int]], pivot_limit: int | None = None):
    """Fraction-free row echelon form.  Pivots are chosen inside each column
    by largest bit length.  Returns (rows, pivots, sign) where pivots is a
    list of (row, col)."""
    m = [r[:] for r in int_rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    limit = nc if pivot_limit is None else pivot_limit
    pivots: list[tuple[int, int]] = []
    prev = 1
    pr = 0
    sign = 1
    for c in range(limit):
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


def _gauss_echelon(rows: list[list[Fraction]], pivot_limit: int | None = None):
    """Rational row echelon form with the same pivot rule as Bareiss."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    limit = nc if pivot_limit is None else pivot_limit
    pivots: list[tuple[int, int]] = []
    pr = 0
    for c in range(limit):
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


def rank(matrix: RationalMatrix, method: str = "bareiss") -> int:
    """Exact rank via the chosen elimination strategy."""
    if method == "bareiss":
        int_rows, _ = _scaled_int_rows(matrix._rows, matrix.ncols)
        _, pivots, _ = _bareiss_echelon(int_rows)
    elif method == "gauss":
        _, pivots = _gauss_echelon(matrix.rows())
    else:
        raise ValueError(f"unknown elimination method {method!r}")
    return len(pivots)


def det(matrix: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not matrix.is_square():
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


def _back_substitute(rows, pivots, ncols: int, rhs_col: int) -> list[Fraction]:
    x: list[Fraction] = [Fraction(0)] * rhs_col
    for pr, pc in reversed(pivots):
        row = rows[pr]
        acc = Fraction(row[rhs_col])
        for c in range(pc + 1, rhs_col):
            if row[c] != 0 and x[c] != 0:
                acc -= Fraction(row[c]) * x[c]
        x[pc] = acc / row[pc]
    return x


def solve_lower_triangular(p: RationalMatrix, b) -> list[Fraction]:
    """Exact solution of p y = b by forward substitution over the nonzeros.

    p must be square and lower-triangular with a nonzero diagonal; otherwise
    DimensionMismatchError (shape) or ValueError (structure) names the row
    and column at fault.
    """
    if not p.is_square():
        raise DimensionMismatchError(
            f"solve_lower_triangular needs a square matrix, got {p.nrows} rows "
            f"and {p.ncols} columns"
        )
    if len(b) != p.nrows:
        raise DimensionMismatchError(f"rhs length {len(b)} vs order {p.nrows}")
    y: list[Fraction] = []
    for i, row in enumerate(p._rows):
        acc = Fraction(b[i])
        for j, a in row.items():
            if j > i:
                raise ValueError(f"row {i} has the nonzero {a} above the diagonal, in column {j}")
            if j < i:
                # Fraction on the left: Fraction * int is its fast path
                acc -= y[j] * a
        if i not in row:
            raise ValueError(f"row {i} has a zero diagonal entry, in column {i}")
        y.append(acc / row[i])
    return y


def solve_exact(matrix: RationalMatrix, b, method: str = "bareiss") -> list[Fraction]:
    """Unique exact solution of a square nonsingular system.

    The result is substituted back into every original equation before being
    returned.  Raises SingularMatrixError (with the rank attained) or
    DimensionMismatchError.
    """
    if not matrix.is_square():
        raise DimensionMismatchError(
            f"solve_exact needs a square matrix, got {matrix.nrows}x{matrix.ncols}"
        )
    n = matrix.nrows
    if len(b) != n:
        raise DimensionMismatchError(f"rhs length {len(b)} vs order {n}")
    rhs = [Fraction(v) for v in b]
    if method == "bareiss":
        aug = [{**row, n: v} for row, v in zip(matrix._rows, rhs)]
        int_rows, _ = _scaled_int_rows(aug, n + 1)
        rows, pivots, _ = _bareiss_echelon(int_rows, pivot_limit=n)
    elif method == "gauss":
        aug = [row + [v] for row, v in zip(matrix.rows(), rhs)]
        rows, pivots = _gauss_echelon(aug, pivot_limit=n)
    else:
        raise ValueError(f"unknown elimination method {method!r}")
    if len(pivots) < n:
        raise SingularMatrixError(
            f"matrix of order {n} is singular (rank {len(pivots)})", rank=len(pivots)
        )
    x = _back_substitute(rows, pivots, n, n)
    if matrix.matvec(x) != rhs:
        raise RuntimeError("internal error: solution has a nonzero residual")
    return x


def nullspace(matrix: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column, each with its
    first nonzero coordinate normalized to 1."""
    rows, pivots = _gauss_echelon(matrix.rows())
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
