"""Exact linear algebra over the rationals on sparse matrices.

A matrix stores each row as a mapping from column to its nonzero entry.  An
integral entry is stored as an ``int`` and any other as a ``Fraction``, so a
product of integer matrices such as ``Q_g * T_g`` runs in integer arithmetic
and a matrix-vector product clears the vector's denominators once.  Dense
copies (``row``, ``rows``), which only the tests' dense oracles read, and
every computed vector hand out Fractions.
No float enters any computation.

``solve_lower_triangular`` is the one solve: forward substitution over the
sparse rows of a lower-triangular matrix, which rejects any other structure.
``rank`` is the one elimination: fraction-free (Bareiss) on integer rows
built straight from the nonzeros.  The dense oracles the tests hold these
against (Gauss, determinants, nullspaces, a general solve) live in the test
suite, in ``tests/oracles.py``, and reuse this Bareiss kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "RationalMatrix",
    "DimensionMismatchError",
    "solve_lower_triangular",
    "rank",
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


class RationalMatrix:
    """Sparse rational matrix, one {column: nonzero entry} dict per row,
    immutable by convention.  An entry is an int when it is integral and a
    Fraction otherwise, whatever type it was given as; ``entry`` and
    ``nonzeros`` hand out the stored value, ``row`` and ``rows`` Fractions."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, entries):
        """Matrix from dense rows of rationals.  Its width is that of the
        rows, so a matrix with no rows has 0 columns; ``from_sparse([], n)``
        builds an n-column matrix with no rows."""
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
        vv = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
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
    """Exact rank by fraction-free elimination."""
    int_rows, _ = _scaled_int_rows(matrix._rows, matrix.ncols)
    return len(_bareiss_echelon(int_rows)[1])


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
