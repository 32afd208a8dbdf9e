"""Exact linear algebra over the rationals on sparse matrices.

A matrix stores each row as a mapping from column to its nonzero entry.  An
integral entry is stored as an ``int`` and any other as a ``Fraction``, so a
product of integer matrices such as ``Q_g * T_g`` runs in integer arithmetic
and a matrix-vector product clears the vector's denominators once.
``from_sparse`` is the one constructor.  No float enters any computation.

No package module imports this one, no command loads it and none of it
eliminates: ``bn2.triangular`` and ``bn2.verify`` work on integer rows.  Only
the test oracles in ``tests/oracles.py`` build a ``RationalMatrix``, and
``fractions`` is imported only where a non-integral entry is stored or a
vector is passed to ``matvec``.  The module stays, until the benchmark's
tracer (``perfbench/tracer.py``) no longer hooks it by name, as that
tracer's hooks (``matvec`` and ``matmul``) and as the tests' reference for
the integer-row product of ``bn2.triangular``; ``bn2.RationalMatrix`` is
its lazy export.
"""

from __future__ import annotations

from math import lcm
from operator import mul

__all__ = [
    "RationalMatrix",
    "DimensionMismatchError",
]

def _exact(x) -> int | Fraction:
    """x as an int when it is integral, as a Fraction otherwise."""
    if type(x) is int:
        return x
    from fractions import Fraction

    value = Fraction(x)
    return value.numerator if value.denominator == 1 else value


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class RationalMatrix:
    """Sparse rational matrix, one {column: nonzero entry} dict per row,
    immutable by convention.  An entry is an int when it is integral and a
    Fraction otherwise, whatever type it was given as; ``entry`` and
    ``nonzeros`` hand out the stored value."""

    __slots__ = ("_rows", "_ncols")

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

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def entry(self, i: int, j: int) -> int | Fraction:
        return self._rows[i].get(j, 0)

    def nonzeros(self):
        """(row, column, value) of every nonzero entry, row by row."""
        for i, row in enumerate(self._rows):
            for j, value in row.items():
                yield i, j, value

    def matvec(self, v) -> list[Fraction]:
        """The exact product with v.  v is brought to integer numerators over
        the lcm of its denominators, so each row costs integer products and
        one Fraction."""
        from fractions import Fraction

        vv = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
        den = lcm(*(x.denominator for x in vv))
        nums = [x.numerator * (den // x.denominator) for x in vv]
        return [Fraction(s, den) for s in self.int_matvec(nums)]

    def int_matvec(self, v: list[int]) -> list[int | Fraction]:
        """The product with a vector of ints: ints when every entry is an int."""
        if len(v) != self.ncols:
            raise DimensionMismatchError(f"matvec: {self.ncols} columns vs {len(v)} entries")
        get = v.__getitem__
        return [sum(map(mul, row.values(), map(get, row))) for row in self._rows]

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
