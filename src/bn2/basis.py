"""Canonical generators of the codimension-two tautological group of the
moduli space of genus-g stable curves, with the frozen ordering every matrix
in the package uses.

Labels serialize as short strings: ``k1^2``, ``k2``, ``d0^2``, ``ld0``,
``d1^2``, ``ld1``, ``ld2``, ``om(i)``, ``la(i)``, ``d(i,j)``, ``th(i)``.

A rational value is carried as integers wherever the package computes, and
its text is ``fraction_text(n, d)``: ``str(Fraction(n, d))`` without
``fractions``.  The commands that write a rational load this module anyway.
The Fraction view of a class, ``ClassExpression``, and the label parser are
in ``bn2.classes``, which no command loads.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from math import gcd

__all__ = [
    "ClassLabel",
    "K1SQ",
    "K2",
    "D0SQ",
    "LD0",
    "D1SQ",
    "LD1",
    "LD2",
    "om",
    "la",
    "dd",
    "th",
    "basis_dimension",
    "enumerate_basis",
    "columns",
    "fraction_text",
]


class ClassLabel(namedtuple("ClassLabel", "kind i j", defaults=(None, None))):
    """One generator: an interior kappa class, a product of divisor classes,
    a pushed-forward omega/lambda class, or a boundary-stratum class.

    ``kind`` is one of the seven scalar kinds ``k1^2`` to ``ld2``, or
    ``om``/``la``/``th`` with index ``i``, or ``d`` with a pair ``i <= j``.
    A label is a tuple: it equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "d":
            return f"d({self.i},{self.j})"
        if self.kind in ("om", "la", "th"):
            return f"{self.kind}({self.i})"
        return self.kind


K1SQ = ClassLabel("k1^2")
K2 = ClassLabel("k2")
D0SQ = ClassLabel("d0^2")
LD0 = ClassLabel("ld0")
D1SQ = ClassLabel("d1^2")
LD1 = ClassLabel("ld1")
LD2 = ClassLabel("ld2")


def om(i: int) -> ClassLabel:
    return ClassLabel("om", i)


def la(i: int) -> ClassLabel:
    return ClassLabel("la", i)


def dd(i: int, j: int) -> ClassLabel:
    return ClassLabel("d", i, j)


def th(i: int) -> ClassLabel:
    return ClassLabel("th", i)


def basis_dimension(g: int) -> int:
    """floor((g^2 - 1)/4) + 3g - 1, the number of generators for g >= 5; a
    count that no list can index is a ValueError."""
    if g < 5:
        raise ValueError(f"the generating set is modeled for g >= 5, got g={g}")
    n = (g * g - 1) // 4 + 3 * g - 1
    if n > sys.maxsize:
        raise ValueError(f"the generating set at g={g} has more generators than a list can index")
    return n


def enumerate_basis(g: int) -> tuple[ClassLabel, ...]:
    """The generators in the frozen order: the seven scalar classes, om(2..g-2),
    la(3..g-3), d(0,0), d(0,1..g-1), d(i,j) lexicographic, th(1..(g-1)/2)."""
    n = basis_dimension(g)
    labels: list[ClassLabel] = [K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2]
    labels.extend(om(i) for i in range(2, g - 1))
    labels.extend(la(i) for i in range(3, g - 2))
    labels.append(dd(0, 0))
    labels.extend(dd(0, j) for j in range(1, g))
    for i in range(1, g - 1):
        for j in range(i, min(g - 2, g - 1 - i) + 1):
            labels.append(dd(i, j))
    labels.extend(th(i) for i in range(1, (g - 1) // 2 + 1))
    if len(labels) != n:
        raise RuntimeError(
            f"internal error: enumerated {len(labels)} generators at g={g}, expected {n}"
        )
    return tuple(labels)


def columns(g: int):
    """The column of every generator at genus g, by arithmetic on its indices.

    Returns (k1^2, k2, d0^2, ld0, d1^2, ld1, ld2, om, la, dd, th): the seven
    scalar columns 0..6 and four functions of the indices, om(i) = i + 5,
    la(i) = g + 1 + i, dd(0, j) = 2g - 1 + j, dd(i, j) = 3g - 1 + (i-1)(g-i)
    + j - i for 1 <= i <= j, and th(i) = n - (g-1)//2 - 1 + i.  They are the
    positions in enumerate_basis(g) and take the relation templates' raw
    indices: dd sorts its pair, and la maps la(g-2), never a generator, to
    ld2 at every g (the S6 and S18 templates write it at i = g-2 and i = 3),
    and la(2) = la(g-3) to ld2 at g = 5 only; the genus-5 rank diagnostic
    reports this convention.  An index out of range raises ValueError.
    """
    th0 = basis_dimension(g) - (g - 1) // 2 - 1

    def invalid(kind: str, *ij: int) -> ValueError:
        return ValueError(f"label {ClassLabel(kind, *ij)} is invalid for genus {g}")

    def om(i: int) -> int:
        if not 2 <= i <= g - 2:
            raise invalid("om", i)
        return i + 5

    def la(i: int) -> int:
        if i == g - 2 or (g == 5 and i == 2):
            return 6
        if not 3 <= i <= g - 3:
            raise invalid("la", i)
        return g + 1 + i

    def dd(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        if i == 0 and j <= g - 1:
            return 2 * g - 1 + j
        if not (1 <= i and i + j <= g - 1):
            raise invalid("d", i, j)
        return 3 * g - 1 + (i - 1) * (g - i) + j - i

    def th(i: int) -> int:
        if not 1 <= i <= (g - 1) // 2:
            raise invalid("th", i)
        return th0 + i

    return (*range(7), om, la, dd, th)


def fraction_text(n: int, d: int) -> str:
    """n / d written as ``str(Fraction(n, d))`` writes it: in lowest terms
    with a positive denominator, and without one when it is 1."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    c = gcd(n, d)
    if d < 0:
        c = -c
    return f"{n // c}" if d == c else f"{n // c}/{d // c}"

