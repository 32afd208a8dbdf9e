"""Canonical generators of the codimension-two tautological group of the
moduli space of genus-g stable curves, with the frozen ordering every matrix
in the package uses.

Labels serialize as short strings: ``k1^2``, ``k2``, ``d0^2``, ``ld0``,
``d1^2``, ``ld1``, ``ld2``, ``om(i)``, ``la(i)``, ``d(i,j)``, ``th(i)``.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from functools import lru_cache

__all__ = [
    "ClassLabel",
    "ClassExpression",
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
    "parse_label",
    "is_valid",
    "basis_dimension",
    "enumerate_basis",
    "columns",
]

_SCALAR_KINDS = ("k1^2", "k2", "d0^2", "ld0", "d1^2", "ld1", "ld2")


class ClassLabel(namedtuple("ClassLabel", "kind i j", defaults=(None, None))):
    """One generator: an interior kappa class, a product of divisor classes,
    a pushed-forward omega/lambda class, or a boundary-stratum class.

    ``kind`` is one of the scalar kinds above, or ``om``/``la``/``th`` with
    index ``i``, or ``d`` with a pair ``i <= j``.  A label is a tuple: it
    equals the plain tuple of its fields.
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


# compiled on the first parse_label call, by re's own cache, not at import
_LABEL_PATTERN = r"^(om|la|th)\((\d+)\)$|^d\((\d+),(\d+)\)$"


def parse_label(text: str) -> ClassLabel:
    """Inverse of str(label)."""
    if text in _SCALAR_KINDS:
        return ClassLabel(text)
    m = re.match(_LABEL_PATTERN, text)
    if m is None:
        raise ValueError(f"cannot parse class label {text!r}")
    if m.group(1):
        return ClassLabel(m.group(1), int(m.group(2)))
    return ClassLabel("d", int(m.group(3)), int(m.group(4)))


def is_valid(label: ClassLabel, g: int) -> bool:
    """Range check for a label at genus g."""
    if label.kind in _SCALAR_KINDS:
        return True
    if label.kind == "om":
        return 2 <= label.i <= g - 2
    if label.kind == "la":
        return 3 <= label.i <= g - 3
    if label.kind == "th":
        return 1 <= label.i <= (g - 1) // 2
    if label.kind == "d":
        i, j = label.i, label.j
        if i == 0:
            return j == 0 or 1 <= j <= g - 1
        return 1 <= i <= j <= g - 2 and i + j <= g - 1
    return False


def basis_dimension(g: int) -> int:
    """floor((g^2 - 1)/4) + 3g - 1, the number of generators for g >= 5; a
    count that no list can index is a ValueError."""
    if g < 5:
        raise ValueError(f"the generating set is modeled for g >= 5, got g={g}")
    n = (g * g - 1) // 4 + 3 * g - 1
    if n > sys.maxsize:
        raise ValueError(f"the generating set at g={g} has more generators than a list can index")
    return n


@lru_cache(maxsize=None)
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


class ClassExpression:
    """Exact-rational coefficient vector indexed by the genus-g generators.
    ``fractions`` loads with the first expression, not with this module."""

    __slots__ = ("genus", "coefficients")

    def __init__(self, genus: int, coefficients: dict[ClassLabel, Fraction]):
        from fractions import Fraction

        self.genus = genus
        clean: dict[ClassLabel, Fraction] = {}
        for lab, value in coefficients.items():
            if not is_valid(lab, genus):
                raise ValueError(f"label {lab} is invalid for genus {genus}")
            clean[lab] = value if type(value) is Fraction else Fraction(value)
        self.coefficients = clean

    def __getitem__(self, label: ClassLabel) -> Fraction:
        from fractions import Fraction

        return self.coefficients.get(label, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassExpression):
            return NotImplemented
        return self.genus == other.genus and self.vector() == other.vector()

    def vector(self) -> list[Fraction]:
        return [self[lab] for lab in enumerate_basis(self.genus)]

    @classmethod
    def from_vector(cls, genus: int, vec) -> "ClassExpression":
        labels = enumerate_basis(genus)
        if len(vec) != len(labels):
            raise ValueError(f"need {len(labels)} coefficients, got {len(vec)}")
        return cls(genus, dict(zip(labels, vec)))

    def diff(self, other: "ClassExpression") -> list[tuple[str, Fraction, Fraction]]:
        """Labels where the two expressions disagree, as (label, self, other)."""
        if self.genus != other.genus:
            raise ValueError("cannot diff expressions of different genus")
        out = []
        for lab in enumerate_basis(self.genus):
            a, b = self[lab], other[lab]
            if a != b:
                out.append((str(lab), a, b))
        return out

    def __repr__(self) -> str:
        return f"ClassExpression(genus={self.genus}, {len(self.coefficients)} terms)"
