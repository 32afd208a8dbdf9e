"""Canonical generators of the codimension-two tautological group of the
moduli space of genus-g stable curves, with the frozen ordering every matrix
in the package uses.

Labels serialize as short strings: ``k1^2``, ``k2``, ``d0^2``, ``ld0``,
``d1^2``, ``ld1``, ``ld2``, ``om(i)``, ``la(i)``, ``d(i,j)``, ``th(i)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
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
    "basis_index",
    "canonicalize",
]

_SCALAR_KINDS = ("k1^2", "k2", "d0^2", "ld0", "d1^2", "ld1", "ld2")


@dataclass(frozen=True)
class ClassLabel:
    """One generator: an interior kappa class, a product of divisor classes,
    a pushed-forward omega/lambda class, or a boundary-stratum class.

    ``kind`` is one of the scalar kinds above, or ``om``/``la``/``th`` with
    index ``i``, or ``d`` with a pair ``i <= j``.
    """

    kind: str
    i: int | None = None
    j: int | None = None
    # labels key every coefficient dict, so the hash is taken once, here
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.kind, self.i, self.j)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: rebuild, never copy, _hash
        return ClassLabel, (self.kind, self.i, self.j)

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


# The factories intern their labels, so a dict keyed by labels built here
# finds its keys by identity and never calls __eq__.


@lru_cache(maxsize=None)
def om(i: int) -> ClassLabel:
    return ClassLabel("om", i)


@lru_cache(maxsize=None)
def la(i: int) -> ClassLabel:
    return ClassLabel("la", i)


@lru_cache(maxsize=None)
def dd(i: int, j: int) -> ClassLabel:
    return ClassLabel("d", i, j)


@lru_cache(maxsize=None)
def th(i: int) -> ClassLabel:
    return ClassLabel("th", i)


_LABEL_RE = re.compile(r"^(om|la|th)\((\d+)\)$|^d\((\d+),(\d+)\)$")


def parse_label(text: str) -> ClassLabel:
    """Inverse of str(label)."""
    if text in _SCALAR_KINDS:
        return ClassLabel(text)
    m = _LABEL_RE.match(text)
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
    """floor((g^2 - 1)/4) + 3g - 1, the number of generators for g >= 5."""
    if g < 5:
        raise ValueError(f"the generating set is modeled for g >= 5, got g={g}")
    return (g * g - 1) // 4 + 3 * g - 1


@lru_cache(maxsize=None)
def enumerate_basis(g: int) -> tuple[ClassLabel, ...]:
    """The generators in the frozen order: the seven scalar classes, om(2..g-2),
    la(3..g-3), d(0,0), d(0,1..g-1), d(i,j) lexicographic, th(1..(g-1)/2)."""
    if g < 5:
        raise ValueError(f"the generating set is modeled for g >= 5, got g={g}")
    labels: list[ClassLabel] = [K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2]
    labels.extend(om(i) for i in range(2, g - 1))
    labels.extend(la(i) for i in range(3, g - 2))
    labels.append(dd(0, 0))
    labels.extend(dd(0, j) for j in range(1, g))
    for i in range(1, g - 1):
        for j in range(i, min(g - 2, g - 1 - i) + 1):
            labels.append(dd(i, j))
    labels.extend(th(i) for i in range(1, (g - 1) // 2 + 1))
    n = basis_dimension(g)
    if len(labels) != n:
        raise RuntimeError(
            f"internal error: enumerated {len(labels)} generators at g={g}, expected {n}"
        )
    return tuple(labels)


@lru_cache(maxsize=None)
def basis_index(g: int) -> dict[ClassLabel, int]:
    return {lab: pos for pos, lab in enumerate(enumerate_basis(g))}


def canonicalize(raw: ClassLabel, g: int) -> ClassLabel:
    """Resolve a raw relation-template label to a canonical generator.

    Sorts boundary pairs ascending.  For g = 5 only, la(2) and la(3) written
    by the relation templates are identified with ld2, the same identification
    the i = g-2 elliptic-tail relation uses; the genus-5 rank diagnostic
    reports this convention.  Coincident labels are accumulated additively by
    the relation builder, not merged here.
    """
    lab = raw
    if lab.kind == "d" and lab.i > lab.j:
        lab = dd(lab.j, lab.i)
    if g == 5 and lab.kind == "la" and lab.i in (2, 3):
        lab = LD2
    if not is_valid(lab, g):
        raise ValueError(f"label {lab} is invalid for genus {g}")
    return lab


class ClassExpression:
    """Exact-rational coefficient vector indexed by the genus-g generators."""

    __slots__ = ("genus", "coefficients")

    def __init__(self, genus: int, coefficients: dict[ClassLabel, Fraction]):
        self.genus = genus
        clean: dict[ClassLabel, Fraction] = {}
        for lab, value in coefficients.items():
            if not is_valid(lab, genus):
                raise ValueError(f"label {lab} is invalid for genus {genus}")
            clean[lab] = Fraction(value)
        self.coefficients = clean

    def __getitem__(self, label: ClassLabel) -> Fraction:
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
        return cls(genus, dict(zip(labels, map(Fraction, vec))))

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
