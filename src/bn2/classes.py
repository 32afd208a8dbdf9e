"""The Fraction library view of a class: ``ClassExpression``, an exact
rational coefficient vector over the genus-g generators, and the label
text parser and range check it uses.

No command loads this module, which imports ``fractions`` at load.
``solve_class``, ``closed_form_class`` and ``known_trigonal_class`` import
it when they are called; the commands write each rational by
``basis.fraction_text`` from integers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from bn2.basis import ClassLabel, basis_dimension, enumerate_basis

__all__ = ["ClassExpression", "parse_label", "is_valid"]

_SCALAR_KINDS = ("k1^2", "k2", "d0^2", "ld0", "d1^2", "ld1", "ld2")

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
    """Range check for a label at genus g.  A label with a field its kind
    does not use, or with an index that is not an int, is no generator, and
    no label is one below genus 5, where no generating set is modeled."""
    if g < 5:
        return False
    kind, i, j = label.kind, label.i, label.j
    if kind in _SCALAR_KINDS:
        return i is None and j is None
    if kind == "d":
        if type(i) is not int or type(j) is not int:
            return False
        if i == 0:
            return j == 0 or 1 <= j <= g - 1
        return 1 <= i <= j <= g - 2 and i + j <= g - 1
    if type(i) is not int or j is not None:
        return False
    if kind == "om":
        return 2 <= i <= g - 2
    if kind == "la":
        return 3 <= i <= g - 3
    if kind == "th":
        return 1 <= i <= (g - 1) // 2
    return False


class ClassExpression:
    """Exact-rational coefficient vector indexed by the genus-g generators."""

    __slots__ = ("genus", "coefficients")

    def __init__(self, genus: int, coefficients: dict[ClassLabel, Fraction]):
        basis_dimension(genus)  # a genus with no modeled generating set is a ValueError
        self.genus = genus
        clean: dict[ClassLabel, Fraction] = {}
        for lab, value in coefficients.items():
            if not is_valid(lab, genus):
                raise ValueError(f"label {lab} is invalid for genus {genus}")
            clean[lab] = value if type(value) is Fraction else Fraction(value)
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
