"""The CSV and JSON exports of the relation system Q_g and of the
triangularizing matrix T_g: ``bn2 matrix`` and ``bn2 tmatrix`` write their
text here, and only those commands load this module.

The Q_g writers read only the system's views, and the T_g writers import
``bn2.triangular`` when they are called, so ``bn2 matrix`` loads only the
data layer ``bn2.relations`` with this module.
Every text is written directly, as ``csv.writer`` and ``json.dumps`` would
write it, without loading ``csv`` or ``json``.
"""

from __future__ import annotations

from bn2.basis import enumerate_basis
from bn2.relations import _json_string, build_rhs_vector

__all__ = ["system_to_csv", "system_to_json", "t_matrix_to_csv", "t_matrix_to_json"]


def _rows_with_rhs(system: RelationSystem, k: int | None):
    """The source, coefficient dict and right-hand-side text, symbolic or at k, of each row."""
    texts = system.rhs_texts if k is None else map(str, build_rhs_vector(system, k))
    return zip(system.sources, system.coefficients, texts)


def _sorted_cells(name: str, coeffs: dict[int, int], width: int) -> list[tuple[int, int]]:
    """coeffs' (column, value) pairs, sorted; a column off 0..width-1 is a ValueError naming name."""
    items = sorted(coeffs.items())
    for c, _ in items[:1] + items[-1:]:
        if not 0 <= c < width:
            raise ValueError(f"{name} has column {c}, outside the {width} columns of its genus")
    return items


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as ``csv.writer`` quotes it under
    QUOTE_MINIMAL with the line terminator "\\r\\n": only when it holds a comma,
    a double quote, a carriage return or a newline, each double quote doubled."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(head: list[str], nonzeros, width: int, tail: tuple[str, ...] = ()) -> str:
    """One CSV line: the text fields head, then width numeric cells that are
    0 except at the (column, value) pairs of nonzeros, sorted by column, then
    the text fields tail.  The zero runs are written whole, so the cost is
    that of the nonzeros, not of the width."""
    parts = [",".join(map(_csv_field, head))]
    last = -1
    for column, value in nonzeros:
        parts.append(",0" * (column - last - 1))
        parts.append(f",{value}")
        last = column
    parts.append(",0" * (width - last - 1))
    parts.extend("," + _csv_field(text) for text in tail)
    parts.append("\n")
    return "".join(parts)


def system_to_csv(system: RelationSystem, k: int | None = None) -> str:
    labels = enumerate_basis(system.g)
    n = len(labels)
    lines = [_csv_line(["source", *map(str, labels), "rhs"], (), 0)]
    for source, coeffs, rhs in _rows_with_rhs(system, k):
        lines.append(_csv_line([source], _sorted_cells(source, coeffs, n), n, (rhs,)))
    return "".join(lines)


def _json_export(g: int, key: str, entries: list) -> str:
    """``json.dumps({"g": g, "labels": labels, key: entries}, indent=2)`` plus
    a newline for the genus-g labels, written directly.  An entry is a field
    name, its string, a {column: int} dict of coefficients and, optionally, a
    right-hand side; labels, strings (each by ``_json_string``) and
    coefficients are JSON strings.  Coefficients may be empty, entries not."""
    names = [_json_string(str(lab)) for lab in enumerate_basis(g)]
    items = []
    for field, text, coeffs, *rhs in entries:
        cells = _sorted_cells(text, coeffs, len(names))
        cells = ",\n        ".join(f'{names[c]}: "{v}"' for c, v in cells)
        cells = "{\n        " + cells + "\n      }" if cells else "{}"
        rhs = "".join(f',\n      "rhs": {_json_string(t)}' for t in rhs)
        items.append(f'\n      "{field}": {_json_string(text)},\n      "coeffs": {cells}{rhs}\n    ')
    labels = ",\n    ".join(names)
    return f'{{\n  "g": {g},\n  "labels": [\n    {labels}\n  ],\n  "{key}": [\n    {{' + "},\n    {".join(items) + "}\n  ]\n}\n"


def system_to_json(system: RelationSystem, k: int | None = None) -> str:
    return _json_export(system.g, "rows", [("source", *row) for row in _rows_with_rhs(system, k)])


def t_matrix_to_csv(g: int) -> str:
    from bn2.triangular import _t_columns, _t_rows

    system, cols = _t_columns(g)
    lines = [_csv_line(["label", *system.t_tags], (), 0)]
    for lab, row in zip(enumerate_basis(g), _t_rows(cols)):
        lines.append(_csv_line([str(lab)], sorted(row.items()), len(cols)))
    return "".join(lines)


def t_matrix_to_json(g: int) -> str:
    from bn2.triangular import _t_columns

    system, cols = _t_columns(g)
    return _json_export(g, "columns", [("tag", tag, col) for tag, col in zip(system.t_tags, cols)])
