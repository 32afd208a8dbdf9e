"""The closed formula for the codimension-two pencil-locus class, the known
genus-6 table, the pull-back to two-pointed genus-2 curves, the genus-4
hyperelliptic subsystem, and every cross-check wired around them.

The genus-6 table is hard-coded independently of the closed formula so the
two act as mutual checks; disagreement fails loudly with a per-label diff.

Every check runs in integers.  The tables are integer data, keyed by
column: each row of the genus-6 table, the pull-back and the genus-4
subsystem is integer numerators over its own denominator.  A class is
compared as integer numerators times one scale p / q, so each comparison
cross-multiplies, and each rational text of a report is
``basis.fraction_text``.  The genus-4 and genus-5 ranks are taken on the
integer rows (``_rank``).  ``reports_to_json`` writes the report as
``json.dumps(..., indent=2)`` does.  So a run whose checks pass loads
neither ``fractions`` nor ``json``.  ``closed_form_class``,
``scale_factor``, ``known_trigonal_class``, ``pullback_matrix``,
``pullback_image``, ``m4_relations``, ``m4_class`` and ``m4_rank_relation``
are the library views: each builds its Fractions from the same integer
data when it is called, a view that returns a ``ClassExpression`` imports
``bn2.classes`` then, and no view builds a matrix object.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, repeat
from math import factorial, gcd, lcm, prod
from operator import mul, ne

from bn2.basis import basis_dimension, columns, enumerate_basis, fraction_text
from bn2.relations import _json_string, build_relations
from bn2.triangular import _genus, _matvec, _solve

__all__ = [
    "CheckReport",
    "closed_form_class",
    "known_trigonal_class",
    "PULLBACK_BASIS",
    "pullback_matrix",
    "pullback_image",
    "M4_LABELS",
    "m4_relations",
    "m4_class",
    "m4_rank_relation",
    "check_trigonal_table",
    "check_closed_form",
    "check_pullback",
    "check_m4",
    "check_trigonal_interior",
    "check_g5_rank",
    "check_nonsingular",
    "check_triangularity",
    "NONSINGULAR_GENERA",
    "TRIANGULARITY_GENERA",
    "run_all",
    "reports_to_json",
]


class CheckReport:
    """One verification outcome; serializes to the structured JSON report."""

    __slots__ = ("check", "status", "expected", "actual", "diff", "notes")

    def __init__(self, check: str, status: str, expected, actual, diff=None, notes=None):
        self.check = check
        self.status = status  # "pass" | "fail" | "warn"
        self.expected = expected
        self.actual = actual
        self.diff = [] if diff is None else diff
        self.notes = [] if notes is None else notes

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "diff": self.diff,
            "notes": self.notes,
        }


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` from the column of indent, for nested
    dicts with string keys, lists, tuples, strings, ints, bools and None,
    written directly; any other value is a TypeError, as json.dumps raises
    for an object.  Each string is quoted on its own by ``_json_string``,
    which loads ``json``'s encoder only for a string that needs escaping."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("a report key must be a str")
        items = [f"{_json_text(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def reports_to_json(reports) -> str:
    """The JSON report of ``bn2 verify``: ``json.dumps`` of the reports'
    dicts at indent=2, and a newline."""
    return _json_text([rep.to_dict() for rep in reports]) + "\n"


def _scale(k: int) -> tuple[int, int]:
    """(p, q) with p / q = 2^(k-6) (2k-7)!! / (3 k!), the common factor of
    the closed formula."""
    if k < 3:
        raise ValueError(f"closed formula holds for k >= 3, got k={k}")
    return prod(range(1, 2 * k - 6, 2)) << max(k - 6, 0), 3 * factorial(k) << max(6 - k, 0)


def scale_factor(k: int) -> Fraction:
    """2^(k-6) (2k-7)!! / (3 k!), the common factor of the closed formula."""
    from fractions import Fraction

    return Fraction(*_scale(k))


def _quadratics(a2: int, a1: int, a0: int, start: int, stop: int) -> list[int]:
    """a2 j^2 + a1 j + a0 for start <= j < stop."""
    return [(a2 * j + a1) * j + a0 for j in range(start, stop)]


def _closed_form_parts(k: int) -> tuple[list[int], tuple[int, int]]:
    """(B, (p, q)) with the degree-k closed formula equal to p B / q in the
    frozen basis order of genus 2k: B is 5 times every bracket coefficient,
    an integer, because only d(0,g-2) and d(1,g-2) carry a 2/5, and
    p / q = scale_factor(k) / 5 in lowest terms.  B is evaluated family by
    family over the families' runs of columns, each bracket polynomial
    expanded in the family's index; ``closed_form_by_label`` in
    tests/oracles.py keeps the per-label form."""
    if k < 3:
        raise ValueError(f"closed formula holds for k >= 3, got k={k}")
    g, kk = 2 * k, k * k
    n = basis_dimension(g)
    # k1^2, k2, d0^2, ld0, d1^2, ld1, ld2
    b = [
        5 * (3 * kk + 3 * k + 5),
        -120 * k * (k + 5),
        -5 * (3 * kk + 3 * k + 5),
        -120 * (3 * (k - 1) * k - 5),
        -5 * (3 * k * (9 * k + 41) + 5),
        120 * (-33 * kk + 39 * k + 65),
        120 * (3 * (37 - 23 * k) * k + 185),
    ]
    # om(i), 2 <= i <= g-2: a quartic in i
    c3, c2 = 600 * (6 * k + 1), -180 * (20 * kk + 24 * k - 5)
    c1, c0 = 120 * (52 * kk - 16 * k - 5), 5 * (27 * kk + 123 * k + 5)
    b += [(((-900 * i + c3) * i + c2) * i + c1) * i + c0 for i in range(2, g - 1)]
    # la(i), 3 <= i <= g-3
    b += _quadratics(720 * (3 * k + 5), -720 * (6 * kk + 23 * k + 5), 120 * (159 * kk + 63 * k + 5), 3, g - 2)
    # d(0,0), d(0,j) for 1 <= j <= g-3, d(0,g-2), d(0,g-1)
    const = -10 * (3 * kk + 3 * k + 5)  # the j-free term of the d(0,j) and d(i,j) quadratics
    b.append(120 * k * (k - 1))
    b += _quadratics(-360 * k, 720 * kk - 1080 * k, const, 1, g - 2)
    b.append(2 * (3 * k * (187 * k - 389) - 745))
    b.append(10 * (k * (31 * k - 49) - 65))
    # d(i,j), 1 <= i <= j <= g-2 and i+j <= g-1, lexicographic: a quadratic in j
    # for each i, with the special d(1,1) and d(1,g-2); j <= g-1-i for i >= 2
    for i in range(1, g - 1):
        a2 = 1800 * i * (i + 1) - 2160 * k * i
        a1 = 4320 * kk * i - 2160 * k * i * (i + 4) + 1800 * i * (i + 1)
        if i == 1:
            b.append(240 * (19 * kk - 49 * k + 30))
            b += _quadratics(a2, a1, const, 2, g - 2)
            b.append(2 * (3 * k * (859 * k - 2453) + 2135))
        else:
            b += _quadratics(a2, a1, const, i, g - i)
    # th(i), 1 <= i <= (g-1)/2: a quartic in i
    c2, c1, c0 = 20 * k - 10, -(20 * kk - 8 * k - 5), 24 * kk - 32 * k + 10
    b += [60 * i * (((-5 * i + c2) * i + c1) * i + c0) for i in range(1, (g - 1) // 2 + 1)]
    if len(b) != n:
        raise RuntimeError(
            f"internal error: the closed formula has {len(b)} coefficients at g={g}, expected {n}"
        )
    p, q = _scale(k)
    c = gcd(p, 5 * q)
    return b, (p // c, 5 * q // c)


def closed_form_class(k: int) -> ClassExpression:
    """The degree-k pencil-locus class at genus 2k from the closed formula:
    every bracket coefficient times 2^(k-6) (2k-7)!! / (3 k!)."""
    from fractions import Fraction

    from bn2.classes import ClassExpression

    b, (p, q) = _closed_form_parts(k)
    return ClassExpression.from_vector(2 * k, [Fraction(p * v, q) for v in b])


# (B, (p, q)) of closed_form_class(k), built once for the closed-form,
# pull-back and (at k = 3) trigonal checks of degree k, which only read it
_closed_form = lru_cache(maxsize=1)(_closed_form_parts)


def _trigonal_table() -> list[tuple[int, int, int]]:
    """The 25 known coefficients of the trigonal-locus class at genus 6, as
    (column, numerator, denominator), hard-coded independently of the closed
    formula as a mutual check."""
    K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2, om, la, dd, th = columns(6)
    return [
        (K1SQ, 41, 144),
        (K2, -4, 1),
        (om(2), 329, 144),
        (om(3), -2551, 144),
        (om(4), -1975, 144),
        (la(3), 77, 6),
        (LD0, -13, 6),
        (LD1, -115, 6),
        (LD2, -103, 6),
        (D0SQ, -41, 144),
        (D1SQ, -617, 144),
        (dd(1, 1), 18, 1),
        (dd(1, 2), 823, 72),
        (dd(1, 3), 391, 72),
        (dd(1, 4), 3251, 360),
        (dd(2, 2), 1255, 72),
        (dd(2, 3), 1255, 72),
        (dd(0, 0), 1, 1),
        (dd(0, 1), 175, 72),
        (dd(0, 2), 175, 72),
        (dd(0, 3), -41, 72),
        (dd(0, 4), 803, 360),
        (dd(0, 5), 67, 72),
        (th(1), 2, 1),
        (th(2), -2, 1),
    ]


def _trigonal_vector() -> tuple[list[int], int]:
    """The genus-6 table as integer numerators in the frozen order over the
    lcm of its denominators."""
    table = _trigonal_table()
    den = lcm(*(d for _, _, d in table))
    nums = [0] * basis_dimension(6)
    for column, n, d in table:
        nums[column] = n * (den // d)
    return nums, den


def known_trigonal_class() -> ClassExpression:
    """The 25 known coefficients of the trigonal-locus class at genus 6,
    hard-coded independently of closed_form_class as a mutual check."""
    from fractions import Fraction

    from bn2.classes import ClassExpression

    labels = enumerate_basis(6)
    return ClassExpression(6, {labels[c]: Fraction(n, d) for c, n, d in _trigonal_table()})


PULLBACK_BASIS = ("D00", "(a)", "(b)", "(c)", "(d)")


def _pullback_rows(g: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The generators of genus g whose pull-back is nonzero, as (column,
    numerators, denominator): the image on (D00, (a), (b), (c), (d)) is the
    numerators over the denominator."""
    if g < 6:
        raise ValueError(f"pull-back table needs g >= 6, got g={g}")
    K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2, om, la, dd, th = columns(g)
    return [
        (dd(0, 1), (0, 1, 0, 0, 0), 1),
        (dd(0, g - 1), (0, 0, 1, 0, 0), 1),
        (th(1), (0, 0, 0, 1, 0), 1),
        (dd(1, 1), (0, 0, 0, 0, 1), 1),
        (dd(0, 0), (1, 0, 0, 0, 0), 1),
        (D0SQ, (5, -6, -6, 0, 0), 3),
        (D1SQ, (0, -1, -1, 0, 0), 12),
        (LD0, (1, 0, 0, 0, 0), 6),
        (LD1, (0, 1, 1, 0, 0), 12),
        (LD2, (-1, -7, 0, -12, -24), 60),
        (K1SQ, (17, 127, 37, 120, 840), 120),
        (K2, (3, 25, 11, 24, 168), 120),
        (dd(1, g - 2), (0, -1, 0, 0, -24), 12),
        (dd(0, g - 2), (-1, -6, 0, -12, 0), 6),
        (om(2), (-1, -13, 1, -24, -168), 120),
    ]


def _pulled_back(rows, nums) -> tuple[list[int], int]:
    """(S, den): the pull-back of the class with integer coefficients nums,
    indexed by column, is S / den on (D00, (a), (b), (c), (d)), with den
    the lcm of the rows' denominators.  Only the rows' columns are read."""
    den = lcm(*(d for _, _, d in rows))
    sums = [0] * len(PULLBACK_BASIS)
    for column, image, d in rows:
        v = nums[column] * (den // d)
        sums = [s + v * n for s, n in zip(sums, image)]
    return sums, den


def pullback_matrix(g: int) -> dict[ClassLabel, tuple[Fraction, ...]]:
    """Images of the genus-g generators under restriction to two-pointed
    genus-2 curves (attaching a fixed general curve of genus g-2), on the
    ordered rank-5 basis (D00, (a), (b), (c), (d)).

    The genus-dependent boundary labels are resolved at g; any generator not
    listed pulls back to zero."""
    from fractions import Fraction

    labels = enumerate_basis(g)
    images = {labels[c]: tuple(Fraction(n, d) for n in row) for c, row, d in _pullback_rows(g)}
    zero = (Fraction(0),) * len(PULLBACK_BASIS)
    return {lab: images.get(lab, zero) for lab in labels}


def pullback_image(expr: ClassExpression) -> tuple[Fraction, ...]:
    """Apply the pull-back generator by generator.  Only the generators with a
    nonzero image are read, and the sums run in integers: the coefficients
    over the lcm of their denominators, the images over that of the table's."""
    from fractions import Fraction

    rows = _pullback_rows(expr.genus)
    labels = enumerate_basis(expr.genus)
    coeffs = {c: expr[labels[c]] for c, _, _ in rows}
    den = lcm(*(v.denominator for v in coeffs.values()))
    nums = {c: v.numerator * (den // v.denominator) for c, v in coeffs.items()}
    sums, tden = _pulled_back(rows, nums)
    return tuple(Fraction(s, den * tden) for s in sums)


# ---------------------------------------------------------------------------
# Genus-4 hyperelliptic subsystem: its own 14-generator basis, one known rank
# relation, 13 relations, and the known class.

M4_LABELS = (
    "k2",
    "l^2",
    "ld0",
    "ld1",
    "ld2",
    "d0^2",
    "d0d1",
    "d1^2",
    "d1d2",
    "d2^2",
    "d00",
    "g1",
    "d01a",
    "d1_1",
)

# Each relation as (tag, coefficients, right-hand side) in integers; the
# pull-back row is written times the scale in _M4_ROW_SCALE, which clears its
# denominators.
_M4_ROWS: list[tuple[str, dict[str, int], int]] = [
    ("S1", {"d2^2": 8}, 36),
    ("S3", {"d2^2": 4, "d1d2": -2}, 12),
    ("S5", {"ld1": -4, "d0d1": -48, "d1^2": 8, "d01a": -48}, 0),
    ("S6", {"ld2": 1, "d1d2": -1}, 0),
    (
        "S8",
        {"l^2": 2, "ld0": 24, "ld1": -2, "d0^2": 288, "d0d1": -24, "d1^2": 2, "d00": 144, "d1_1": 1},
        0,
    ),
    (
        "S12",
        {"ld1": -4, "ld2": 3, "d0d1": -48, "d1^2": 8, "d1d2": -3, "d01a": -12, "d1_1": 3},
        0,
    ),
    ("S13", {"d0^2": 8, "d0d1": -4, "d1^2": 2, "d1d2": -2, "d2^2": 2, "d00": 4, "d1_1": 1}, 4),
    ("S14", {"ld0": -4, "d0^2": -96, "d0d1": 4, "d00": -48, "d1_1": -1, "d01a": -12}, 0),
    ("S15", {"d0^2": 48, "d1^2": -4, "k2": 4}, 0),
    ("S16", {"d1^2": 16, "d2^2": -2, "k2": 2, "d1_1": 6}, 30),
    (
        "S17",
        {
            "ld0": -2,
            "ld1": 1,
            "d0^2": -44,
            "d0d1": 12,
            "d1^2": -1,
            "k2": 1,
            "d00": -12,
            "d01a": 12,
            "g1": 1,
        },
        0,
    ),
    ("S18", {"d1d2": 1, "ld2": -1, "d2^2": 1, "k2": 1, "d01a": 12, "g1": 12}, 0),
    (
        "pullback[D00]",
        {"d00": 120, "d0^2": 200, "ld0": 20, "ld2": -2, "k2": 3, "l^2": 2, "d2^2": 1},
        0,
    ),
]
_M4_ROW_SCALE = {"pullback[D00]": 120}

# twice the coefficients of the genus-4 hyperelliptic class, in integers, in
# the M4_LABELS order
_M4_TWICE_CLASS = (27, -339, 64, 90, 6, -1, -8, 15, 6, 9, -4, -6, 3, -36)

# the unique linear relation among the 14 generators, in the M4_LABELS order
_M4_RANK_RELATION = (60, -810, 156, 252, 0, -3, -24, 24, 0, 0, -9, -12, 7, -84)


def _m4_rows() -> list[dict[int, int]]:
    """The integer rows of _M4_ROWS, keyed by position in M4_LABELS."""
    pos = {name: t for t, name in enumerate(M4_LABELS)}
    return [{pos[name]: v for name, v in coeffs.items()} for _, coeffs, _ in _M4_ROWS]


def m4_relations() -> tuple[list[str], list[dict[int, Fraction]], list[Fraction]]:
    """The 13 genus-4 relations: source tags, one {column: coefficient} row
    per relation with the columns in the M4_LABELS order, and the
    right-hand sides."""
    from fractions import Fraction

    scales = [_M4_ROW_SCALE.get(tag, 1) for tag, _, _ in _M4_ROWS]
    rows = [{j: Fraction(v, s) for j, v in row.items()} for row, s in zip(_m4_rows(), scales)]
    tags = [tag for tag, _, _ in _M4_ROWS]
    rhs = [Fraction(b, s) for (_, _, b), s in zip(_M4_ROWS, scales)]
    return tags, rows, rhs


def m4_class() -> dict[str, Fraction]:
    """Coefficients of the genus-4 hyperelliptic class; doubling them clears
    every denominator."""
    from fractions import Fraction

    return {name: Fraction(v, 2) for name, v in zip(M4_LABELS, _M4_TWICE_CLASS)}


def m4_rank_relation() -> list[Fraction]:
    """The unique linear relation among the 14 genus-4 generators, in the
    M4_LABELS order."""
    from fractions import Fraction

    return [Fraction(v) for v in _M4_RANK_RELATION]


# ---------------------------------------------------------------------------
# Checks.


def _rank(rows: list[dict[int, int]], ncols: int) -> int:
    """The rank of the integer rows {column: value} of ncols columns by
    fraction-free (Bareiss) elimination, pivoting on the first nonzero entry
    of each column; each update divides exactly by the previous pivot."""
    m = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    r, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        for row in m[r + 1 :]:
            f = row[c]
            row[c:] = [(prow[c] * v - f * w) // prev for v, w in zip(row[c:], prow[c:])]
        prev = prow[c]
        r += 1
    return r


def _compare(name: str, g: int, expected, actual) -> CheckReport:
    """Compare two genus-g classes coefficient by coefficient, in integers.
    Each is (nums, p, q), the class with coefficients p nums / q in the
    frozen order; a p' / q' equals e p / q exactly when a p' q == e p q'.
    The report texts are built only for the labels that differ."""
    (e, ep, eq), (a, ap, aq) = expected, actual
    bad = [*compress(count(), map(ne, map(mul, a, repeat(ap * eq)), map(mul, e, repeat(ep * aq))))]
    labels = enumerate_basis(g) if bad else ()
    diff = [
        {
            "label": str(labels[t]),
            "actual": fraction_text(ap * a[t], aq),
            "expected": fraction_text(ep * e[t], eq),
        }
        for t in bad
    ]
    return CheckReport(
        check=name,
        status="pass" if not diff else "fail",
        expected=f"{basis_dimension(g)} coefficients equal",
        actual="all equal" if not diff else f"{len(diff)} mismatches",
        diff=diff,
    )


def check_trigonal_table() -> CheckReport:
    """Solve the genus-6 system at k = 3 and compare with the known table."""
    table, den = _trigonal_vector()
    x, d = _solve(3)
    return _compare("trigonal-table", 6, (table, 1, den), (x, 1, d))


def check_closed_form(k: int) -> CheckReport:
    """Solve the genus-2k system at degree k and compare with the closed
    formula, coefficient by coefficient, in integers: X / D = p B / q
    exactly when X q = D p B.  The closed formula's k >= 3 domain is checked
    first."""
    b, (p, q) = _closed_form(k)
    x, d = _solve(k)
    return _compare(f"closed-form[k={k}]", 2 * k, (b, p, q), (x, 1, d))


def check_pullback(k: int) -> CheckReport:
    """The pull-back of the degree-k class must vanish on D00, (a), (b), (d);
    the (c) coordinate is reported.  Only the coefficients the pull-back reads
    are taken from the closed formula, and the image p S / (q den) is
    tested and written from its integer sums S."""
    b, (p, q) = _closed_form(k)
    sums, den = _pulled_back(_pullback_rows(2 * k), b)
    den *= q
    bad = [
        {"coordinate": PULLBACK_BASIS[t], "value": fraction_text(p * sums[t], den)}
        for t in (0, 1, 2, 4)
        if sums[t]
    ]
    return CheckReport(
        check=f"pullback[k={k}]",
        status="pass" if not bad else "fail",
        expected="zero on D00, (a), (b), (d)",
        actual={"(c)": fraction_text(p * sums[3], den)}
        if not bad
        else f"{len(bad)} nonzero coordinates",
        diff=bad,
    )


def check_m4() -> CheckReport:
    """Genus-4 hyperelliptic verification: the known class satisfies the 13
    relations, the system has rank 13, and its kernel is spanned by the known
    rank relation.  Rank 13 on 14 columns leaves a one-dimensional kernel,
    so a nonzero r with M r = 0 spans it.  All in integers: a row written
    times s holds for the class x = X / 2 exactly when its product with X is
    2 b, and a scaled row has the same kernel."""
    rows = _m4_rows()
    residues = []
    for (tag, _, b), lhs in zip(_M4_ROWS, _matvec(rows, _M4_TWICE_CLASS)):
        if lhs != 2 * b:
            s = _M4_ROW_SCALE.get(tag, 1)
            residues.append(
                {"relation": tag, "lhs": fraction_text(lhs, 2 * s), "rhs": fraction_text(b, s)}
            )
    r = _rank(rows, len(M4_LABELS))
    stated = list(_M4_RANK_RELATION)
    kernel_ok = len(M4_LABELS) - r == 1 and any(stated) and not any(_matvec(rows, stated))
    ok = not residues and r == 13 and kernel_ok
    return CheckReport(
        check="m4",
        status="pass" if ok else "fail",
        expected={"relations": "all satisfied", "rank": 13, "nullspace": "span of the rank relation"},
        actual={
            "relations_violated": len(residues),
            "rank": r,
            "nullspace_matches": kernel_ok,
        },
        diff=residues,
    )


def check_trigonal_interior() -> CheckReport:
    """The genus-6 closed formula against the known genus-6 table, whose rows
    include the interior coefficients k1^2 -> 41/144 and k2 -> -4."""
    table, den = _trigonal_vector()
    b, (p, q) = _closed_form(3)
    report = _compare("trigonal", 6, (table, 1, den), (b, p, q))
    report.expected = "k1^2 -> 41/144, k2 -> -4, full table match"
    return report


G5_CONVENTION_NOTE = (
    "genus-5 convention: the relation templates' la(2) and la(3) are "
    "identified with ld2 (mirroring the i = g-2 elliptic-tail relation); "
    "the rank statement below depends on this identification"
)


def check_g5_rank() -> CheckReport:
    """Diagnostic: the 19 x 20 genus-5 system (no S10 row) has rank 19 under
    the documented lambda identification."""
    rows = build_relations(5).coefficients
    ncols = basis_dimension(5)
    r = _rank(rows, ncols)
    ok = r == 19 and len(rows) == 19 and ncols == 20
    return CheckReport(
        check="g5",
        status="pass" if ok else "fail",
        expected={"rows": 19, "cols": 20, "rank": 19},
        actual={"rows": len(rows), "cols": ncols, "rank": r},
        notes=["diagnostic", G5_CONVENTION_NOTE],
    )


def _triangularity_diff(violations, zero_diagonal) -> list[dict]:
    """The entries of Q_g * T_g that break the certificate, at most 50 of
    each kind."""
    diff = [{"row": r, "col": c, "value": str(v)} for r, c, v in violations[:50]]
    diff.extend({"diagonal": r, "value": "0"} for r in zero_diagonal[:50])
    return diff


def check_nonsingular(g: int) -> CheckReport:
    """det(Q_g) != 0, certified without a determinant: P = Q_g * T_g is
    lower-triangular with a nonzero diagonal, so det P = det Q_g det T_g is
    nonzero and so is det Q_g.  Without that certificate the check fails and
    names the rows of P at fault."""
    if g < 6:
        raise ValueError(f"Q_g is square only for g >= 6, got g={g}")
    violations, zero_diagonal = _genus(g).report
    ok = not violations and not zero_diagonal
    return CheckReport(
        check=f"nonsingular[g={g}]",
        status="pass" if ok else "fail",
        expected="det(Q_g) != 0",
        actual="nonzero" if ok else "not certified by Q_g * T_g",
        diff=_triangularity_diff(violations, zero_diagonal),
    )


def check_triangularity(g: int) -> CheckReport:
    """Q_g * T_g should be lower-triangular with nonzero diagonal under the
    documented row/column pairing.  The production solve (``_solve``) and
    the nonsingularity certificate depend on this structure and fail on
    their own without it; this report lists the deviations and stays at
    "warn".  A g < 6 is the ValueError of T_g's build."""
    genus = _genus(g)
    violations, zero_diagonal = genus.report
    return CheckReport(
        check=f"triangularity[g={g}]",
        status="warn" if violations or zero_diagonal else "pass",
        expected="lower-triangular with nonzero diagonal",
        actual={
            "lower_triangular": not violations,
            "diagonal_nonzero": not zero_diagonal,
            "order": len(genus.t),
        },
        diff=_triangularity_diff(violations, zero_diagonal),
        notes=["diagnostic: the pairing order is the documented group order"],
    )


# the genera of the nonsingular and triangularity checks in run_all, and in
# ``bn2 verify nonsingular`` and ``bn2 verify triangularity`` without --g
NONSINGULAR_GENERA = range(6, 17)
TRIANGULARITY_GENERA = range(6, 11)


def run_all(k_max: int = 6) -> list[CheckReport]:
    """Every check, deterministically ordered by check name.

    The checks run genus by genus, so each genus's system and each degree's
    closed formula are built once, and their memos hold one at a time; the
    table and closed-form[k=3] each solve k = 3 on the genus memo's rows."""
    if k_max < 3:
        raise ValueError(f"closed formula holds for k >= 3, got k_max={k_max}")
    reports = [check_m4(), check_g5_rank()]
    for g in sorted({*NONSINGULAR_GENERA, *TRIANGULARITY_GENERA, *range(6, 2 * k_max + 1, 2)}):
        if g == 6:
            reports += [check_trigonal_table(), check_trigonal_interior()]
        if g % 2 == 0 and g // 2 <= k_max:
            reports += [check_closed_form(g // 2), check_pullback(g // 2)]
        if g in NONSINGULAR_GENERA:
            reports.append(check_nonsingular(g))
        if g in TRIANGULARITY_GENERA:
            reports.append(check_triangularity(g))
    reports.sort(key=lambda rep: rep.check)
    return reports
