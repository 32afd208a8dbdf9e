"""The closed formula for the codimension-two pencil-locus class, the known
genus-6 table, the pull-back to two-pointed genus-2 curves, the genus-4
hyperelliptic subsystem, and every cross-check wired around them.

The genus-6 table is hard-coded independently of the closed formula so the
two act as mutual checks; disagreement fails loudly with a per-label diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from bn2.basis import (
    D0SQ,
    D1SQ,
    K1SQ,
    K2,
    LD0,
    LD1,
    LD2,
    ClassExpression,
    ClassLabel,
    basis_dimension,
    dd,
    enumerate_basis,
    la,
    om,
    th,
)
from bn2.exactnum import double_factorial_odd, factorial
from bn2.relations import _genus, build_relations, solve_class, system_matrix
from bn2.solver import RationalMatrix, rank

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
    "run_all",
]

F = Fraction


@dataclass
class CheckReport:
    """One verification outcome; serializes to the structured JSON report."""

    check: str
    status: str  # "pass" | "fail" | "warn"
    expected: object
    actual: object
    diff: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


def scale_factor(k: int) -> Fraction:
    """2^(k-6) (2k-7)!! / (3 k!), the common factor of the closed formula."""
    return F(2) ** (k - 6) * double_factorial_odd(2 * k - 7) / (3 * factorial(k))


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


def closed_form_class(k: int) -> ClassExpression:
    """The degree-k pencil-locus class at genus 2k from the closed formula:
    every bracket coefficient times 2^(k-6) (2k-7)!! / (3 k!)."""
    if k < 3:
        raise ValueError(f"closed formula holds for k >= 3, got k={k}")
    c = scale_factor(k)
    g = 2 * k
    return ClassExpression(g, {lab: c * _bracket_coefficient(lab, k) for lab in enumerate_basis(g)})


@lru_cache(maxsize=1)
def _closed_form(k: int) -> ClassExpression:
    """closed_form_class(k), evaluated once for the checks of degree k, which
    only read it."""
    return closed_form_class(k)


def known_trigonal_class() -> ClassExpression:
    """The 25 known coefficients of the trigonal-locus class at genus 6,
    hard-coded independently of closed_form_class as a mutual check."""
    coeffs = {
        K1SQ: F(41, 144),
        K2: F(-4),
        om(2): F(329, 144),
        om(3): F(-2551, 144),
        om(4): F(-1975, 144),
        la(3): F(77, 6),
        LD0: F(-13, 6),
        LD1: F(-115, 6),
        LD2: F(-103, 6),
        D0SQ: F(-41, 144),
        D1SQ: F(-617, 144),
        dd(1, 1): F(18),
        dd(1, 2): F(823, 72),
        dd(1, 3): F(391, 72),
        dd(1, 4): F(3251, 360),
        dd(2, 2): F(1255, 72),
        dd(2, 3): F(1255, 72),
        dd(0, 0): F(1),
        dd(0, 1): F(175, 72),
        dd(0, 2): F(175, 72),
        dd(0, 3): F(-41, 72),
        dd(0, 4): F(803, 360),
        dd(0, 5): F(67, 72),
        th(1): F(2),
        th(2): F(-2),
    }
    return ClassExpression(6, coeffs)


PULLBACK_BASIS = ("D00", "(a)", "(b)", "(c)", "(d)")


def pullback_matrix(g: int) -> dict[ClassLabel, tuple[Fraction, ...]]:
    """Images of the genus-g generators under restriction to two-pointed
    genus-2 curves (attaching a fixed general curve of genus g-2), on the
    ordered rank-5 basis (D00, (a), (b), (c), (d)).

    The genus-dependent boundary labels are resolved at g; any generator not
    listed pulls back to zero."""
    if g < 6:
        raise ValueError(f"pull-back table needs g >= 6, got g={g}")
    table: dict[ClassLabel, tuple] = {
        dd(0, 1): (0, 1, 0, 0, 0),
        dd(0, g - 1): (0, 0, 1, 0, 0),
        th(1): (0, 0, 0, 1, 0),
        dd(1, 1): (0, 0, 0, 0, 1),
        dd(0, 0): (1, 0, 0, 0, 0),
        D0SQ: (F(5, 3), -2, -2, 0, 0),
        D1SQ: (0, F(-1, 12), F(-1, 12), 0, 0),
        LD0: (F(1, 6), 0, 0, 0, 0),
        LD1: (0, F(1, 12), F(1, 12), 0, 0),
        LD2: (F(-1, 60), F(-7, 60), 0, F(-1, 5), F(-2, 5)),
        K1SQ: (F(17, 120), F(127, 120), F(37, 120), 1, 7),
        K2: (F(1, 40), F(5, 24), F(11, 120), F(1, 5), F(7, 5)),
        dd(1, g - 2): (0, F(-1, 12), 0, 0, -2),
        dd(0, g - 2): (F(-1, 6), -1, 0, -2, 0),
        om(2): (F(-1, 120), F(-13, 120), F(1, 120), F(-1, 5), F(-7, 5)),
    }
    zero = (F(0),) * 5
    return {
        lab: tuple(F(x) for x in table.get(lab, zero)) for lab in enumerate_basis(g)
    }


def pullback_image(expr: ClassExpression) -> tuple[Fraction, ...]:
    """Apply the pull-back generator by generator."""
    images = pullback_matrix(expr.genus)
    out = [F(0)] * 5
    for lab, coeff in expr.coefficients.items():
        vec = images[lab]
        for t in range(5):
            if vec[t] != 0:
                out[t] += coeff * vec[t]
    return tuple(out)


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

_M4_ROWS: list[tuple[str, dict[str, Fraction], Fraction]] = [
    ("S1", {"d2^2": F(8)}, F(36)),
    ("S3", {"d2^2": F(4), "d1d2": F(-2)}, F(12)),
    ("S5", {"ld1": F(-4), "d0d1": F(-48), "d1^2": F(8), "d01a": F(-48)}, F(0)),
    ("S6", {"ld2": F(1), "d1d2": F(-1)}, F(0)),
    (
        "S8",
        {
            "l^2": F(2),
            "ld0": F(24),
            "ld1": F(-2),
            "d0^2": F(288),
            "d0d1": F(-24),
            "d1^2": F(2),
            "d00": F(144),
            "d1_1": F(1),
        },
        F(0),
    ),
    (
        "S12",
        {
            "ld1": F(-4),
            "ld2": F(3),
            "d0d1": F(-48),
            "d1^2": F(8),
            "d1d2": F(-3),
            "d01a": F(-12),
            "d1_1": F(3),
        },
        F(0),
    ),
    (
        "S13",
        {
            "d0^2": F(8),
            "d0d1": F(-4),
            "d1^2": F(2),
            "d1d2": F(-2),
            "d2^2": F(2),
            "d00": F(4),
            "d1_1": F(1),
        },
        F(4),
    ),
    (
        "S14",
        {
            "ld0": F(-4),
            "d0^2": F(-96),
            "d0d1": F(4),
            "d00": F(-48),
            "d1_1": F(-1),
            "d01a": F(-12),
        },
        F(0),
    ),
    ("S15", {"d0^2": F(48), "d1^2": F(-4), "k2": F(4)}, F(0)),
    ("S16", {"d1^2": F(16), "d2^2": F(-2), "k2": F(2), "d1_1": F(6)}, F(30)),
    (
        "S17",
        {
            "ld0": F(-2),
            "ld1": F(1),
            "d0^2": F(-44),
            "d0d1": F(12),
            "d1^2": F(-1),
            "k2": F(1),
            "d00": F(-12),
            "d01a": F(12),
            "g1": F(1),
        },
        F(0),
    ),
    (
        "S18",
        {"d1d2": F(1), "ld2": F(-1), "d2^2": F(1), "k2": F(1), "d01a": F(12), "g1": F(12)},
        F(0),
    ),
    (
        "pullback[D00]",
        {
            "d00": F(1),
            "d0^2": F(5, 3),
            "ld0": F(1, 6),
            "ld2": F(-1, 60),
            "k2": F(1, 40),
            "l^2": F(1, 60),
            "d2^2": F(1, 120),
        },
        F(0),
    ),
]


def m4_relations() -> tuple[list[str], RationalMatrix, list[Fraction]]:
    """The 13 genus-4 relations: source tags, 13 x 14 coefficient matrix in
    the M4_LABELS order, and the right-hand sides."""
    pos = {name: t for t, name in enumerate(M4_LABELS)}
    rows = [{pos[name]: v for name, v in coeffs.items()} for _, coeffs, _ in _M4_ROWS]
    tags = [tag for tag, _, _ in _M4_ROWS]
    rhs = [b for _, _, b in _M4_ROWS]
    return tags, RationalMatrix.from_sparse(rows, len(M4_LABELS)), rhs


def m4_class() -> dict[str, Fraction]:
    """Coefficients of the genus-4 hyperelliptic class; doubling them clears
    every denominator."""
    return {
        "k2": F(27, 2),
        "l^2": F(-339, 2),
        "ld0": F(32),
        "ld1": F(45),
        "ld2": F(3),
        "d0^2": F(-1, 2),
        "d0d1": F(-4),
        "d1^2": F(15, 2),
        "d1d2": F(3),
        "d2^2": F(9, 2),
        "d00": F(-2),
        "g1": F(-3),
        "d01a": F(3, 2),
        "d1_1": F(-18),
    }


def m4_rank_relation() -> list[Fraction]:
    """The unique linear relation among the 14 genus-4 generators, in the
    M4_LABELS order."""
    return [
        F(v)
        for v in (60, -810, 156, 252, 0, -3, -24, 24, 0, 0, -9, -12, 7, -84)
    ]


# ---------------------------------------------------------------------------
# Checks.


def _compare_expressions(name: str, expected: ClassExpression, actual: ClassExpression) -> CheckReport:
    mism = actual.diff(expected)
    diff = [{"label": lab, "actual": str(a), "expected": str(b)} for lab, a, b in mism]
    return CheckReport(
        check=name,
        status="pass" if not mism else "fail",
        expected=f"{basis_dimension(expected.genus)} coefficients equal",
        actual="all equal" if not mism else f"{len(mism)} mismatches",
        diff=diff,
    )


def check_trigonal_table() -> CheckReport:
    """Solve the genus-6 system at k = 3 and compare with the known table."""
    return _compare_expressions("trigonal-table", known_trigonal_class(), solve_class(3))


def check_closed_form(k: int) -> CheckReport:
    """Solve the genus-2k system at degree k and compare with the closed
    formula, label by label.  The closed formula's k >= 3 domain is checked
    first."""
    expected = _closed_form(k)
    return _compare_expressions(f"closed-form[k={k}]", expected, solve_class(k))


def check_pullback(k: int) -> CheckReport:
    """The pull-back of the degree-k class must vanish on D00, (a), (b), (d);
    the (c) coordinate is reported."""
    image = pullback_image(_closed_form(k))
    bad = [
        {"coordinate": PULLBACK_BASIS[t], "value": str(image[t])}
        for t in (0, 1, 2, 4)
        if image[t] != 0
    ]
    return CheckReport(
        check=f"pullback[k={k}]",
        status="pass" if not bad else "fail",
        expected="zero on D00, (a), (b), (d)",
        actual={"(c)": str(image[3])} if not bad else f"{len(bad)} nonzero coordinates",
        diff=bad,
    )


def check_m4() -> CheckReport:
    """Genus-4 hyperelliptic verification: the known class satisfies the 13
    relations, the system has rank 13, and its kernel is spanned by the known
    rank relation.  Rank 13 on 14 columns leaves a one-dimensional kernel,
    so a nonzero r with M r = 0 spans it."""
    tags, matrix, rhs = m4_relations()
    cls = m4_class()
    x = [cls[name] for name in M4_LABELS]
    residues = [
        {"relation": tags[t], "lhs": str(lhs), "rhs": str(rhs[t])}
        for t, lhs in enumerate(matrix.matvec(x))
        if lhs != rhs[t]
    ]
    r = rank(matrix)
    stated = m4_rank_relation()
    kernel_ok = matrix.ncols - r == 1 and any(stated) and not any(matrix.matvec(stated))
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
    report = _compare_expressions("trigonal", known_trigonal_class(), _closed_form(3))
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
    system = build_relations(5)
    matrix = system_matrix(system)
    r = rank(matrix)
    ok = r == 19 and matrix.nrows == 19 and matrix.ncols == 20
    return CheckReport(
        check="g5",
        status="pass" if ok else "fail",
        expected={"rows": 19, "cols": 20, "rank": 19},
        actual={"rows": matrix.nrows, "cols": matrix.ncols, "rank": r},
        notes=["diagnostic", G5_CONVENTION_NOTE],
    )


def _triangularity_diff(report) -> list[dict]:
    """The entries of Q_g * T_g that break the certificate, at most 50 of
    each kind."""
    diff = [{"row": r, "col": c, "value": str(v)} for r, c, v in report.violations[:50]]
    diff.extend({"diagonal": r, "value": "0"} for r in report.zero_diagonal[:50])
    return diff


def check_nonsingular(g: int) -> CheckReport:
    """det(Q_g) != 0, certified without a determinant: P = Q_g * T_g is
    lower-triangular with a nonzero diagonal, so det P = det Q_g det T_g is
    nonzero and so is det Q_g.  Without that certificate the check fails and
    names the rows of P at fault."""
    if g < 6:
        raise ValueError(f"Q_g is square only for g >= 6, got g={g}")
    report = _genus(g).report
    return CheckReport(
        check=f"nonsingular[g={g}]",
        status="pass" if report.ok else "fail",
        expected="det(Q_g) != 0",
        actual="nonzero" if report.ok else "not certified by Q_g * T_g",
        diff=_triangularity_diff(report),
    )


def check_triangularity(g: int) -> CheckReport:
    """Q_g * T_g should be lower-triangular with nonzero diagonal under the
    documented row/column pairing.  The production solve (``solve_class``)
    and the nonsingularity certificate depend on this structure and fail on
    their own without it; this report lists the deviations and stays at
    "warn"."""
    report = _genus(g).report
    return CheckReport(
        check=f"triangularity[g={g}]",
        status="pass" if report.ok else "warn",
        expected="lower-triangular with nonzero diagonal",
        actual={
            "lower_triangular": report.lower_triangular,
            "diagonal_nonzero": report.diagonal_nonzero,
            "order": report.order,
        },
        diff=_triangularity_diff(report),
        notes=["diagnostic: the pairing order is the documented group order"],
    )


def run_all(k_max: int = 6) -> list[CheckReport]:
    """Every check, deterministically ordered by check name.

    The checks run genus by genus, so each genus's system and each degree's
    closed formula are built once, and their memos hold one at a time."""
    if k_max < 3:
        raise ValueError(f"closed formula holds for k >= 3, got k_max={k_max}")
    reports = [check_m4(), check_g5_rank()]
    for g in sorted(set(range(6, 17)) | set(range(6, 2 * k_max + 1, 2))):
        if g == 6:
            reports += [check_trigonal_table(), check_trigonal_interior()]
        if g % 2 == 0 and g // 2 <= k_max:
            reports += [check_closed_form(g // 2), check_pullback(g // 2)]
        if g <= 16:
            reports.append(check_nonsingular(g))
        if g <= 10:
            reports.append(check_triangularity(g))
    reports.sort(key=lambda rep: rep.check)
    return reports
