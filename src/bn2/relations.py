"""Test-surface relation rows, their right-hand sides and their T_g columns.

Each of the eighteen families of test surfaces is written once, as a group
of rows; a row stores exact integer coefficients keyed by column in the
frozen basis order, a right-hand-side descriptor that evaluates to an
integer (any other value is an internal error) once the pencil degree k,
with g = 2k, is fixed, and the column of the triangularizing T_g paired with
it.  Each term is written as its column by ``basis.columns`` (which also
sorts a boundary pair and maps la(g-2) to ld2), and coincident columns
accumulate additively, which is what collapses repeated terms at small g.

This is the data layer: it builds no matrix and imports no solver, so
``bn2 matrix`` loads no linear algebra.  ``bn2.triangular`` reads T_g from
the rows and builds Q_g, P and the solve, and ``bn2.export`` writes the CSV
and JSON of Q_g and T_g; ``describe_rhs`` and ``_json_string`` stay here,
for the exports and the verify reports alike.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial

from bn2.basis import basis_dimension, columns
from bn2.enumerative import (
    _castelnuovo_num,
    _sum_D_table,
    count_ell,
    count_m,
    count_n,
    sum_S16,
    sum_T,
)

__all__ = [
    "Rhs",
    "Relation",
    "RelationSystem",
    "build_relations",
    "evaluate_rhs",
    "describe_rhs",
    "build_rhs_vector",
]

class Rhs(namedtuple("Rhs", "kind i j", defaults=(0, 0))):
    """Right-hand-side descriptor, evaluable once k is fixed; its kind is a
    key of ``_RHS``, which gives its count, divisor and text."""

    __slots__ = ()


class Relation(namedtuple("Relation", "source g coefficients rhs column tag", defaults=[None] * 2)):
    """One test-surface row: source tag, nonzero integer coefficients keyed
    by column in the frozen basis order, RHS descriptor and, for a core row of
    ``build_relations``, a function that writes the T_g column paired with it
    (a short column's dict ``copy``; a long one, as T14 of ~g^2/4 entries, is
    built only when T_g is read) and that column's tag if its family names one."""

    __slots__ = ()


def _s2_pairs(g: int):
    """The (i, j) of the S2 rows, 2 <= i <= j and i + j <= g - 1, in column order."""
    return ((i, j) for i in range(2, (g + 1) // 2) for j in range(i, g - i))


def _s2_count(g: int) -> int:
    """The count of ``_s2_pairs(g)``."""
    return sum(g - 2 * i for i in range(2, (g + 1) // 2))


_S2_SOURCE = "S2[i={},j={}]".format  # the source tag of the S2 row of (i, j)

# the S2 row of (i, j) is {k1^2: 2, d(i,j): 1}, stated here once as its
# (k1^2, d(i,j)) coefficients: the views write it and the solve's residual reads it
_S2_ROW = (2, 1)

# the (k1^2, d(i,j)) coefficients of T14, the one column of T_g other than
# T2[i,j] = {d(i,j): 1} that the S2 rows of Q_g meet (``triangular._Genus.s2``)
_S2_T14 = (6, -12)


class RelationSystem(namedtuple("RelationSystem", "g core s2")):
    """The core rows of genus g, and at the index range s2 the S2 rows, one
    ``_S2_ROW`` with rhs D(i,j) per pair of ``_s2_pairs``.  The
    S2 rows are written only by the views, each only the part it returns;
    no package code reads ``rows``, the library view of Relations.  A nonempty
    s2 is a range of step 1, starting within the core, with one index per pair."""

    __slots__ = ()

    def __new__(cls, g: int, core: list, s2: range = range(0)) -> "RelationSystem":
        pairs = _s2_count(g)
        if s2 and (s2.step != 1 or s2.start > len(core) or len(s2) != pairs):
            raise ValueError(
                f"s2 must be range(a, a + {pairs}) with a <= {len(core)} at g={g}, got {s2!r}"
            )
        return super().__new__(cls, g, core, s2)

    @classmethod
    def _make(cls, iterable) -> "RelationSystem":
        # namedtuple's _make, and so _replace, would skip the check
        return cls(*iterable)

    def _spliced(self, core: list, s2) -> list:
        """The core rows' items core with the S2 rows' items s2 written in."""
        at = self.s2.start
        return [*core[:at], *s2, *core[at:]] if self.s2 else core

    @property
    def s2_coefficients(self) -> list[dict[int, int]]:
        """The coefficient dicts of the S2 rows, in order: none for an empty s2."""
        if not self.s2:  # a hand-built system, whose g need not have columns
            return []
        (K1SQ, *_, dd, _), (a, e) = columns(self.g), _S2_ROW
        return [{K1SQ: a, dd(i, j): e} for i, j in _s2_pairs(self.g)]

    @property
    def sources(self) -> list[str]:
        """The source tag of every row in group order; no S2 row is built."""
        s2 = (_S2_SOURCE(i, j) for i, j in _s2_pairs(self.g))
        return self._spliced([rel.source for rel in self.core], s2)

    @property
    def coefficients(self) -> list[dict[int, int]]:
        """The coefficient dict of every row in group order."""
        return self._spliced([rel.coefficients for rel in self.core], self.s2_coefficients)

    @property
    def t_tags(self) -> list[str]:
        """The tags of T_g's columns: a row's own, or its source with T for S; builds no S2 row."""
        core = [rel.tag or "T" + rel.source[1:] for rel in self.core]
        return self._spliced(core, ("T" + _S2_SOURCE(i, j)[1:] for i, j in _s2_pairs(self.g)))

    @property
    def rows(self) -> list[Relation]:
        """Every row in group order, the S2 rows written in at s2."""
        if not self.s2:  # a hand-built system, whose g need not have columns
            return self.core
        g = self.g
        s2 = (
            Relation(_S2_SOURCE(i, j), g, coeffs, Rhs("D", i, j))
            for (i, j), coeffs in zip(_s2_pairs(g), self.s2_coefficients)
        )
        return self._spliced(self.core, s2)


def build_relations(g: int) -> RelationSystem:
    """All relation rows for genus g with their T_g columns, in the frozen group order.

    For g >= 6 the system is square of order basis_dimension(g); for g = 5
    the S10 row does not exist and the system is 19 x 20.
    """
    if g < 5:
        raise ValueError(f"relations are defined for g >= 5, got g={g}")
    rows: list[Relation] = []
    # each name is a column of the genus-g basis, or a function to one
    K1SQ, K2, D0SQ, LD0, D1SQ, LD1, LD2, om, la, dd, th = columns(g)
    d0g1, d00, d01, d11 = dd(0, g - 1), dd(0, 0), dd(0, 1), dd(1, 1)  # in the T_g columns

    def add(source: str, rhs: Rhs, terms: list, column, tag: str | None = None) -> None:
        acc = dict(terms)
        if len(acc) < len(terms):  # terms that share a column are summed, and a zero sum dropped
            acc = dict.fromkeys(acc, 0)
            for c, coeff in terms:
                acc[c] += coeff
            acc = {c: v for c, v in acc.items() if v}
        rows.append(Relation(source, g, acc, rhs, column, tag))

    def om_pairs(col: dict[int, int], scale: int) -> dict[int, int]:
        """col plus scale * 6 (g - 2s) (om(g-s) - om(s)) for 2 <= s <= g/2, zeros dropped."""
        for s in range(2, g // 2 + 1):
            w = scale * 6 * (g - 2 * s)
            hi, lo = om(g - s), om(s)
            col[hi] = col.get(hi, 0) + w
            col[lo] = col.get(lo, 0) - w
        return {c: v for c, v in col.items() if v != 0}

    # S1: two moving points glued, genus i + (g-i).
    for i in range(2, g // 2 + 1):
        add(f"S1[i={i}]", Rhs("T", i), [(K1SQ, 2), (om(i), -1), (om(g - i), -1)], {om(i): 1}.copy)

    # S2: two moving tails on a fixed two-pointed curve (RelationSystem).
    s2 = range(len(rows), len(rows) + _s2_count(g))

    # S3: elliptic curve glued to itself and to a moving point.
    add(
        "S3",
        Rhs("n_over"),
        [(K1SQ, 4), (om(2), -1), (om(g - 2), -1), (dd(1, g - 2), -1), (dd(0, g - 2), 2)],
        {dd(1, g - 2): 1}.copy,
    )

    # S4: self-glued elliptic curve, fixed middle curve, moving tail.
    for i in range(2, g - 2):
        add(
            f"S4[i={i}]",
            Rhs("D6", i),
            [(K1SQ, 4), (dd(1, i), -1), (dd(0, i), 2), (dd(2, i), 1)],
            {dd(1, i): 1}.copy,
        )

    # S5: pencil of plane cubics glued to a moving point.
    add("S5", Rhs("zero"), [(K1SQ, 2), (dd(0, g - 1), -12), (D1SQ, 2), (LD1, -1)], {d0g1: 1}.copy)

    # S6: elliptic pencil tail plus a moving tail on a fixed curve; at
    # i = g-2 the column la(g-2) is ld2.
    for i in range(3, g - 1):
        add(
            f"S6[i={i}]",
            Rhs("zero"),
            [(K1SQ, 2), (la(i), -1), (dd(1, g - i), 1), (dd(0, g - i), -12)],
            {la(i): 1}.copy,
            "T6[ld2]" if i == g - 2 else None,
        )

    # S7: two self-glued elliptic curves on a fixed two-pointed curve.
    add(
        "S7",
        Rhs("4N"),
        [
            (K1SQ, 8),
            (dd(2, 2), 1),
            (dd(1, 2), -2),
            (dd(1, 1), 1),
            (D1SQ, 2),
            (D0SQ, 8),
            (dd(0, 0), 4),
            (dd(0, 2), 4),
            (dd(0, 1), -4),
        ],
        {dd(1, 1): 1}.copy,
    )

    # S8: two elliptic pencil tails on a fixed curve.
    add(
        "S8",
        Rhs("zero"),
        [
            (K1SQ, 2),
            (D0SQ, 288),
            (LD0, 24),
            (D1SQ, 2),
            (LD1, -2),
            (dd(0, 0), 144),
            (dd(1, 1), 1),
            (dd(0, 1), -24),
        ],
        {LD0: 1}.copy,
    )

    # S9: rational spine with two elliptic tails, fixed tail, moving tail.
    for j in range(2, g - 2):
        add(
            f"S9[j={j}]",
            Rhs("zero"),
            [
                (K1SQ, 2),
                (dd(1, j), 2),
                (dd(j, g - j - 2), 1),
                (dd(2, j), -1),
                (dd(j, g - j - 1), -2),
                (om(j), -1),
                (om(g - j), -1),
            ],
            {dd(1, j): 2, dd(0, j): 1, la(g - j): -10}.copy,
        )

    # S10: two rational spines glued at moving points (g >= 6 only); at g = 6
    # the d1^2 coefficient is 18 rather than 12.
    if g >= 6:
        add(
            "S10",
            Rhs("zero"),
            [
                (K1SQ, 2),
                (D1SQ, 18 if g == 6 else 12),
                (dd(1, 1), 6),
                (dd(1, g - 5), 3),
                (dd(1, 3), 2),
                (dd(3, g - 5), 1),
                (dd(1, g - 3), 3),
                (om(3), -1),
                (om(g - 3), -1),
                (dd(2, g - 3), -3),
                (dd(2, g - 5), -3),
                (dd(1, 2), -6),
                (dd(1, g - 4), -6),
                (dd(3, g - 4), -2),
                (dd(1, 2), -3),
                (dd(2, 3), -1),
                (dd(2, g - 4), 6),
                (dd(2, 2), 3),
            ],
            {LD1: 60, D1SQ: 12, d0g1: -3, d01: 8, d00: 2}.copy,
        )

    # S11: elliptic pencil tail and a moving point on a rational spine.
    add(
        "S11",
        Rhs("zero"),
        [
            (K1SQ, 2),
            (la(g - 3), -1),
            (D1SQ, 6),
            (dd(1, 1), 3),
            (LD1, -3),
            (dd(1, 3), 1),
            (dd(0, 1), -36),
            (dd(0, 3), -12),
            (LD2, 3),
            (dd(0, 2), 36),
            (dd(1, 2), -3),
        ],
        {LD1: 12, LD0: 1, d0g1: -1}.copy,
    )

    # S12: rational spine carrying an elliptic pencil, glued to a moving point.
    add(
        "S12",
        Rhs("zero"),
        [
            (K1SQ, 2),
            (LD1, -3),
            (dd(0, 1), -24),
            (dd(0, g - 3), -12),
            (dd(0, g - 1), -12),
            (D1SQ, 6),
            (dd(1, 1), 2),
            (dd(1, g - 3), 1),
            (la(3), -1),
            (LD2, 2),
            (dd(0, g - 2), 24),
            (dd(1, g - 2), -2),
            (LD2, 1),
            (dd(0, 2), 12),
            (dd(1, 2), -1),
        ],
        {dd(0, g - 2): 1, dd(1, g - 2): 2}.copy,
    )

    # S13: self-glued curve and self-glued elliptic curve, joined at a point.
    c13 = g - 3
    add(
        "S13",
        Rhs("2ell"),
        [
            (K1SQ, 8 * c13),
            (dd(0, 0), 4 * c13),
            (D0SQ, 8 * c13),
            (dd(0, 2), 2 * c13),
            (dd(0, g - 2), 2),
            (om(2), -1),
            (om(g - 2), -1),
            (dd(0, 1), -2 * c13),
            (dd(1, g - 2), -1),
            (dd(0, 1), -2),
            (dd(1, 2), -1),
            (dd(1, 1), 1),
            (D1SQ, 2),
        ],
        {LD1: 12, LD0: 6, d0g1: -1, d01: -1, d00: -1}.copy,
    )

    def t14() -> dict[int, int]:
        """The column T14, whose k1^2 and d(i,j) entries are ``_S2_T14``."""
        a, e = _S2_T14
        col = {K1SQ: a, LD0: 72, LD1: 144, LD2: 144}
        if g % 2 == 0:
            # the self-paired middle class; absent for odd g, where every pair
            # {s, g-s} is already covered by the loop below
            col[om(g // 2)] = 6
        for s in range(2, (g + 1) // 2):  # s < g/2
            col[om(s)] = 12
        for s in range(3, g - 2):
            col[la(s)] = 144
        for c in range(d00, th(1)):  # the d(i,j) generators are one run of columns
            col[c] = e
        col[d0g1] = -11
        return col

    # S14: self-glued curve carrying an elliptic pencil tail.
    w14 = 2 * g - 4
    add(
        "S14",
        Rhs("zero"),
        [
            (K1SQ, 2 * w14),
            (LD0, -w14),
            (D0SQ, -24 * w14),
            (dd(0, 0), -12 * w14),
            (dd(0, 1), w14),
            (dd(0, g - 1), -12),
            (dd(0, 1), 12),
            (dd(1, 1), -1),
        ],
        t14,
    )

    # S15: curve glued to itself along two moving points.
    add(
        "S15",
        Rhs("zero"),
        [
            (K1SQ, 8 * g * g - 26 * g + 20),
            (K2, 2 * g - 4),
            (D1SQ, 4 - 2 * g),
            (D0SQ, 8 * (g - 1) * (g - 2)),
        ],
        {K2: 1}.copy,
    )

    # S16: elliptic curve and fixed tail attached at two moving points.
    for i in range(g // 2, g - 2):
        add(
            f"S16[i={i}]",
            Rhs("S16", i),
            [
                (K1SQ, 4 * i - 1),
                (K2, 1),
                (om(i), 1),
                (om(i + 1), -1),
                (D1SQ, 1),
                (dd(1, g - i - 1), 2 * i - 1),
            ],
            {om(i + 1): 1, om(g - i - 1): -1}.copy,
        )
    add(
        f"S16[i={g - 2}]",
        Rhs("S16sp"),
        [(K1SQ, 4 * g - 9), (K2, 1), (om(g - 2), 1), (D1SQ, 4 * g - 8), (dd(1, 1), 2 * g - 5)],
        lambda: om_pairs(
            {D1SQ: 12 * (g - 1), d11: -24 * (g - 1), d0g1: 2 * (g - 1), D0SQ: 3, d00: -6}, g - 1
        ),
        "T16[sum]",
    )

    # S17: two-pointed elliptic bridge moving in a pencil.
    add(
        "S17",
        Rhs("zero"),
        [
            (K1SQ, 3),
            (K2, 1),
            (LD0, -2),
            (LD1, 1),
            (D0SQ, -44),
            (D1SQ, -1),
            (dd(0, g - 1), 12),
            (dd(0, 0), -12),
            (th(1), 1),
        ],
        lambda: om_pairs(
            {K2: 6 * g, D1SQ: 12 - 6 * g, d11: 12 * (g - 2), D0SQ: -3, d0g1: 2 - g, d00: 6}, 1
        ),
    )

    # S18: central elliptic curve of a two-tailed chain moving in a pencil;
    # i = 3 follows the larger i, and its column la(g-2) is ld2.
    for i in (*range(4, (g + 1) // 2 + 1), 3):
        add(
            f"S18[i={i}]",
            Rhs("zero"),
            [
                (K1SQ, 3),
                (K2, 1),
                (om(i), -1),
                (om(g - i + 1), -1),
                (D1SQ, -1),
                (dd(i - 1, g - i), 1),
                (la(i), -1),
                (la(g - i + 1), -1),
                (LD1, 1),
                (dd(0, i - 1), -12),
                (dd(0, g - i), -12),
                (dd(0, g - 1), 12),
                (th(i - 1), 12),
            ],
            {th(i - 1): 1}.copy,
            "T18[th2]" if i == 3 else None,
        )
    add(
        "S18[i=2]",
        Rhs("zero"),
        [
            (K1SQ, 3),
            (K2, 1),
            (om(2), -1),
            (dd(1, g - 2), 1),
            (LD2, -1),
            (dd(0, 1), -12),
            (dd(0, g - 2), -12),
            (dd(0, g - 1), 12),
            (th(1), 12),
        ],
        lambda: om_pairs(
            {
                K2: -6 * g,
                D1SQ: 6 * g - 12,
                d11: 12 * (2 - g),
                D0SQ: 3,
                d0g1: g - 2,
                d00: -6,
                th(1): 72,
            },
            -1,
        ),
        "T18[final]",
    )

    built, expected = len(rows) + len(s2), basis_dimension(g) - (1 if g == 5 else 0)
    if built != expected:
        raise RuntimeError(f"internal error: built {built} rows at g={g}, expected {expected}")
    return RelationSystem(g, rows, s2)


def _quotient(num: int, den: int, k: int, row, *at) -> int:
    """num / den, exactly: a remainder is an internal error naming k and the row row(*at)."""
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"internal error: rhs of {row(*at)} at k={k} is {num}/{den}, not an integer")
    return q


def _four_N(g: int, k: int, source: str) -> int:
    """4 N_{g-4,k,(0,1),(0,1)} of the row source: ``castelnuovo_N``'s (g-4)! num / s!, exactly."""
    num, s = _castelnuovo_num(g - 4 - k, 1, 1)
    return _quotient(4 * factorial(g - 4) * num, factorial(s), k, str, source) if num else 0


# The right-hand side of a row, by its kind: a count over a divisor, each a
# function of the row's (g, i, j), the count at degree k reading that degree's
# sum_D table d and (for 4N's division) its source row, and the symbolic text,
# formatted with i, j, g2 = g - 2 and g4 = g - 4; evaluation builds no text.
_RHS = {
    "zero": (lambda g, i, j, k, d, row: 0, lambda g, i, j: 1, "0"),
    "T": (
        lambda g, i, j, k, d, row: sum_T(i, g, k), lambda g, i, j: 4 * (i - 1) * (g - i - 1), "T({i})"
    ),
    "D": (lambda g, i, j, k, d, row: d(i, j), lambda g, i, j: 4 * (i - 1) * (j - 1), "D({i},{j})"),
    "n_over": (
        lambda g, i, j, k, d, row: count_n(g - 2, k, (0, 1)), lambda g, i, j: g - 3, "n({g2},(0,1))"
    ),
    "D6": (lambda g, i, j, k, d, row: d(2, i), lambda g, i, j: 6 * (i - 1), "D(2,{i})"),
    "4N": (lambda g, i, j, k, d, row: _four_N(g, k, row), lambda g, i, j: 1, "4*N({g4},(0,1),(0,1))"),
    "2ell": (lambda g, i, j, k, d, row: 2 * count_ell(g - 2, k), lambda g, i, j: 1, "2*ell({g2})"),
    "S16": (lambda g, i, j, k, d, row: sum_S16(i, g, k), lambda g, i, j: 2 * i - 2, "S16({i})"),
    "S16sp": (
        lambda g, i, j, k, d, row: count_m(g - 2, k, (0, 1)), lambda g, i, j: 2 * g - 6, "m({g2},(0,1))"
    ),
}


def _evaluate(rel: Relation, k: int, d_sums) -> int:
    g, (kind, i, j) = rel.g, rel.rhs
    if kind not in _RHS:
        raise ValueError(f"unknown rhs kind {kind!r}")
    count, divisor, _ = _RHS[kind]
    if kind != "zero" and g != 2 * k:
        raise ValueError(f"rhs of {rel.source} needs g = 2k, got g={g}, k={k}")
    return _quotient(count(g, i, j, k, d_sums, rel.source), divisor(g, i, j), k, str, rel.source)


def evaluate_rhs(rel: Relation, k: int) -> int:
    """The right-hand side of a relation at degree k, an int.  Zero
    descriptors evaluate for any genus; the nonzero ones need g = 2k."""
    return _evaluate(rel, k, _sum_D_table(k))


def _rhs_text(g: int, kind: str, i: int, j: int) -> str:
    """The symbolic right-hand side of the genus-g descriptor (kind, i, j)."""
    if kind not in _RHS:
        raise ValueError(f"unknown rhs kind {kind!r}")
    _, divisor, template = _RHS[kind]
    text = template.format(i=i, j=j, g2=g - 2, g4=g - 4)
    div = divisor(g, i, j)
    return text if div == 1 else f"{text}/{div}"


def describe_rhs(rel: Relation) -> str:
    """Symbolic form of the right-hand side, for exports without a fixed k."""
    return _rhs_text(rel.g, *rel.rhs)


def build_rhs_vector(system: RelationSystem, k: int) -> list[int]:
    """b_k: every right-hand side at degree k, the S2 rows' in one loop.  The
    D and D6 counts share one sum_D table, which builds each E_r(j) once."""
    g, d_sums = system.g, _sum_D_table(k)
    b = [_evaluate(rel, k, d_sums) for rel in system.core]
    if system.s2 and g != 2 * k:
        raise ValueError(f"rhs of the S2 rows needs g = 2k, got g={g}, k={k}")
    _, div, _ = _RHS["D"]
    s2 = (_quotient(d_sums(i, j), div(g, i, j), k, _S2_SOURCE, i, j) for i, j in _s2_pairs(g))
    return system._spliced(b, s2)


def _json_string(text: str) -> str:
    """text as ``json.dumps`` writes it.

    bn2 builds every string it exports from ASCII templates and integers, so
    none holds a character that ``json.dumps`` escapes (a double quote, a
    backslash, a control or a non-ASCII character), and each is written
    between double quotes as it is, without loading ``json``.  Each string is
    checked on its own: only one of a row built by hand can need json's escaping."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)

