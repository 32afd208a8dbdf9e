"""Counts of pencils on a general curve with prescribed ramification, and the
aggregate sums that give the nonzero intersection degrees of the test
surfaces.

The point counts (``count_n``, ``count_m``, ``count_ell``) are exact
integers.  The reciprocal-factorial determinant ``castelnuovo_N`` is an exact
rational; it is an integer precisely in the zero-dimensional counting regime
where it counts linear series.

The counting layer computes in integers: ``castelnuovo_N`` is
g! * (C(s,x) - C(s,g-d')) / s!, every term of ``sum_D`` or ``sum_S16`` has
the same s, so each sum divides once, and one memoized function decides when
n_{g,d,alpha} is a count.  ``sum_D`` adds its index pairs by Chu-Vandermonde.
The oracles, the raw determinant ``castelnuovo_general`` and the pairwise
``sum_D_pairs``, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, lru_cache
from math import comb
from operator import mul

from bn2.exactnum import factorial

__all__ = [
    "SchubertIndex",
    "InvalidIndexError",
    "RhoMismatchError",
    "RegimeError",
    "rho",
    "reduce_base_locus",
    "castelnuovo_N",
    "count_n",
    "count_m",
    "count_ell",
    "sum_T",
    "sum_D",
    "sum_S16",
]


class InvalidIndexError(ValueError):
    """A ramification index violates 0 <= a_0 <= ... <= a_r <= d - r."""


class RhoMismatchError(ValueError):
    """The adjusted Brill-Noether number is not the one the count requires."""


class RegimeError(ValueError):
    """After base-locus reduction rho(g,1,d') < 0: the count is not defined on
    a general curve.  Aggregate sums treat such terms as zero contributions;
    direct calls get this distinct error."""


class SchubertIndex(namedtuple("SchubertIndex", "a0 a1")):
    """Ramification pair (a0, a1) of a pencil at a point, with 0 <= a0 <= a1.

    Validity against a degree d additionally means a1 <= d - 1.
    """

    __slots__ = ()

    def __new__(cls, a0: int, a1: int) -> "SchubertIndex":
        if not 0 <= a0 <= a1:
            raise InvalidIndexError(f"need 0 <= a0 <= a1, got ({a0},{a1})")
        return super().__new__(cls, a0, a1)

    @classmethod
    def _make(cls, iterable) -> "SchubertIndex":
        # namedtuple's _make, and so _replace, would skip the check
        return cls(*iterable)

    def check_degree(self, d: int) -> "SchubertIndex":
        if self.a1 > d - 1:
            raise InvalidIndexError(
                f"index ({self.a0},{self.a1}) invalid for degree {d}: a1 > d-1"
            )
        return self


def _index(a) -> SchubertIndex:
    if isinstance(a, SchubertIndex):
        return a
    return SchubertIndex(*a)


def _ram_sequence(seq, r: int, d: int) -> tuple[int, ...]:
    """Validate a ramification sequence of type (r, d)."""
    vals = tuple(int(v) for v in seq)
    if len(vals) != r + 1:
        raise InvalidIndexError(f"need {r + 1} ramification entries, got {vals}")
    if vals[0] < 0 or any(vals[t] > vals[t + 1] for t in range(r)) or vals[-1] > d - r:
        raise InvalidIndexError(f"sequence {vals} invalid for type r={r}, d={d}")
    return vals


def rho(g: int, r: int, d: int, ramifications: Sequence = ()) -> int:
    """Adjusted Brill-Noether number g - (r+1)(g-d+r) - sum of all prescribed
    ramification weights."""
    if g < 0 or d < 1:
        raise ValueError(f"need g >= 0 and d >= 1, got g={g}, d={d}")
    total = g - (r + 1) * (g - d + r)
    for seq in ramifications:
        total -= sum(_ram_sequence(seq, r, d))
    return total


def reduce_base_locus(d: int, alpha, beta):
    """Remove the forced base locus a0*p + b0*q from a degree-d pencil.

    Returns (d', alpha', beta') with d' = d - a0 - b0 and both indices shifted
    to start at 0.  The reduction is arithmetic: the shifted indices are not
    revalidated against the smaller degree (the two-point count formulas
    evaluate correctly either way); only exhausting the pencil is an error.
    """
    a = _index(alpha).check_degree(d)
    b = _index(beta).check_degree(d)
    dp = d - a.a0 - b.a0
    if dp < 1:
        raise InvalidIndexError(f"base locus exhausts the pencil: d'={dp}")
    return dp, SchubertIndex(0, a.a1 - a.a0), SchubertIndex(0, b.a1 - b.a0)


def _binom(n: int, r: int) -> int:
    """C(n, r), and 0 outside 0 <= r <= n."""
    return comb(n, r) if 0 <= r <= n else 0


def _castelnuovo_num(gd: int, a1: int, b1: int) -> tuple[int, int]:
    """(num, s) with N = g! * num / s! for gd = g - d' and the reduced tops
    a1, b1; C(n, r) = 0 outside 0 <= r <= n is the zero convention for
    reciprocal factorials of negative arguments, and num = 0 when s < 0."""
    x = a1 + 1 + gd
    s = x + b1 + 1 + gd
    return _binom(s, x) - _binom(s, gd), s


def castelnuovo_N(g: int, d: int, alpha, beta=SchubertIndex(0, 0)) -> Fraction:
    """Pencil count with ramification alpha at p and beta at q (r = 1).

    Subtracts the base locus a0*p + b0*q and evaluates the two-term
    reciprocal-factorial expansion over one denominator s!; a route
    independent of the raw determinant (the test oracle
    ``castelnuovo_general``), which it must always equal.  With beta
    omitted this is the single-point count.
    """
    a = _index(alpha).check_degree(d)
    b = _index(beta).check_degree(d)
    scale = factorial(g)
    num, s = _castelnuovo_num(g - (d - a.a0 - b.a0), a.a1 - a.a0, b.a1 - b.a0)
    return Fraction(scale * num, factorial(s)) if num else Fraction(0)


# _pencil_count codes for an index whose n_{g,d,alpha} is not a count
_RHO_MISMATCH = -1
_BELOW_REGIME = -2


@lru_cache(maxsize=None)
def _pencil_count(g: int, d: int, a0: int, a1: int) -> int:
    """n_{g,d,(a0,a1)} if it is a count, else the code of the failed
    condition.  The one home of the counting regime: the sums skip values
    <= 0 and count_n/count_m raise on them."""
    if rho(g, 1, d, [(a0, a1)]) != -1:
        return _RHO_MISMATCH
    dp = d - a0
    if 2 * dp - g - 2 < 0:
        return _BELOW_REGIME
    lead = 2 * dp - g - 1  # equals a1 - a0, >= 1 here
    return lead * (lead + 1) * (lead + 2) * comb(g, dp)


def count_n(g: int, d: int, alpha) -> int:
    """Number of (moving point, pencil) pairs on a general genus-g curve with
    ramification alpha at the point, in the adjusted-rho = -1 regime.

    After removing the a0-fold base point (d' = d - a0) the count is
    (2d'-g-1)(2d'-g)(2d'-g+1) * C(g, d').  Raises RhoMismatchError unless
    rho(g,1,d,alpha) = -1, and RegimeError when rho(g,1,d') < 0 -- the case
    where the leading factor 2d'-g-1 would be <= 0 and no such pencils exist
    on a general curve.
    """
    a = _index(alpha).check_degree(d)
    value = _pencil_count(g, d, a.a0, a.a1)
    if value == _RHO_MISMATCH:
        raise RhoMismatchError(
            f"count_n needs adjusted rho = -1, got rho({g},1,{d},{(a.a0, a.a1)}) = "
            f"{rho(g, 1, d, [a])}"
        )
    if value == _BELOW_REGIME:
        raise RegimeError(f"rho({g},1,{d - a.a0}) < 0 after base-locus reduction")
    return value


def count_m(g: int, d: int, alpha) -> int:
    """Number of (x, y, pencil) triples with ramification alpha at x and a
    simple ramification at y, in the adjusted-rho = -2 regime.

    Fixing one of the count_n points x, the second moving point contributes a
    factor 3g - 1.
    """
    a = _index(alpha).check_degree(d)
    value = _pencil_count(g, d, a.a0, a.a1)
    _ram_sequence((0, 1), 1, d)  # the simple ramification needs d >= 2
    if value == _RHO_MISMATCH:
        raise RhoMismatchError(
            f"count_m needs adjusted rho = -2, got rho({g},1,{d},{(a.a0, a.a1)},(0,1)) = "
            f"{rho(g, 1, d, [a, (0, 1)])}"
        )
    return count_n(g, d, a) * (3 * g - 1)


def count_ell(g: int, k: int) -> int:
    """Degree of the one-nodal family against the pointed pencil divisor:
    ell_{2,2} = 2, and for g = 2k - 2 > 2 it equals 2 (2k-3)! / ((k-2)!(k-1)!).
    """
    if k < 2 or g != 2 * k - 2:
        raise ValueError(f"count_ell needs g = 2k-2 with k >= 2, got g={g}, k={k}")
    if k == 2:
        return 2
    return 2 * comb(2 * k - 3, k - 2)


def _counted(i: int, k: int, w: int) -> list[tuple[int, int, int]]:
    """(a0, a1, n_{i,k,(a0,a1)}) for a0 <= a1 <= k-1 of weight w where n counts."""
    if k < 1:  # the one degree check of sum_T, sum_D and sum_S16
        raise ValueError(f"need k >= 1, got k={k}")
    pairs = [(a0, w - a0) for a0 in range(k) if a0 <= w - a0 <= k - 1]
    return [(a0, a1, n) for a0, a1 in pairs if (n := _pencil_count(i, k, a0, a1)) > 0]


def _as_count(numerator: int, s: int, what: str) -> int:
    """numerator / s!, which must be an integer."""
    count, rest = divmod(numerator, factorial(s))
    if rest:
        q = Fraction(numerator, factorial(s))
        raise ArithmeticError(f"{what} is not integral ({q}); it only counts points when g = 2k")
    return count


def sum_T(i: int, g: int, k: int) -> int:
    """Sum over a0 + a1 = 2k - i - 1 of
    n_{i,k,(a0,a1)} * n_{g-i,k,(k-1-a1,k-1-a0)}.

    Indices whose factors fall outside their counting regime contribute 0.
    """
    if not 2 <= i <= g // 2:
        raise ValueError(f"sum_T needs 2 <= i <= g/2, got i={i}, g={g}")
    total = 0
    for a0, a1, na in _counted(i, k, 2 * k - i - 1):
        total += na * max(_pencil_count(g - i, k, k - 1 - a1, k - 1 - a0), 0)
    return total


def _genus_vector(i: int, g: int, k: int, alpha: bool) -> list[int]:
    """F_i if alpha, else G_i (see sum_D), at k-1 <= m < g, index m-k+1, with
    C(s_i, X-m) = C(s_i, m-2k+1+a0) and the generalized C(q, r) for q < 0."""
    counted = _counted(i, k, 2 * k - i - 1)  # rejects k < 1 before g - k grows large
    q = g - k - i
    row = [comb(q, r) if q >= 0 else (-1) ** r * comb(r - q - 1, r) for r in range(g - k + 1)]
    vec = [0] * (g - k + 1)
    for a0, a1, n in counted:
        terms = ((n, 2 * k - 1 - a0), (-n, 2 * k - 2 - a1)) if alpha else ((n, i + a1),)
        for weight, start in terms:  # start >= k-1
            for m, c in zip(range(start - k + 1, g - k + 1), row):
                vec[m] += weight * c
    return vec


def _sum_D_table(g: int, k: int):
    """sum_D(i, j, g, k) for admissible (i, j), building each genus's vector
    once: the D and D6 rows of one degree cost O(g^3) in all."""
    vector = cache(lambda i, alpha: _genus_vector(i, g, k, alpha))

    def value(i: int, j: int) -> int:
        s = 2 * (g - k) - i - j
        if s < 0:
            return 0
        total = sum(map(mul, vector(i, True), vector(j, False)))
        return _as_count(factorial(g - i - j) * total, s, f"sum_D({i},{j},{g},{k})")

    return value


def sum_D(i: int, j: int, g: int, k: int) -> int:
    """Sum over rho = -1 indices alpha (genus i) and beta (genus j) of
    n_{i,k,alpha} * n_{j,k,beta} * N_{g-i-j,k,comp(alpha),comp(beta)}.

    comp(a0, a1) = (k-1-a1, k-1-a0) gives every N the same s = s_i + s_j,
    s_i = g-k-i, s_j = g-k-j, and splits x and g - d' into X = g-i+k-1-a0 and
    X' = X-1-a1+a0 plus Y = -j-b1.  By Chu-Vandermonde C(s, X+Y) = sum_m
    C(s_i, X-m) C(s_j, Y+m), so the sum is (g-i-j)! <F_i, G_j> / s! with
    F_i[m] = sum n_alpha (C(s_i, X-m) - C(s_i, X'-m)), G_j[m] = sum n_beta
    C(s_j, Y+m).  That is the one route: s < 0 makes every binomial vanish,
    and s >= 0 gives s_i >= 0 as i <= j, so the sum over m is finite."""
    if not (2 <= i <= j <= g - 3 and i + j <= g - 1):
        raise ValueError(
            f"sum_D needs 2 <= i <= j <= g-3 and i+j <= g-1, got i={i}, j={j}, g={g}"
        )
    return _sum_D_table(g, k)(i, j)


def sum_S16(i: int, g: int, k: int) -> int:
    """Sum over a0 + a1 = g - i - 1 of
    m_{i,k,(a0,a1)} * N_{g-i-1,k,(k-1-a1,k-1-a0)}.

    For i = g - 2 the relation uses m_{g-2,k,(0,1)} directly instead.
    The reduced N has g - d' = g-i-2-a1 and s = g-i-1 for every term.
    """
    if not g // 2 <= i <= g - 3:
        raise ValueError(f"sum_S16 needs g/2 <= i <= g-3, got i={i}, g={g}")
    h = g - i - 1
    total = sum(n * _castelnuovo_num(h - 1 - a1, a1 - a0, 0)[0] for a0, a1, n in _counted(i, k, h))
    return _as_count(factorial(h) * (3 * i - 1) * total, h, f"sum_S16({i},{g},{k})")
