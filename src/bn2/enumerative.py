"""Counts of pencils on a general curve with prescribed ramification, and the
aggregate sums that give the nonzero intersection degrees of the test
surfaces.

The point counts (``count_n``, ``count_m``, ``count_ell``) are exact
integers.  The reciprocal-factorial determinant ``castelnuovo_N`` is an exact
rational; it is an integer precisely in the zero-dimensional counting regime
where it counts linear series.

The counting layer computes in integers: ``castelnuovo_N`` is
g! * (C(s,x) - C(s,g-d')) / s!, the sums walk the counted indices of one weight
directly, and ``sum_D`` costs four integer products per index pair at g = 2k.
The oracles, the raw determinant ``castelnuovo_general``, the pairwise
``sum_D_pairs`` and the vector route ``sum_D_vectors``, are in ``tests/oracles.py``.

A count that needs a factorial of an argument, or a binomial of a smaller
index, beyond ``sys.maxsize`` (``math.factorial`` and ``math.comb`` refuse
both, and no memory holds the value) raises a ValueError that names the count
and its argument (``_in_reach``).
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence
from functools import cache
from math import comb, factorial

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
    return a if isinstance(a, SchubertIndex) else SchubertIndex(*a)


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


def _in_reach(index: int, count: str, name: str) -> None:
    """Raise the ValueError of count, naming its argument name, when index,
    the argument of a factorial or the smaller index of a binomial that the
    count needs, exceeds sys.maxsize: math.factorial and math.comb refuse it,
    and the value would have more digits than any memory holds."""
    if index > sys.maxsize:
        raise ValueError(
            f"{count}: {name} is too large, a factorial or binomial index exceeds {sys.maxsize}"
        )


def _binom(n: int, r: int, count: str, name: str) -> int:
    """C(n, r), and 0 outside 0 <= r <= n; count and name as in ``_in_reach``."""
    if not 0 <= r <= n:
        return 0
    _in_reach(min(r, n - r), count, name)
    return comb(n, r)


def _castelnuovo_num(gd: int, a1: int, b1: int) -> tuple[int, int]:
    """(num, s) with N = g! * num / s! for gd = g - d' and the reduced tops
    a1, b1; C(n, r) = 0 outside 0 <= r <= n is the zero convention for
    reciprocal factorials of negative arguments, and num = 0 when s < 0."""
    x = a1 + 1 + gd
    s = x + b1 + 1 + gd
    return _binom(s, x, "castelnuovo_N", "d") - _binom(s, gd, "castelnuovo_N", "d"), s


def castelnuovo_N(g: int, d: int, alpha, beta=SchubertIndex(0, 0)) -> Fraction:
    """Pencil count with ramification alpha at p and beta at q (r = 1).

    Subtracts the base locus a0*p + b0*q and evaluates the two-term
    reciprocal-factorial expansion over one denominator s!; a route
    independent of the raw determinant (the test oracle
    ``castelnuovo_general``), which it must always equal.  With beta
    omitted this is the single-point count.  It is defined for g >= 0.
    """
    from fractions import Fraction

    a = _index(alpha).check_degree(d)
    b = _index(beta).check_degree(d)
    if g < 0:
        raise ValueError(f"castelnuovo_N is defined for g >= 0, got g={g}")
    _in_reach(g, "castelnuovo_N", "g")
    scale = factorial(g)
    num, s = _castelnuovo_num(g - (d - a.a0 - b.a0), a.a1 - a.a0, b.a1 - b.a0)
    _in_reach(s if num else 0, "castelnuovo_N", "d")  # s! is taken for a nonzero num only
    return Fraction(scale * num, factorial(s)) if num else Fraction(0)


def count_n(g: int, d: int, alpha) -> int:
    """Number of (moving point, pencil) pairs on a general genus-g curve with
    ramification alpha at the point, in the adjusted-rho = -1 regime.

    After removing the a0-fold base point (d' = d - a0) the count is
    (2d'-g-1)(2d'-g)(2d'-g+1) * C(g, d').  Raises RhoMismatchError unless
    rho(g,1,d,alpha) = -1, and RegimeError when rho(g,1,d') < 0 -- the case
    where the leading factor 2d'-g-1 would be <= 0 and no such pencils exist
    on a general curve.  The sums walk the same regime in integers
    (``_counted``), which the tests hold against the definitions.
    """
    a = _index(alpha).check_degree(d)
    value = rho(g, 1, d, [a])
    if value != -1:
        raise RhoMismatchError(
            f"count_n needs adjusted rho = -1, got rho({g},1,{d},{(a.a0, a.a1)}) = {value}"
        )
    dp = d - a.a0
    if 2 * dp - g - 2 < 0:
        raise RegimeError(f"rho({g},1,{dp}) < 0 after base-locus reduction")
    lead = 2 * dp - g - 1  # equals a1 - a0, >= 1 here
    _in_reach(g - dp, "count_n", "g")  # the smaller index of C(g, dp), as dp > g/2
    return lead * (lead + 1) * (lead + 2) * comb(g, dp)


def count_m(g: int, d: int, alpha) -> int:
    """Number of (x, y, pencil) triples with ramification alpha at x and a
    simple ramification at y, in the adjusted-rho = -2 regime.

    Fixing one of the count_n points x, the second moving point contributes a
    factor 3g - 1.
    """
    a = _index(alpha).check_degree(d)
    value = rho(g, 1, d, [a, (0, 1)])  # the simple ramification needs d >= 2
    if value != -2:
        raise RhoMismatchError(
            f"count_m needs adjusted rho = -2, got rho({g},1,{d},{(a.a0, a.a1)},(0,1)) = {value}"
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
    _in_reach(k - 2, "count_ell", "k")
    return 2 * comb(2 * k - 3, k - 2)


def _counted(i: int, k: int, w: int, count: str, name: str) -> list[tuple[int, int, int]]:
    """(a0, a1, n_{i,k,(a0,a1)}) for a0 <= a1 <= k-1 of weight w where n counts.
    Adjusted rho = -1 means w = 2k-i-1; then n = lead (lead+1)(lead+2) C(i, k-a0)
    for lead = a1 - a0, which counts for lead >= 1 and k - a0 <= i, that is for
    max(0, w-k+1) <= a0 <= (w-1)/2.  count and name are those of the caller,
    for ``_in_reach``."""
    if k < 1:  # the one degree check of sum_T, sum_D and sum_S16
        raise ValueError(f"need k >= 1, got k={k}")
    if w != 2 * k - i - 1:
        return []
    first, last = max(0, w - k + 1), (w - 1) // 2
    if first > last:
        return []
    # k - a0 > i/2, so the smaller index of C(i, k - a0) is largest at the last a0
    _in_reach(i - k + last, count, name)
    c = comb(i, k - first)  # C(i, k - a0) at the first a0, then each from the last
    counted = []
    for a0 in range(first, last + 1):
        lead = w - 2 * a0
        counted.append((a0, w - a0, lead * (lead + 1) * (lead + 2) * c))
        c = c * (k - a0) // (i - k + a0 + 1)
    return counted


def sum_T(i: int, g: int, k: int) -> int:
    """Sum over a0 + a1 = 2k - i - 1 of
    n_{i,k,(a0,a1)} * n_{g-i,k,(k-1-a1,k-1-a0)}.

    Indices whose factors fall outside their counting regime contribute 0.
    """
    if not 2 <= i <= g // 2:
        raise ValueError(f"sum_T needs 2 <= i <= g/2, got i={i}, g={g}")
    alphas = _counted(i, k, 2 * k - i - 1, "sum_T", "i")  # the second factor is counted there, or 0
    other = {(c0, c1): n for c0, c1, n in _counted(g - i, k, 2 * k - g + i - 1, "sum_T", "g")}
    return sum(n * other.get((k - 1 - a1, k - 1 - a0), 0) for a0, a1, n in alphas)


def _e_terms(j: int, k: int) -> list[int]:
    """E_r(j) = sum over counted beta of n_beta C(2k-j-r, b0), r <= 3; each
    binomial comes from the last by one product and one exact division."""
    top = 2 * k - j
    counted = _counted(j, k, top - 1, "sum_D", "j")
    b0 = counted[0][0] if counted else 0
    _in_reach(min(b0, top - b0), "sum_D", "k")  # the largest smaller index of the C(top-r, b0)
    c = [comb(top - r, b0) for r in range(4)] if counted else []
    e = [0, 0, 0, 0]
    for b, _, n in counted:
        for r in range(4):
            e[r] += n * c[r]
            c[r] = c[r] * (top - r - b) // (b + 1)
    return e


def _sum_D_table(k: int):
    """sum_D(i, j, 2k, k) = sum_r c_r(i) E_r(j) (see sum_D), with E_r(j) built once
    per j, so the D and D6 rows cost O(g^2) in all.  Newton's differences at 0 of
    p_i(u) = x^3 - x, x = 2u-i, make c_r(i) i(i-1) times -(i+1), 6(i-1), -12(i-2), 8(i-2)."""
    terms = cache(lambda j: _e_terms(j, k))

    def value(i: int, j: int) -> int:
        e0, e1, e2, e3 = terms(j)
        return i * (i - 1) * (6 * (i - 1) * e1 - (i + 1) * e0 - 4 * (i - 2) * (3 * e2 - 2 * e3))

    return value


def sum_D(i: int, j: int, g: int, k: int) -> int:
    """Sum over rho = -1 indices alpha (genus i) and beta (genus j) of
    n_{i,k,alpha} * n_{j,k,beta} * N_{g-i-j,k,comp(alpha),comp(beta)}.

    comp(a0, a1) = (k-1-a1, k-1-a0) gives every N the same h = g-i-j and
    s = 2(g-k)-i-j.  With u = k - a0, n_alpha = p_i(u) C(i, u), where
    p_i(u) = (2u-i-1)(2u-i)(2u-i+1) is antisymmetric under a0 -> 2k-i-a0, so the
    two binomials of N join into one sum over u, and Chu-Vandermonde gives h!/s!
    sum_u p_i(u) C(i, u) sum_beta n_beta C(s, h-1-b1+u), max(0,i-k) <= u <= min(i,k).
    At g = 2k (h = s, i < k) Newton's expansion of p_i(u) and a second Vandermonde
    step over u give sum_r c_r(i) E_r(j): four products per pair, no division."""
    if not (2 <= i <= j <= g - 3 and i + j <= g - 1):
        raise ValueError(
            f"sum_D needs 2 <= i <= j <= g-3 and i+j <= g-1, got i={i}, j={j}, g={g}"
        )
    if g == 2 * k:
        return _sum_D_table(k)(i, j)
    betas = _counted(j, k, 2 * k - j - 1, "sum_D", "j")
    h, s = g - i - j, 2 * (g - k) - i - j
    if s < 0 or not betas:
        return 0
    total = 0
    for u in range(max(0, i - k), min(i, k) + 1):
        inner = sum(n * _binom(s, h - 1 - b1 + u, "sum_D", "g") for _, b1, n in betas)
        total += (2 * u - i - 1) * (2 * u - i) * (2 * u - i + 1) * comb(i, u) * inner
    _in_reach(max(h, s), "sum_D", "g")
    num, den = factorial(h) * total, factorial(s)
    q, r = divmod(num, den)
    if r:
        from fractions import Fraction

        raise ArithmeticError(
            f"sum_D({i},{j},{g},{k}) is not integral ({Fraction(num, den)}); "
            "it only counts points when g = 2k"
        )
    return q


def sum_S16(i: int, g: int, k: int) -> int:
    """Sum over a0 + a1 = g - i - 1 of
    m_{i,k,(a0,a1)} * N_{g-i-1,k,(k-1-a1,k-1-a0)}.

    For i = g - 2 the relation uses m_{g-2,k,(0,1)} directly instead.
    A counted term (g = 2k) has g - d' = h-1-a1, x = h-a0 and s = h for
    h = g-i-1, so N's numerator is C(h, a0) - C(h, a0-1).  The counted a0 run
    from max(0, k-i) = 0, as i >= k, and each C(h, a0) comes from the last by
    one product and one exact division.
    """
    if not g // 2 <= i <= g - 3:
        raise ValueError(f"sum_S16 needs g/2 <= i <= g-3, got i={i}, g={g}")
    h = g - i - 1
    total, prev, cur = 0, 0, 1  # C(h, a0 - 1) and C(h, a0) at a0 = 0
    for a0, _, n in _counted(i, k, h, "sum_S16", "i"):
        total += n * (cur - prev)
        prev, cur = cur, cur * (h - a0) // (a0 + 1)
    return (3 * i - 1) * total
