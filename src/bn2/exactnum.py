"""Arbitrary-precision integer helpers shared by all formulas: the factorial
family.

Rational values elsewhere are plain ``fractions.Fraction``: normalized on
construction, positive denominator, value equality.  They serialize as
``"p/q"`` (``"p"`` when the denominator is 1), which is exactly
``str(Fraction)``.  Nothing in the computation path ever touches floating
point.
"""

from __future__ import annotations

import math

__all__ = [
    "factorial",
    "double_factorial_odd",
]


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n: {n}")
    return math.factorial(n)


def double_factorial_odd(n: int) -> int:
    """(2m+1)!! = (2m+1)!/(2^m m!) for odd n = 2m+1 >= -1, with (-1)!! = 1."""
    if n < -1 or n % 2 == 0:
        raise ValueError(f"odd double factorial needs odd n >= -1, got {n}")
    if n == -1:
        return 1
    m = (n - 1) // 2
    return math.factorial(n) // (2**m * math.factorial(m))
