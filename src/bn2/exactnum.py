"""Arbitrary-precision integer helpers shared by all formulas: the factorial
family, and the text of a rational given as two integers.

A rational value is carried as integers wherever the package computes: a
numerator and a denominator, or integer numerators over one denominator.
Its text is ``fraction_text(n, d)``, ``"p/q"`` in lowest terms with
``q > 0`` (``"p"`` when ``q`` is 1), which is exactly ``str(Fraction(n, d))``
and needs no ``fractions``.  The library views that hand out rationals use
plain ``fractions.Fraction`` and import it when they are called.  Nothing in
the computation path ever touches floating point.
"""

from __future__ import annotations

import math

__all__ = [
    "factorial",
    "double_factorial_odd",
    "fraction_text",
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


def fraction_text(n: int, d: int) -> str:
    """n / d written as ``str(Fraction(n, d))`` writes it: in lowest terms
    with a positive denominator, and without one when it is 1."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    c = math.gcd(n, d)
    if d < 0:
        c = -c
    return f"{n // c}" if d == c else f"{n // c}/{d // c}"
