"""The text of a rational given as two integers.

A rational value is carried as integers wherever the package computes: a
numerator and a denominator, or integer numerators over one denominator.
Its text is ``fraction_text(n, d)``, ``"p/q"`` in lowest terms with
``q > 0`` (``"p"`` when ``q`` is 1), which is exactly ``str(Fraction(n, d))``
and needs no ``fractions``.  The factorials are ``math.factorial``, called
where they are taken.  The library views that hand out rationals use plain
``fractions.Fraction`` and import it when they are called.  Nothing in the
computation path ever touches floating point.
"""

from __future__ import annotations

import math

__all__ = ["fraction_text"]


def fraction_text(n: int, d: int) -> str:
    """n / d written as ``str(Fraction(n, d))`` writes it: in lowest terms
    with a positive denominator, and without one when it is 1."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    c = math.gcd(n, d)
    if d < 0:
        c = -c
    return f"{n // c}" if d == c else f"{n // c}/{d // c}"
