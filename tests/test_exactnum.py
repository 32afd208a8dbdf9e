from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bn2.exactnum import fraction_text
from oracles import inv_factorial_or_zero


def test_exactnum_exports_only_fraction_text():
    # the factorials are math.factorial, called where they are taken
    import bn2.exactnum

    assert bn2.exactnum.__all__ == ["fraction_text"]


def test_inv_factorial_or_zero_values():
    assert inv_factorial_or_zero(3) == Fraction(1, 6)
    assert inv_factorial_or_zero(-1) == 0
    assert inv_factorial_or_zero(0) == 1


@given(st.integers(min_value=1, max_value=400))
def test_inv_factorial_inverts_factorial(n):
    assert inv_factorial_or_zero(n) * factorial(n) == 1


@given(
    st.integers(-1000, 1000),
    st.integers(1, 1000),
    st.integers(-1000, 1000),
    st.integers(1, 1000),
)
def test_rational_arithmetic_is_exact(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) - y == x
    assert x.denominator > 0


@given(st.integers(), st.integers().filter(bool))
@example(0, 7)
@example(0, -7)
@example(-6, 4)
@example(6, -4)
@example(-5, -1)
@example(12, 12)
def test_fraction_text_is_str_fraction(n, d):
    assert fraction_text(n, d) == str(Fraction(n, d))


def test_fraction_text_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        fraction_text(1, 0)
