from fractions import Fraction
from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from oracles import inv_factorial_or_zero


def test_exactnum_exports_only_fraction_text():
    # the factorials are math.factorial, called where they are taken, and
    # fraction_text lives in bn2.basis, which every command that writes a
    # rational loads
    import bn2.basis
    import bn2.exactnum

    assert bn2.exactnum.__all__ == ["fraction_text"]
    assert bn2.exactnum.fraction_text is bn2.basis.fraction_text


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
