"""Exact rational arithmetic and Pochhammer symbols.

Frozen values were computed by writing out the defining products by hand
before the implementation existed.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfactor.exactnum import (
    MAX_DIGITS,
    DivisionByZero,
    PoleAtParameter,
    rat_from_str,
    rat_str,
)
from termlists import gamma_ratio_shift, pochhammer, pochhammer_ratio

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_pochhammer_frozen_values():
    # (1/2)(3/2)(5/2) = 15/8
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    # (3)(4)(5)(6) = 360
    assert pochhammer(F(3), 4) == 360
    # (-3)(-2)(-1)(0)(1): hits zero
    assert pochhammer(F(-3), 5) == 0
    assert pochhammer(F(7, 3), 0) == 1


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(F(1), -1)


def test_pochhammer_ratio_frozen_values():
    # (3/2)(5/2) / ((1/2)(3/2)) = 5
    assert pochhammer_ratio(F(3, 2), F(1, 2), 2) == 5
    # zero numerator factor
    assert pochhammer_ratio(F(-1), F(1, 3), 2) == 0
    assert pochhammer_ratio(F(2, 7), F(2, 7), 5) == 1


def test_pochhammer_ratio_pole():
    # (-2)_3 = (-2)(-1)(0) = 0
    with pytest.raises(PoleAtParameter):
        pochhammer_ratio(F(1, 2), F(-2), 3)


@given(a=rationals, k=st.integers(0, 8))
def test_pochhammer_recurrence(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


@given(a=rationals, b=rationals, k=st.integers(0, 6))
def test_pochhammer_ratio_reciprocal(a, b, k):
    try:
        r = pochhammer_ratio(a, b, k)
    except PoleAtParameter:
        return
    if r == 0:
        return
    assert pochhammer_ratio(b, a, k) == 1 / r


def test_gamma_ratio_shift_matches_ratio_for_nonnegative():
    for k in range(5):
        assert gamma_ratio_shift(F(2, 3), F(1, 5), k) == pochhammer_ratio(
            F(2, 3), F(1, 5), k
        )


def test_gamma_ratio_shift_negative_frozen():
    # k = -1: (b-1)/(a-1) with a = 5/2, b = 3: 2/(3/2) = 4/3
    assert gamma_ratio_shift(F(5, 2), F(3), -1) == F(4, 3)
    # numerator factor hits zero: b = 2, k = -2 -> (1)(0)/(...) = 0
    assert gamma_ratio_shift(F(7, 2), F(2), -2) == 0
    # integer a <= |k| is a genuine pole
    with pytest.raises(PoleAtParameter):
        gamma_ratio_shift(F(1), F(1, 2), -1)
    with pytest.raises(PoleAtParameter):
        gamma_ratio_shift(F(3), F(1, 2), -5)


@given(a=rationals, b=rationals, k=st.integers(-5, 5))
@settings(max_examples=200)
def test_gamma_ratio_shift_recurrence(a, b, k):
    # Gamma(k+1+a)/Gamma(k+1+b) * (k+b) = Gamma(k+a)/Gamma(k+b) * (k+a)
    try:
        lhs = gamma_ratio_shift(a, b, k + 1) * (k + b)
        rhs = gamma_ratio_shift(a, b, k) * (k + a)
    except PoleAtParameter:
        return
    assert lhs == rhs


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_parse_print_roundtrip(p, q):
    s = rat_str(F(p, q))
    assert rat_from_str(s) == F(p, q)


def test_parse_errors():
    with pytest.raises(ValueError):
        rat_from_str("three halves")
    with pytest.raises(DivisionByZero):
        rat_from_str("3/0")
    assert rat_from_str(" -7/2 ") == F(-7, 2)


@pytest.mark.parametrize("text", ["1e3", "1.5", "1_000", "1e5000", "3/-4", "/2", "1/"])
def test_only_sign_digits_and_one_slash_parse(text):
    with pytest.raises(ValueError):
        rat_from_str(text)


def test_literals_up_to_the_digit_bound_parse():
    top = "7" * MAX_DIGITS
    assert rat_from_str(top) == int(top)
    assert rat_from_str(f" -1/{top} ") == F(-1, int(top))
    for text in (top + "7", f"1/{top}7"):
        with pytest.raises(ValueError, match="digits"):
            rat_from_str(text)


@given(a=rationals, b=rationals.filter(lambda x: x != 0))
def test_field_exactness(a, b):
    assert (a / b) * b == a
    assert (a + b) - b == a
