"""Exact rational scalars and Pochhammer-symbol machinery.

Every scalar in the package is a `fractions.Fraction`; no floating point is
used anywhere in core code. Gamma-function ratios are only ever needed in the
normalized form Gamma(k+a)/Gamma(k+b) divided by Gamma(a)/Gamma(b), which is a
finite product of rationals (rising factorials). The extension to negative
integer shifts k is needed for diagonal stages acting on the negative
exponents that Laurent flows leave inside a stage list: there the reflection
through 1/Gamma produces exact zeros.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtParameter(ArithmeticError):
    """A Pochhammer denominator vanished at the given parameters."""


def rat_from_str(text: str) -> Rat:
    """Parse 'p/q' or 'p' (ASCII digits, optional sign and whitespace);
    decimals, exponents and digit separators raise ValueError."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {text!r}") from None


def rat_str(a: Rat) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    return str(a)


def pochhammer(a: Rat, k: int) -> Rat:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    if k < 0:
        raise ValueError(f"pochhammer length must be nonnegative, got {k}")
    out = ONE
    for i in range(k):
        out *= a + i
    return out


def pochhammer_ratio(a: Rat, b: Rat, k: int) -> Rat:
    """(a)_k / (b)_k for k >= 0."""
    den = pochhammer(b, k)
    if den == 0:
        raise PoleAtParameter(f"({b})_{k} = 0")
    return pochhammer(a, k) / den


def gamma_ratio_shift(a: Rat, b: Rat, k: int) -> Rat:
    """Gamma(k+a)/Gamma(k+b) normalized so the value at k = 0 is 1.

    For k >= 0 this is pochhammer_ratio(a, b, k). For k < 0 it equals
    prod_{i=1..|k|} (b-i) / prod_{i=1..|k|} (a-i); a vanishing numerator
    factor is an exact zero (the 1/Gamma pole wins), a vanishing denominator
    factor is a genuine pole.
    """
    if k >= 0:
        return pochhammer_ratio(a, b, k)
    num = ONE
    den = ONE
    for i in range(1, -k + 1):
        num *= b - i
        den *= a - i
    if den == 0:
        raise PoleAtParameter(f"Gamma({a}{k:+d})/Gamma({a}) pole")
    return num / den

