"""Exact rational scalars: parsing, rendering and the scalar errors.

Every scalar in the package is a `fractions.Fraction`; no floating point is
used anywhere in core code. Rationals are read from the command line by
`rat_from_str`, bounded to MAX_DIGITS digits, and written to reports by
`rat_str`. `PoleAtParameter` is raised where a Gamma-ratio diagonal, a
finite ratio of rising factorials, meets a vanishing Pochhammer symbol;
`linop.path_op` evaluates those diagonals.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# Report values grow to about 4 * cap digits per literal digit (the sl2
# oracle-r2 scalar), so below cap 50 reports stay under Python's 4,300-digit
# int-to-str limit.
MAX_DIGITS = 20


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtParameter(ArithmeticError):
    """A Pochhammer denominator vanished at the given parameters."""


def rat_from_str(text: str) -> Rat:
    """Parse 'p/q' or 'p' (ASCII digits, optional sign and whitespace);
    decimals, exponents, separators and over MAX_DIGITS digits raise ValueError."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f"bad rational literal {text!r}")
    if max(map(len, re.findall("[0-9]+", text))) > MAX_DIGITS:
        raise ValueError(f"rational literal over {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {text!r}") from None


def rat_str(a: Rat) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    return str(a)
