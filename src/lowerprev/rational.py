"""Exact rational scalars and their canonical string form.

Every numeric value in this library is a :class:`fractions.Fraction`,
which the standard library keeps in lowest terms with a positive
denominator.  This module adds the wire format: rationals travel as
strings like ``"3/10"`` (or ``"3"`` when the denominator is one), and
decimal input such as ``"0.25"`` is parsed exactly, never through a
float.  It also owns the one scaling of rationals to integers, which
every integer kernel uses: :func:`common_denominator` and :func:`scaled`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

__all__ = ["parse_rational", "format_rational", "RationalParseError",
           "common_denominator", "scaled"]

INF = float("inf")

_RATIONAL_RE = re.compile(
    r"""^\s*
        (?P<sign>[+-]?)
        (?:
            (?P<num>\d+)\s*/\s*(?P<den>\d+)   # p/q
          | (?P<int>\d+)(?:\.(?P<frac>\d*))?  # 12 or 12.5
          | \.(?P<onlyfrac>\d+)               # .5
        )
        \s*$""",
    re.VERBOSE,
)


class RationalParseError(ValueError):
    """Raised when a string is not an exact rational literal."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or an exact decimal like ``"0.25"``.

    >>> parse_rational("3/10")
    Fraction(3, 10)
    >>> parse_rational("0.25")
    Fraction(1, 4)
    >>> parse_rational("-2")
    Fraction(-2, 1)
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise RationalParseError(f"not an exact rational literal: {text!r}")
    sign = -1 if match.group("sign") == "-" else 1
    if match.group("num") is not None:
        den = int(match.group("den"))
        if den == 0:
            raise RationalParseError(f"zero denominator: {text!r}")
        return Fraction(sign * int(match.group("num")), den)
    if match.group("onlyfrac") is not None:
        digits = match.group("onlyfrac")
        return Fraction(sign * int(digits), 10 ** len(digits))
    whole = int(match.group("int"))
    digits = match.group("frac") or ""
    scale = 10 ** len(digits)
    return Fraction(sign * (whole * scale + int(digits or "0")), scale)


def format_rational(value: Fraction | float) -> str:
    """Canonical string form: ``"p/q"``, or ``"p"`` when q = 1.

    ``float('inf')`` is allowed and rendered as ``"inf"`` because the
    norm of a non-exact assessment is infinite.
    """
    if value == INF:
        return "inf"
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def common_denominator(values: Iterable[Fraction]) -> int:
    """The lcm of the values' denominators; 1 for no values.

    >>> common_denominator([Fraction(1, 4), Fraction(-5, 6), Fraction(3)])
    12
    """
    # a running lcm, with list comprehensions in the callers: math.lcm(*generator)
    # and tuple(generator) raised the peak resident memory of long runs
    scale = 1
    for x in values:
        scale = math.lcm(scale, x.denominator)
    return scale


def scaled(values: Iterable[Fraction], scale: int) -> list[int]:
    """Each value times ``scale``, as ints.

    ``scale`` must be a multiple of every denominator, such as
    :func:`common_denominator` of the values; a negative multiple
    negates the result.

    >>> scaled([Fraction(1, 4), Fraction(-5, 6), Fraction(3)], 12)
    [3, -10, 36]
    """
    return [x.numerator * (scale // x.denominator) for x in values]
