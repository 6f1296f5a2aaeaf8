import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowerprev.rational import (
    RationalParseError,
    common_denominator,
    format_rational,
    parse_rational,
    scaled,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/10", Fraction(3, 10)),
        ("p", None),
        ("-3/5", Fraction(-3, 5)),
        ("0.25", Fraction(1, 4)),
        (".5", Fraction(1, 2)),
        ("-1.75", Fraction(-7, 4)),
        ("2", Fraction(2)),
        ("+7/2", Fraction(7, 2)),
        ("6/4", Fraction(3, 2)),
        ("1/0", None),
        ("1e3", None),
        ("", None),
    ],
)
def test_parse(text, expected):
    if expected is None:
        with pytest.raises(RationalParseError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


def test_format():
    assert format_rational(Fraction(3, 10)) == "3/10"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(math.inf) == "inf"


rationals = st.fractions(max_denominator=1000)


@given(rationals)
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(rationals, rationals)
def test_canonical_arithmetic(a, b):
    # Lowest terms with positive denominator after every operation, and
    # normalization commutes with addition.
    total = a + b
    assert math.gcd(total.numerator, total.denominator) == 1
    assert total.denominator > 0
    assert Fraction(a.numerator, a.denominator) + Fraction(b.numerator, b.denominator) == total


def _is_least_integral_scale(d, values):
    """Whether d is the least positive scale making every value an integer,
    in Fraction arithmetic: d works, and d / p does not for any prime p | d."""

    def integral(scale):
        return all((v * scale).denominator == 1 for v in values)

    primes, rest = [], d
    for p in itertools.count(2):
        if rest == 1:
            break
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    return d >= 1 and integral(d) and not any(integral(d // p) for p in primes)


@pytest.mark.parametrize(
    "values,denominator,ints",
    [
        ([], 1, []),
        ([Fraction(3), Fraction(-2), Fraction(0)], 1, [3, -2, 0]),
        ([Fraction(-1, 2), Fraction(-3, 4)], 4, [-2, -3]),
        ([Fraction(1, 4), Fraction(-5, 6), Fraction(3)], 12, [3, -10, 36]),
        ([Fraction(2, 9), Fraction(1, 6), Fraction(5, 9)], 18, [4, 3, 10]),
    ],
)
def test_common_denominator_and_scaled(values, denominator, ints):
    assert common_denominator(values) == denominator
    assert scaled(values, denominator) == ints
    assert scaled(values, 5 * denominator) == [5 * k for k in ints]
    assert scaled(values, -denominator) == [-k for k in ints]


@settings(derandomize=True, max_examples=200)
@given(
    st.lists(st.fractions(-50, 50, max_denominator=12), max_size=5),
    st.integers(-6, 6).filter(lambda k: k != 0),
)
def test_scaling_matches_fraction_arithmetic(values, multiple):
    d = common_denominator(values)
    assert _is_least_integral_scale(d, values)
    assert d == common_denominator(iter(values))
    ints = scaled(values, multiple * d)
    assert all(type(k) is int for k in ints)
    assert ints == [int(v * multiple * d) for v in values]
    assert [Fraction(k, multiple * d) for k in ints] == values
