"""The one rule by which the library and the CLI read a number.

Core claims exercised here:
  * ``LengthVector.of`` and ``slice_ratio`` refuse a value with one more
    digit than Python prints in every spelling (exponent, written digits,
    denominator, negative exponent) with DomainError, and read the longest
    printable value in each spelling;
  * the digit guard never under-reads what ``Fraction`` keeps and never
    over-reads what it builds: for any decimal or ratio literal, the digits of
    the reduced numerator and denominator are at most the guard's estimate,
    which is at most the digits of the largest integer ``Fraction(text)``
    builds on the way, ``10**|exponent|`` included.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_betti import DomainError, LengthVector, slice_ratio
from linkage_betti.errors import _literal_digits, digit_limit

LIMIT = digit_limit()

# each door's reading of ``text``; the negative side of values (q, -1) is 1/(q + 1)
DOORS = {
    "LengthVector.of": lambda text: LengthVector.of(text, 1, 1).lengths[0],
    "slice_ratio": lambda text: 1 / slice_ratio([text, -1]) - 1,
}


@pytest.mark.parametrize("door", DOORS)
def test_text_one_digit_past_the_limit_is_refused_in_every_spelling(door):
    for text in (f"1e{LIMIT}", "1" + "0" * LIMIT, "1/" + "3" * (LIMIT + 1), f"1e-{LIMIT}"):
        with pytest.raises(DomainError, match=f"past {LIMIT} digits"):
            DOORS[door](text)
    for text in (f"1e{LIMIT - 1}", "1" + "0" * (LIMIT - 1)):
        assert DOORS[door](text) == 10 ** (LIMIT - 1)


def _digits(x: int) -> int:
    return len(str(abs(x)))


def _largest_built(whole: str, decimals: str | None, exponent: int | None) -> int:
    """Digits of the largest integer ``Fraction`` builds from a decimal literal,
    step by step as it parses one: the digits, 10**len(decimals), and
    10**|exponent| with the numerator or denominator it scales."""
    numerator, denominator = int(whole or "0"), 1
    built = [numerator]
    if decimals:
        denominator = 10 ** len(decimals)
        numerator = numerator * denominator + int(decimals)
        built += [denominator, numerator]
    if exponent is not None:
        power = 10 ** abs(exponent)
        if exponent >= 0:
            numerator *= power
        else:
            denominator *= power
        built += [power, numerator, denominator]
    return max(map(_digits, built))


_DIGITS = st.text("0123456789", max_size=30)


@st.composite
def _literals(draw) -> tuple[str, int]:
    """A decimal or ratio literal, and the digits of the largest integer it builds."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    if draw(st.booleans()):
        top = draw(_DIGITS.filter(bool))
        bottom = draw(_DIGITS.filter(lambda t: t and int(t)))
        return f"{sign}{top}/{bottom}", max(_digits(int(top)), _digits(int(bottom)))
    whole = draw(_DIGITS)
    decimals = draw(st.none() | _DIGITS)
    if not whole and not decimals:
        whole = "0"
    exponent = draw(st.none() | st.integers(-60, 60))
    text = sign + whole
    if decimals is not None:
        text += "." + decimals
    if exponent is not None:
        plus = draw(st.sampled_from(["", "+"])) if exponent >= 0 else ""
        text += draw(st.sampled_from("eE")) + plus + str(exponent)
    return text, _largest_built(whole, decimals, exponent)


@settings(max_examples=2000, deadline=None)
@given(_literals())
def test_the_guard_lies_between_what_fraction_keeps_and_what_it_builds(literal):
    text, built = literal
    value = Fraction(text)
    kept = max(_digits(value.numerator), _digits(value.denominator))
    assert kept <= _literal_digits(text) <= built, text
