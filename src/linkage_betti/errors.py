"""The exception type and the argument checks shared across the library."""

import sys


class DomainError(ValueError):
    """A structurally valid input lies outside an operation's mathematical domain.

    Raised for things like a Betti degree outside 0..n-3 or a nonpositive bar
    length.  Malformed input (wrong type, unparseable text) keeps raising the
    usual TypeError / ValueError.
    """


def check_degree(n: int, p: int) -> None:
    """Refuse fewer than 3 bars, or a Betti degree p outside 0..n-3."""
    if n < 3:
        raise DomainError("Betti numbers need at least 3 bars")
    if not 0 <= p <= n - 3:
        raise DomainError(f"degree {p} outside 0..{n - 3}")


def digit_limit() -> int:
    """Most digits ``str`` gives an integer (Python's default where no limit is set)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _literal_digits(text: str) -> int:
    """Most digits the numerator or denominator of ``Fraction(text)`` has before reduction.

    Read from the literal's digits and exponent alone: ``Fraction("1e10000000")``
    takes seconds to build a number that could never be printed.  Text that
    is not a literal may read anything; ``Fraction`` refuses it afterwards.
    """
    body = text.replace("_", "").strip().lstrip("+-")
    if "/" in body:
        return max(len(part.strip().lstrip("0")) for part in body.split("/"))
    mantissa, _, exponent = body.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    try:
        shift = int(exponent or "0") - len(decimals)
    except ValueError:  # not an integer, or one that is itself too long
        return len(exponent)
    significant = len((whole + decimals).lstrip("0"))
    return max(significant, significant + shift, 1 - shift)


def exact_rational(value: "Fraction | int | str") -> "Fraction":
    """``value`` as a Fraction, by the one rule the library reads numbers by: ints
    and Fractions as they are, a float refused with TypeError, and text whose numerator
    or denominator would pass ``digit_limit()`` digits in any spelling refused with
    DomainError before anything is built (4,300 digits with Python's limit off)."""
    import fractions  # here, not at the top: ``--version`` loads no fractions

    if isinstance(value, fractions.Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    if isinstance(value, str) and _literal_digits(value) > digit_limit():
        raise DomainError(f"numerator or denominator past {digit_limit()} digits: {value!r}")
    return fractions.Fraction(value)
