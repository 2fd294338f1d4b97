"""Exact rational parsing and canonical formatting.

All numeric values crossing a file or CLI boundary are rationals encoded as
strings: either decimals ("0.25", "-1.5") or fractions ("1/4", "-3/2").
Internally everything is a ``fractions.Fraction``; no floats take part in
comparisons.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Decimal digits kept when snapping a float sample (e.g. a sine or kernel
# evaluation) to a rational.
SAMPLE_PRECISION = 12

_SCALE = 10**SAMPLE_PRECISION

# Python's default limit on the digits of an int read from a string: a
# plain digit string this long already fails to parse, and a larger power
# of ten could not be written back by format_rational.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\Z", re.IGNORECASE)


def parse_rational(text) -> Fraction:
    """Parse a decimal or "p/q" string (ints and Fractions pass through).

    A decimal exponent beyond MAX_EXPONENT in magnitude is refused before
    ``Fraction`` builds its power of ten."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise TypeError("booleans are not accepted as rationals")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("floats are not accepted; pass a string or use snap()")
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational string")
    exponent = _EXPONENT.search(s)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0") or "0"
        # The length test comes first: int() refuses a digit string longer
        # than the limit.
        if (len(digits) > len(str(MAX_EXPONENT))
                or int(digits) > MAX_EXPONENT):
            raise ValueError(
                f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(s)  # handles "3", "3/4", "0.25", "-1.5e-3"
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical lowest-terms string: "p/q", or "p" when q == 1.

    x is a Fraction or an int, both already in lowest terms."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def snap(value: float) -> Fraction:
    """Round a float to SAMPLE_PRECISION decimal digits, as an exact rational."""
    return Fraction(round(value * _SCALE), _SCALE)
