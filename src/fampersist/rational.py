"""Exact rational parsing and canonical formatting.

All numeric values crossing a file or CLI boundary are rationals encoded as
strings: either decimals ("0.25", "-1.5") or fractions ("1/4", "-3/2").
Internally everything is a ``fractions.Fraction``; no floats take part in
comparisons.
"""

from __future__ import annotations

from fractions import Fraction

# Decimal digits kept when snapping a float sample (e.g. a sine or kernel
# evaluation) to a rational.
SAMPLE_PRECISION = 12

_SCALE = 10**SAMPLE_PRECISION


def parse_rational(text) -> Fraction:
    """Parse a decimal or "p/q" string (ints and Fractions pass through)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("floats are not accepted; pass a string or use snap()")
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational string")
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
