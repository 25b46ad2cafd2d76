"""Exact rational parsing and formatting shared by the library and the CLI.

Probabilities in this package are arbitrary-precision rationals throughout;
floats are rejected at the boundary instead of being silently truncated.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IncompatibleData


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and 'num/den' strings; refuse floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise IncompatibleData(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        # plain decimal 'num/den' goes through int; every other form, and a
        # zero or over-long part, through Fraction's own parser and messages
        num, slash, den = text.partition("/")
        if slash and _digits(den) and _digits(num[1:] if num[:1] in "+-" else num):
            try:
                top, bottom = int(num), int(den)
            except ValueError:
                pass
            else:
                if bottom:
                    return Fraction(top, bottom)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise IncompatibleData(f"not a rational: {value!r} ({exc})") from None
    raise IncompatibleData(
        f"not an exact rational: {value!r} (floats are not accepted; use 'num/den')"
    )


def format_fraction(q: Fraction) -> str:
    """Canonical 'num/den' form, denominator always present ('3/1', '-1/2')."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"
