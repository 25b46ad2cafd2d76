"""Exact rational parsing and formatting shared by the library and the CLI.

Probabilities in this package are arbitrary-precision rationals throughout;
floats are rejected at the boundary instead of being silently truncated.
The interpreter's int-to-str digit limit guards parsing, so input literals
keep it; computed values may be longer, and render under ``long_ints``.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from fractions import Fraction

from .errors import IncompatibleData

_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")
_DIGIT_LOCK = threading.RLock()


@contextlib.contextmanager
def long_ints():
    """Let ints of any length render while computed values are written.

    The limit is interpreter-wide: the block holds a lock, so concurrent
    writers take turns and the saved limit is always restored, but any
    other thread that parses text meanwhile does so without the guard.
    """
    if not _DIGIT_LIMIT:
        yield
        return
    with _DIGIT_LOCK:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(limit)


def long_str(value) -> str:
    """``str(value)`` however many digits it has: computed values in messages."""
    with long_ints():
        return str(value)


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
        # zero or over-long part, through Fraction's own parser
        num, slash, den = text.partition("/")
        if slash and _digits(den) and _digits(num[1:] if num[:1] in "+-" else num):
            try:
                top, bottom = int(num), int(den)
            except ValueError:
                pass
            else:
                if bottom:
                    return Fraction(top, bottom)
        # Fraction builds 10**exp in full: refuse an exponent over the digit limit first
        limit = sys.get_int_max_str_digits() if _DIGIT_LIMIT else 0
        _, e, exp = text.replace("E", "e").rpartition("e")
        exp = (exp[1:] if exp[:1] in "+-" else exp).replace("_", "").lstrip("0")
        if limit and e and exp.isdecimal() and (len(exp) > len(str(limit)) or int(exp) > limit):
            raise IncompatibleData(f"not a rational: {value!r} (exponent over the digit limit, {limit})")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            reason = "zero denominator"
        except ValueError as exc:  # a bad literal, or a part over the digit limit
            reason = str(exc)
            if reason.startswith("Invalid literal"):
                reason = "not an integer or 'num/den'"
        raise IncompatibleData(f"not a rational: {value!r} ({reason})") from None
    raise IncompatibleData(
        f"not an exact rational: {value!r} (floats are not accepted; use 'num/den')"
    )


def format_fraction(q: Fraction) -> str:
    """Canonical 'num/den' form, denominator always present ('3/1', '-1/2')."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"
