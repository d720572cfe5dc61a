"""Parsing and rendering of exact rationals.

Every step needs these.  The ln enclosure, which only powlog gauges and
the difference app need, is in lnexp, and the difference app's exp
enclosure in differences.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import FormatError, UsageError

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def digit_limit() -> int:
    """The interpreter's int/str digit limit, sys.get_int_max_str_digits(),
    or 0 where there is none: the limit is off, or the interpreter predates
    it (3.10.0-3.10.6)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_rational(text: str) -> Fraction:
    """The value of a 'p/q' or integer string, q > 0; floats and non-strings
    are rejected on purpose."""
    s = text.strip() if isinstance(text, str) else ""
    if not _RATIONAL_RE.match(s):
        raise FormatError(f"not a rational 'p/q' literal: {text!r}")
    p, _, q = s.partition("/")
    try:
        return Fraction(int(p), int(q) if q else 1)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise FormatError(f"rational literal too long: {exc}") from exc


def format_rational(x: Fraction) -> str:
    """'p/q', or 'p' for an integer, as format_ratio renders it."""
    return format_ratio(*Fraction(x).as_integer_ratio())


def format_ratio(n: int, den: int) -> str:
    """'p/q' in lowest terms for integers n and den > 0, or 'p' for an
    integer, without a Fraction.  A value with more digits than the
    interpreter renders (sys.get_int_max_str_digits()) is a request past a
    fixed limit, such as an app's e^t for a large t."""
    g = gcd(n, den)
    try:
        return str(n // g) if g == den else f"{n // g}/{den // g}"
    except ValueError as exc:
        raise UsageError(f"rational too large to write: {exc}") from exc


def decimal_ratio(n: int, den: int, digits: int) -> str:
    """Decimal rendering of n/den for integers n and den > 0, truncated
    toward zero.

    Pure integer arithmetic so renderings are identical across platforms:
    one floor division by den counts the units of 10**-digits, and the
    count is split into its whole and fractional digits.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if n < 0 else ""
    if digits == 0:
        return f"{sign}{abs(n) // den}"
    whole, frac = divmod(abs(n) * 10**digits // den, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
