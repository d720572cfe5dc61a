"""Exact rational arithmetic with directed rounding.

Every step needs these: the parsing and rendering of rationals, integer
q-th roots and rational enclosures of q-th roots.  Enclosures of ln and exp,
which only powlog gauges and the difference app need, are in lnexp.  All
enclosures are pairs of Fractions (lo, hi) with lo <= true value <= hi and
the rounding always outward.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from .errors import FormatError, UsageError

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


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
    """'p/q', or 'p' for an integer.  A value with more digits than the
    interpreter renders (sys.get_int_max_str_digits()) is a request past a
    fixed limit, such as an app's e^t for a large t."""
    try:
        return str(Fraction(x))
    except ValueError as exc:
        raise UsageError(f"rational too large to write: {exc}") from exc


def format_ratio(n: int, den: int) -> str:
    """format_rational(n/den) for integers n and den > 0, without a
    Fraction, and with its refusal of a value too large to write."""
    g = gcd(n, den)
    try:
        return str(n // g) if g == den else f"{n // g}/{den // g}"
    except ValueError as exc:
        raise UsageError(f"rational too large to write: {exc}") from exc


def decimal_ratio(n: int, den: int, digits: int) -> str:
    """Decimal rendering of n/den for integers n and den > 0, truncated
    toward zero.

    Pure integer arithmetic so renderings are identical across platforms.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if n < 0 else ""
    whole, rem = divmod(abs(n), den)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{rem * 10**digits // den:0{digits}d}"


def iroot(n: int, q: int) -> int:
    """floor(n ** (1/q)) for n >= 0, q >= 1."""
    if n < 0 or q < 1:
        raise ValueError("iroot needs n >= 0, q >= 1")
    if q == 1 or n in (0, 1):
        return n
    if q == 2:
        return isqrt(n)
    if n.bit_length() <= q:
        return 1
    # Newton iteration on integers, then clamp to the exact floor.
    x = 1 << -(-n.bit_length() // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x**q > n:
        x -= 1
    while (x + 1) ** q <= n:
        x += 1
    return x


def perfect_root(x: Fraction, q: int) -> Fraction | None:
    """Exact q-th root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("negative radicand")
    rn = iroot(x.numerator, q)
    rd = iroot(x.denominator, q)
    if rn**q == x.numerator and rd**q == x.denominator:
        return Fraction(rn, rd)
    return None


def nth_root_bounds(x: Fraction, q: int, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**(1/q) for x >= 0 with width <= 2**-precision.

    Exact (lo == hi) whenever the root is rational.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    exact = perfect_root(x, q)
    if exact is not None:
        return exact, exact
    shift = precision + 1
    scaled = x.numerator << (q * shift)
    lo_i = iroot(scaled // x.denominator, q)
    hi_i = iroot(-(-scaled // x.denominator), q) + 1
    s = 1 << shift
    return Fraction(lo_i, s), Fraction(hi_i, s)
