"""Exact rational arithmetic with directed rounding.

Everything the certified paths need that is not a plain Fraction operation
lives here: integer q-th roots, rational enclosures of q-th roots, natural
logarithms, exponentials, and square roots of integers.  All enclosures are
pairs of Fractions (lo, hi) with lo <= true value <= hi and the rounding
always outward.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from .errors import FormatError

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """The value of a 'p/q' or integer string, q > 0; floats and non-strings
    are rejected on purpose."""
    s = text.strip() if isinstance(text, str) else ""
    if not _RATIONAL_RE.match(s):
        raise FormatError(f"not a rational 'p/q' literal: {text!r}")
    p, _, q = s.partition("/")
    return Fraction(int(p), int(q) if q else 1)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def format_ratio(n: int, den: int) -> str:
    """format_rational(n/den) for integers n and den > 0, without a Fraction."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


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


def sqrt_bounds(n: int, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(n) for integer n >= 0; exact for perfect squares."""
    return nth_root_bounds(Fraction(n), 2, precision)


def _round_down(x: Fraction, shift: int) -> Fraction:
    return Fraction((x.numerator << shift) // x.denominator, 1 << shift)


def _round_up(x: Fraction, shift: int) -> Fraction:
    return Fraction(-((-x.numerator << shift) // x.denominator), 1 << shift)


def _atanh_series(t: Fraction, tail_target: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(t) for 0 <= t < 1/2 by the odd power series.

    Partial sums underestimate; the geometric tail bound is added on top.
    """
    total = Fraction(0)
    power = t
    t2 = t * t
    n = 0
    while True:
        term = power / (2 * n + 1)
        total += term
        power *= t2
        n += 1
        tail = power / ((2 * n + 1) * (1 - t2))
        if tail <= tail_target:
            return total, total + tail


_LN2_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def ln2_bounds(precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of ln 2 = 2*atanh(1/3) with width <= 2**-precision."""
    cached = _LN2_CACHE.get(precision)
    if cached is None:
        lo, hi = _atanh_series(Fraction(1, 3), Fraction(1, 1 << (precision + 2)))
        cached = _LN2_CACHE[precision] = (2 * lo, 2 * hi)
    return cached


def ln_bounds(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of ln(x) for rational x > 0 with width <= 2**-precision."""
    if x <= 0:
        raise ValueError("ln needs a positive argument")
    if x == 1:
        return Fraction(0), Fraction(0)
    # Split x = m * 2**e with m in [1, 2).
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m < 1:
        e -= 1
        m *= 2
    elif m >= 2:
        e += 1
        m /= 2
    guard = precision + 3
    l2lo, l2hi = ln2_bounds(guard + max(0, abs(e).bit_length()))
    if e >= 0:
        part_lo, part_hi = e * l2lo, e * l2hi
    else:
        part_lo, part_hi = e * l2hi, e * l2lo
    if m == 1:
        return part_lo, part_hi
    # ln m = 2*atanh(t) with t = (m-1)/(m+1) in (0, 1/3); round t outward first
    # so the series works on small power-of-two denominators.
    t = (m - 1) / (m + 1)
    t_lo = _round_down(t, guard + 4)
    t_hi = _round_up(t, guard + 4)
    tail = Fraction(1, 1 << (guard + 2))
    s_lo, _ = _atanh_series(t_lo, tail)
    _, s_hi = _atanh_series(t_hi, tail)
    return part_lo + 2 * s_lo, part_hi + 2 * s_hi


def _exp_pos_attempt(x: Fraction, shift: int) -> tuple[Fraction, Fraction]:
    """One-shot enclosure of exp(x) for x >= 0, working at scale 2**-shift."""
    # Halve the argument until it is <= 1/2, run the series, square back up.
    k = 0
    y = x
    while y > Fraction(1, 2):
        y /= 2
        k += 1
    total = Fraction(1)
    term = Fraction(1)
    n = 0
    tail_target = Fraction(1, 1 << shift)
    while True:
        n += 1
        term *= y / n
        total += term
        tail = 2 * term * y / (n + 1)  # geometric bound, ratio <= 1/2
        if tail <= tail_target:
            break
    lo, hi = total, total + tail
    for _ in range(k):
        lo, hi = _round_down(lo * lo, shift), _round_up(hi * hi, shift)
    return lo, hi


def exp_bounds(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of exp(x) for rational x with width <= 2**-precision."""
    target = Fraction(1, 1 << precision)
    guard = precision + 8
    while True:
        lo, hi = _exp_pos_attempt(abs(x), guard)
        if x < 0:
            lo, hi = 1 / hi, 1 / lo
        if hi - lo <= target:
            return lo, hi
        guard *= 2
