"""Rational enclosures of ln, with directed rounding.

The powlog gauge (dimfn) and the difference app are the only callers, so
only their steps load this module, and of the powlog steps only those that
evaluate the gauge.  ln x = e ln 2 + 2 atanh((m-1)/(m+1)) for x = m * 2**e
with m in [1, 2).  The series is summed as one integer numerator over one
growing denominator, with the tail compared with its target in integers;
Fractions are built only for the results.  Every enclosure (lo, hi) has
lo <= true value <= hi, rounded outward.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _round_down(x: Fraction, shift: int) -> Fraction:
    return Fraction((x.numerator << shift) // x.denominator, 1 << shift)


def _round_up(x: Fraction, shift: int) -> Fraction:
    return Fraction(-((-x.numerator << shift) // x.denominator), 1 << shift)


def _atanh_series(t: Fraction, tail_target: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(t) for 0 <= t < 1/2 by the odd power series.

    Partial sums underestimate; the geometric tail bound is added on top.
    With t = a/b, the sum of n terms is one integer over b^(2n-1) *
    lcm(1, 3, ..., 2n-1), and the tail a^(2n+1) / (b^(2n-1) * (2n+1) *
    (b^2 - a^2)) is compared with the target in integers; Fractions are
    built only for the result.
    """
    a, b = t.numerator, t.denominator
    a2, b2 = a * a, b * b
    gap = b2 - a2  # b^2 * (1 - t^2)
    tp, tq = tail_target.numerator, tail_target.denominator
    num, bpow, odd = a, b, 1  # sum = num / (bpow * odd)
    power = a * a2  # numerator of t^(2n+1)
    m = 3  # 2n+1
    while True:
        tail_den = bpow * m * gap
        if power * tq <= tp * tail_den:
            return (
                Fraction(num, bpow * odd),
                Fraction(num * m * gap + power * odd, tail_den * odd),
            )
        g = gcd(odd, m)
        num = num * b2 * (m // g) + power * (odd // g)
        odd *= m // g
        bpow *= b2
        power *= a2
        m += 2


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
    # Split x = m * 2**e with m in [1, 2).  For num/den the first guess of e
    # gives 2**(e-1) < x < 2**(e+1), as 2**(bits-1) <= n < 2**bits for n =
    # num and den, so m < 2 and at most one doubling is needed.
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m < 1:
        e -= 1
        m *= 2
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
