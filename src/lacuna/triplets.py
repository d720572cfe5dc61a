"""The complex_triplets app: no similar copy of given complex triplets.

A triplet of Gaussian rationals (exact complex numbers a + b*i) gives a
complex linear form that vanishes exactly on similar copies of it; the
C = R^2 identification splits the form into two real d=2 patterns.
apps.app_patterns imports this module for the complex_triplets kind only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .apps import split_vector_pattern
from .errors import DegenerateTriplet
from .pattern import LinearPattern
from .record import Record


class GaussianRational(Record):
    """Exact complex rational a + b*i."""

    re: Fraction
    im: Fraction

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )


def complex_triplet_patterns(
    triplets: Sequence[Sequence[GaussianRational]],
) -> list[LinearPattern]:
    """Two real d=2, m=3 patterns per triplet so no similar copy survives.

    For a triplet (x, y, z) let a = (z-x)/(z-y); the complex linear form
    x - a*y + (a-1)*z vanishes exactly on similar copies of the triplet,
    and its real and imaginary parts become patterns over R^2.
    """
    out = []
    for x, y, z in triplets:
        if x == y or y == z or x == z:
            raise DegenerateTriplet("triplet entries must be pairwise distinct")
        alpha = (z - x) / (z - y)
        one = GaussianRational(Fraction(1), Fraction(0))
        coeffs = (one, GaussianRational(Fraction(0), Fraction(0)) - alpha, alpha - one)
        rows = [[], []]
        for g in coeffs:  # (g.re + g.im*i) * (u + v*i): re = g.re*u - g.im*v
            rows[0].extend([g.re, -g.im])
            rows[1].extend([g.im, g.re])
        out.extend(split_vector_pattern(2, 3, rows))
    return out
