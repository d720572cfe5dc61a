"""Linear patterns and their normal form.

A pattern is a nonzero linear form psi on m points of R^d (m*d rational
coefficients, block row = point, column = coordinate).  A set "contains" the
pattern if psi vanishes on some tuple of distinct points of the set; the
engine builds sets on which that never happens for scheduled tuples.

Normalization mirrors what the avoidance construction needs: permute the
blocks and rescale so that one coefficient is exactly 1 (the pivot).  The
normal form then fixes, from its coefficients alone,

* peak: max of |psi| over the centered unit box [-1/2,1/2]^(m*d), which
  equals half the L1 norm of the coefficients,
* scales: per-entry reciprocals 1/|b| (1 at zero entries), so that
  scale*coeff is the sign of the coefficient,
* the block maps phi: z -> (scales * z), plus a 1/2 offset at the pivot
  coordinate of the last block.

With those in hand, psi evaluated on lattice images phi(z) always lands in
Z + 1/2, hence has absolute value >= 1/2 -- the inequality every gap
certificate rests on.  certify.certify_gap re-derives it for the placed
cubes of every processed entry.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FormatError, ZeroPattern
from .jsonfile import int_field, list_field, read_json
from .qmath import format_rational, parse_rational
from .record import Record

Coeffs = tuple[tuple[Fraction, ...], ...]


class LinearPattern(Record):
    """m x d rational coefficient matrix of a linear form on m points of R^d."""

    d: int
    coeffs: Coeffs

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch("ambient dimension must be >= 1")
        if self.m < 2:
            raise DimensionMismatch("patterns need arity m >= 2")
        if any(len(row) != self.d for row in self.coeffs):
            raise DimensionMismatch("coefficient matrix must be m blocks of d entries")

    @property
    def m(self) -> int:
        return len(self.coeffs)


def make_pattern(d: int, rows: Sequence[Sequence[Fraction | int | str]]) -> LinearPattern:
    coeffs = tuple(tuple(Fraction(b) for b in row) for row in rows)
    return LinearPattern(d=d, coeffs=coeffs)


class NormalizedPattern(Record):
    """Normal form of a LinearPattern plus the constants the engine uses.

    base.coeffs[i] == original.coeffs[perm[i]] / divisor and the zero set is
    preserved:  psi_base(x[perm[0]], ..., x[perm[m-1]]) == scale * psi(x)
    with scale = 1/divisor.  peak, scales and max_scale follow from base
    alone and are made from it with the record.
    """

    base: LinearPattern
    perm: tuple[int, ...]
    scale: Fraction
    pivot: int

    def __post_init__(self):
        rows = self.base.coeffs
        scales = tuple(tuple(1 / abs(b) if b else Fraction(1) for b in row) for row in rows)
        peak = sum(abs(b) for row in rows for b in row) / 2
        self.__dict__.update(peak=peak, scales=scales, max_scale=max(map(max, scales)))

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def m(self) -> int:
        return self.base.m


def normalize(p: LinearPattern) -> NormalizedPattern:
    """Pick the pivot, swap its block last and rescale.

    The pivot is the nonzero coefficient of smallest magnitude (ties broken
    by smallest block then coordinate); minimizing the pivot keeps peak and
    the lattice scales small, which keeps beta and the schedule shallow.
    """
    nonzero = [
        (abs(b), ell, v) for ell, row in enumerate(p.coeffs) for v, b in enumerate(row) if b
    ]
    if not nonzero:
        raise ZeroPattern("all pattern coefficients vanish")
    _, ell_star, pivot = min(nonzero)
    perm = list(range(p.m))
    perm[ell_star], perm[-1] = perm[-1], perm[ell_star]
    divisor = p.coeffs[ell_star][pivot]
    rows = tuple(tuple(b / divisor for b in p.coeffs[i]) for i in perm)
    return NormalizedPattern(LinearPattern(p.d, rows), tuple(perm), 1 / divisor, pivot)


# -- pattern file I/O ------------------------------------------------------

def patterns_to_doc(d: int, patterns: Iterable[LinearPattern]) -> dict:
    return {
        "d": d,
        "patterns": [
            {
                "m": p.m,
                "coeffs": [[format_rational(b) for b in row] for row in p.coeffs],
            }
            for p in patterns
        ],
    }


def patterns_from_doc(doc: dict) -> tuple[int, list[LinearPattern]]:
    try:
        d = int_field(doc["d"], "d", 1)
        out = []
        for entry in list_field(doc["patterns"], "patterns"):
            rows = [
                [parse_rational(b) for b in list_field(row, "a coefficient row")]
                for row in list_field(entry["coeffs"], "coeffs")
            ]
            if len(rows) != int_field(entry["m"], "m", 2):
                raise FormatError("pattern arity does not match coefficient rows")
            out.append(make_pattern(d, rows))
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise FormatError(f"malformed pattern file: {exc}") from exc
    if not out:
        raise FormatError("pattern file lists no patterns")
    return d, out


def load_patterns(path: str | Path) -> tuple[int, list[LinearPattern]]:
    return patterns_from_doc(read_json(path))
