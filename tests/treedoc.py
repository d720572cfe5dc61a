"""Edits of lacuna-tree/2 documents for the tampered-tree tests."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def corner(doc: dict, k: int, i: int) -> tuple[Fraction, ...]:
    """The lower corner of cube i of level k."""
    d, lvl = doc["d"], doc["levels"][k]
    return tuple(Fraction(x, lvl["den"]) for x in lvl["lowers"][i * d : (i + 1) * d])


def set_lower(doc: dict, k: int, i: int, lower: Sequence[Fraction]) -> None:
    """Move cube i of level k to the lower corner `lower`, widening the
    level's denominator when the corner is off it."""
    d, lvl = doc["d"], doc["levels"][k]
    den = lcm(lvl["den"], *(Fraction(x).denominator for x in lower))
    lowers = [x * (den // lvl["den"]) for x in lvl["lowers"]]
    lowers[i * d : (i + 1) * d] = [int(Fraction(x) * den) for x in lower]
    lvl["den"], lvl["lowers"] = den, lowers
