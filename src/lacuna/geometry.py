"""Cube geometry: the per-level kernels.

A state's recipe (engine: d, the gauge, the patterns, the depth and the
realized schedule) fixes every corner: dyadic children sit at fixed offsets,
free avoidance children are their parents scaled, and placed children come
from the deterministic lattice rule.  advance makes one level from the one
above it and the recipe; ConstructionState.levels, the one loop that makes
levels, runs it for each level the first time the levels are read.  The
kernels work on the flat layout of engine.Level, one axis at a time over
strided slices (lowers[v::d]), and build no per-cube tuples.

Every placement is asserted to stay inside its parent as it is made
(_escape, the one containment test), so the geometry is self-verifying
against the shrink factor 2*beta between an avoidance level and its parent
level; dyadic and free children lie inside their parents by construction.

Only the code that reads levels loads this module: ConstructionState.levels
and ConstructionState.block_lattices.  `lacuna build` and `lacuna certify
--mode measure` read only the recipe, and never load it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from .engine import ConstructionState, Level, ScheduleEntry
from .errors import PlacementFailure, StructureViolation
from .pattern import NormalizedPattern
from .record import Record


class BlockLattice(Record):
    """4*peak*phi_block(Z^d) in integer units for cubes of side `side`.

    The lattice centers on axis v are steps[v]*z + shifts[v], where
    steps[v] = 4*peak*scale_v*side: the nearest of them to any point is at
    most steps[v]/2 away on axis v (place_on_lattice).
    """

    side: int
    steps: tuple[int, ...]
    shifts: tuple[int, ...]


def block_lattice(np_: NormalizedPattern, block: int, side: int) -> BlockLattice:
    """The lattice of one pattern block for an integer cube side.

    The side must be a multiple of lattice_denominator(patterns).
    """
    steps = [4 * np_.peak * s * side for s in np_.scales[block]]
    shifts = [Fraction(0)] * np_.d
    if block == np_.m - 1:
        shifts[np_.pivot] = 2 * np_.peak * side
    if side % 2 or any(x.denominator != 1 for x in steps + shifts):
        raise StructureViolation(f"cube side {side} is off the lattice of the pattern")
    return BlockLattice(
        side=side,
        steps=tuple(int(x) for x in steps),
        shifts=tuple(int(x) for x in shifts),
    )


def _escape(offsets: list[int], slack: int) -> int | None:
    """The nestedness test of place_on_lattice: the index of the first
    offset outside [0, slack], or None.

    An offset is a child's lower corner less its parent's on one axis, and
    slack is the parent's side less the child's, so a child lies inside its
    parent exactly when its offset on every axis is in [0, slack].
    """
    if min(offsets) >= 0 and max(offsets) <= slack:
        return None
    return next(i for i, t in enumerate(offsets) if not 0 <= t <= slack)


def place_on_lattice(
    parent_lowers: list[int], parent_side: int, lattice: BlockLattice
) -> list[int]:
    """Lattice children of a block of tuple-descendant cubes.

    parent_lowers holds the flat lower corners of the parents (d per cube);
    returns the flat lower corners of the children, as integer numerators
    over the child level's denominator.  Each child center is the lattice
    point c = step*z + shift nearest to its parent center pc; rounding ties
    go up.  z is not returned: it is (lower + side/2 - shift) / step, which
    is what certify recovers.  Per axis one pass computes the child lower
    corners, and containment in the parent (_escape of lower - parent
    lower, with slack = parent_side - side) is asserted exactly on every
    placement: it is what the nestedness of the tree and the
    mass-distribution bound need.  It holds whenever beta >= compute_beta
    (ball fitting), so PlacementFailure is a self-check.

    Nothing else is asserted, because the rounding makes it true:

    * the code computes z = floor((2*(pc - shift) + step) / (2*step)), so
      2*step*z <= 2*(pc - shift) + step < 2*step*z + 2*step, that is
      -step <= 2*(pc - c) < step: the miss |2*(pc - c)| is at most step on
      every axis, for any positive integer step;
    * every lattice block_lattice makes has step_v = 4*peak*scale_v*side
      <= 4*peak*max_scale*side, so with sqrt(d) <= sqrt_hi the squares of
      2*(pc - c) sum over the axes to at most d*(4*peak*max_scale*side)^2
      <= (4*peak*max_scale*sqrt_hi*side)^2: every placement is within the
      certified radius 2*peak*max_scale*sqrt(d)*side of its parent center.
    """
    d = len(lattice.steps)
    side = lattice.side
    slack = parent_side - side
    lowers = [0] * len(parent_lowers)
    for v, (step, shift) in enumerate(zip(lattice.steps, lattice.shifts)):
        parents = parent_lowers[v::d]
        up, step2, base = parent_side + step - 2 * shift, 2 * step, shift - side // 2
        lo = [step * ((2 * p + up) // step2) + base for p in parents]
        i = _escape(list(map(sub, lo, parents)), slack)
        if i is not None:
            raise PlacementFailure(
                f"lattice cube {i} escapes its parent on axis {v} (lower {lo[i]})"
            )
        lowers[v::d] = lo
    return lowers


def _dyadic_children(lowers: list[int], side: int, d: int) -> list[int]:
    """The 2^d children of every cube in index order, over the doubled
    denominator: digit bit v moves the child up by `side` on axis v."""
    width = d << d  # numerators per parent: 2^d children of d axes each
    out = [0] * (len(lowers) << d)
    for v in range(d):
        low = [2 * x for x in lowers[v::d]]
        high = [x + side for x in low]
        for digit in range(1 << d):
            out[digit * d + v :: width] = high if (digit >> v) & 1 else low
    return out


def advance(state: ConstructionState, prev: Level, entry: ScheduleEntry | None) -> Level:
    """The level after `prev`: the avoidance level of `entry`, or a dyadic
    level when entry is None."""
    d, side = state.d, state.side_num
    if entry is None:
        return Level(den=2 * prev.den, lowers=_dyadic_children(prev.lowers, side, d))
    ratio = 2 * entry.beta
    # free cubes keep their lower-corner anchor
    lowers = [ratio * x for x in prev.lowers]
    lattices = state.block_lattices(entry.pattern_id)
    for span, lattice in zip(state.tuple_spans(entry), lattices):
        lowers[span] = place_on_lattice(lowers[span], ratio * side, lattice)
    return Level(den=ratio * prev.den, lowers=lowers)
