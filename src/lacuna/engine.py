"""Nested cube construction: E_0 = [1,2]^d down to a requested depth.

Levels come in two kinds.  Ordinary levels bisect every cube dyadically into
2^d children.  Avoidance levels (one per processed schedule entry) give every
cube exactly one child: cubes below a tuple member get the lattice cube

    delta_k * (4*peak*phi_block(z) + [-1/2, 1/2]^d),   z integer vector,

every other cube keeps a child anchored at its own lower corner.  Every
placement is asserted to stay inside its parent, so the construction is
self-verifying against the shrink factor 2*beta between an avoidance level
and its parent level.

All geometry is exact integer arithmetic.  Level k stores one denominator
den_k and one flat list of d * N_k integer numerators over it, the lower
corners in index order: cube i is lowers[i*d:(i+1)*d] and axis v is
lowers[v::d].  The per-level kernels (_dyadic_children, place_on_lattice,
and _escape, the one containment test, which place_on_lattice and
validate_structure share) work on such strided slices, one axis at a
time, and build no per-cube tuples.  A build uses
den_k = Q * 2^k * prod(beta applied), where Q is the lattice denominator of
the patterns (lattice_denominator): every cube side is then the integer Q
and every lattice step and shift an integer, so placement, validation, gap
recovery, the center cross-check, the spot check and the exports never
leave Z.  Rationals appear only in the gauge and measure code and in the
difference app's logarithms.

Cubes of a level are stored in address order, and the addresses are
implicit: the cube at index i of an ordinary level is child digit
i & (2^d - 1) of parent i >> d, and an avoidance level keeps its parent
level's indices.  An address is the base-2^d digit string of the index,
one digit per ordinary level; only schedule tuples are written as
addresses, with 32 digit symbols, so a state has d <= 5 (init_state).

The tree file (lacuna-tree/3) is the recipe of a build, not its geometry:
d, the gauge h, the depth, the patterns and the realized schedule.  Every
corner follows from those (dyadic children sit at fixed offsets, free cubes
are their parents scaled, placed cubes come from the deterministic lattice
rule).  So a build walks the schedule from level counts alone
(schedule.walk_schedule) and then makes the levels from it, and the reader
(lacuna.reader, loaded by read_tree) checks the recipe and makes the levels
with the same loop, build_levels.  A build and a read refuse a tree of more
than MAX_LEAF_CUBES deepest-level cubes before any level is made.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub
from pathlib import Path
from typing import Sequence

from .dimfn import DimensionFunction
from .errors import (
    PlacementFailure,
    ScheduleOverflow,
    StructureViolation,
    UnsupportedDimension,
    ZeroPattern,
)
from .jsonfile import read_json, write_json
from .pattern import (
    LinearPattern,
    NormalizedPattern,
    normalize,
    patterns_to_doc,
)
from .record import Record
from .schedule import DEFAULT_LEVEL_CAP, ScheduleEntry, delta_candidate, walk_schedule

_ADDRESS_ALPHABET = "0123456789abcdefghijklmnopqrstuv"
#: Largest d whose 2^d address digits the alphabet holds.
MAX_D = len(_ADDRESS_ALPHABET).bit_length() - 1

#: Most cubes a level may hold, in a build and in a tree read from a file.
#: A tree file is a few hundred bytes however many cubes it asks for, so
#: this bound, not the file's size, bounds the work of reading it.
MAX_LEAF_CUBES = 2**20

Vector = tuple[Fraction, ...]


def render_address(code: int, ndigits: int, d: int) -> str:
    out = []
    for _ in range(ndigits):
        out.append(_ADDRESS_ALPHABET[code & ((1 << d) - 1)])
        code >>= d
    return "".join(reversed(out))


def lattice_denominator(normalized: Sequence[NormalizedPattern]) -> int:
    """Q: least common denominator of 1/2 and, over all patterns, of 2*peak
    and every lattice step 4*peak*scale.

    With cube side Q every lattice center and lower corner is an integer.
    """
    q = 2
    for np_ in normalized:
        q = lcm(q, (2 * np_.peak).denominator)
        for row in np_.scales:
            for s in row:
                q = lcm(q, (4 * np_.peak * s).denominator)
    return q


class Level(Record, frozen=False):
    """Cubes of one level in address order: cube i has the lower corner
    lowers[i*d:(i+1)*d] / den."""

    den: int
    lowers: list[int]


class ConstructionState(Record, frozen=False):
    """The whole build: geometry per level plus the realized schedule."""

    d: int
    h: DimensionFunction
    patterns: tuple[LinearPattern, ...]
    normalized: tuple[NormalizedPattern, ...]
    level_cap: int
    levels: list[Level]
    entries: list[ScheduleEntry]

    def __post_init__(self) -> None:
        self._lattices: dict[int, list[BlockLattice]] = {}  # not a field

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def m_levels(self) -> list[int]:
        """The avoidance levels M_i of the processed entries, in order."""
        return [e.m_level for e in self.entries]

    def processed_betas(self) -> list[int]:
        return [e.beta for e in self.entries]

    def ndigits(self, level: int) -> int:
        return level - sum(1 for M in self.m_levels if M <= level)

    def side(self, level: int) -> Fraction:
        applied = [e.beta for e in self.entries if e.m_level <= level]
        return delta_candidate(level, applied)

    @property
    def side_num(self) -> int:
        """The side of every level as a numerator over its denominator.

        It is the level-0 denominator Q at every level: a level's
        denominator grows by exactly the factor its side shrinks.
        """
        return self.levels[0].den

    def block_lattices(self, pattern_id: int) -> list[BlockLattice]:
        """The lattice of each block of a pattern, made once per state: every
        level's cube side is the same integer Q (side_num), so every
        avoidance level of the pattern, in the build and in certify_gap,
        uses the same lattices."""
        if pattern_id not in self._lattices:
            np_ = self.normalized[pattern_id]
            self._lattices[pattern_id] = [
                block_lattice(np_, b, self.side_num) for b in range(np_.m)
            ]
        return self._lattices[pattern_id]

    def expected_count(self, level: int) -> int:
        return 1 << (self.d * self.ndigits(level))

    def count(self, level: int) -> int:
        """The number of cubes the level holds."""
        return len(self.levels[level].lowers) // self.d

    def leaf_center_numerators(self) -> tuple[int, list[int]]:
        """(den, centers): deepest-level cube centers as numerators over den,
        flat like the lower corners (d per cube, in index order)."""
        leaf = self.levels[self.depth]
        s = self.side_num
        return 2 * leaf.den, [2 * x + s for x in leaf.lowers]

    def tuple_spans(self, entry: ScheduleEntry) -> list[slice]:
        """Per tuple member of the entry, the slice of the flat numerators of
        levels M_i - 1 and M_i (which share indices) under that member.
        """
        d = self.d
        shift = d * (self.ndigits(entry.m_level - 1) - self.ndigits(entry.level))
        return [slice(d * (t << shift), d * ((t + 1) << shift)) for t in entry.tuple_codes]


def init_state(
    d: int,
    patterns: Sequence[LinearPattern],
    h: DimensionFunction,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> ConstructionState:
    """Fresh state holding the single level-0 cube [1,2]^d."""
    if d > MAX_D:
        raise UnsupportedDimension(f"d={d}: tuple addresses exist for d <= {MAX_D} only")
    if not patterns:
        raise ZeroPattern("at least one pattern is required")
    if h.d != d:
        raise StructureViolation(f"gauge certified for d={h.d}, build is d={d}")
    for p in patterns:
        if p.d != d:
            raise StructureViolation("pattern dimension does not match the build")
    normalized = tuple(normalize(p) for p in patterns)
    q = lattice_denominator(normalized)
    return ConstructionState(
        d=d,
        h=h,
        patterns=tuple(patterns),
        normalized=normalized,
        level_cap=level_cap,
        levels=[Level(den=q, lowers=[q] * d)],
        entries=[],
    )


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
    """The nestedness test, for place_on_lattice and validate_structure
    alike: the index of the first offset outside [0, slack], or None.

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


def _advance(state: ConstructionState, k: int, entry: ScheduleEntry | None) -> None:
    """Append level k: the avoidance level of `entry`, or a dyadic level."""
    d, prev, side = state.d, state.levels[-1], state.side_num
    if entry is None:
        lowers = _dyadic_children(prev.lowers, side, d)
        state.levels.append(Level(den=2 * prev.den, lowers=lowers))
        return
    ratio = 2 * entry.beta
    # free cubes keep their lower-corner anchor
    lowers = [ratio * x for x in prev.lowers]
    lattices = state.block_lattices(entry.pattern_id)
    for span, lattice in zip(state.tuple_spans(entry), lattices):
        lowers[span] = place_on_lattice(lowers[span], ratio * side, lattice)
    state.levels.append(Level(den=ratio * prev.den, lowers=lowers))


def build_levels(state: ConstructionState, depth: int) -> None:
    """Append levels state.depth + 1 .. depth from the state's entries: the
    one geometry loop, which build and the tree reader both run.  Level k
    is the avoidance level of the entry with M_i = k, or a dyadic level."""
    by_level = {e.m_level: e for e in state.entries}
    for k in range(state.depth + 1, depth + 1):
        _advance(state, k, by_level.get(k))


def build(state: ConstructionState, depth: int) -> ConstructionState:
    """Advance to the requested depth; deterministic in all inputs.

    A depth above the state's level cap is refused before any level is
    built, and so is a level of more than MAX_LEAF_CUBES cubes: the
    schedule (schedule.walk_schedule) is walked from the level counts
    alone, and no level past the depth is tested.  The state's entries
    must be the walked entries that land at levels up to the state's depth
    (StructureViolation otherwise, as for a tree whose schedule was
    edited); the new levels are then built by build_levels.
    """
    if depth < 0:
        raise StructureViolation("depth must be >= 0")
    if depth > state.level_cap:
        raise ScheduleOverflow(f"depth {depth} exceeds the level cap {state.level_cap}")
    depth = max(depth, state.depth)
    entries = walk_schedule(state.normalized, state.h, depth, MAX_LEAF_CUBES)
    if [e for e in entries if e.m_level <= state.depth] != state.entries:
        raise StructureViolation(
            f"the schedule to depth {state.depth} is not the one a build serves"
        )
    state.entries = entries
    build_levels(state, depth)
    return state


def build_tree(
    d: int,
    patterns: Sequence[LinearPattern],
    h: DimensionFunction,
    depth: int,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> ConstructionState:
    return build(init_state(d, patterns, h, level_cap), depth)


# -- structural validation --------------------------------------------------

def validate_structure(state: ConstructionState) -> None:
    """Exact re-verification of the cube counts and of nestedness.

    Every level must hold the profile's cube count, and every avoidance
    child must lie inside its unique parent: the mass-distribution argument
    rests on the tree being nested.  Dyadic children sit at their offsets by
    construction (_dyadic_children), in a build and in a read alike.
    """
    d = state.d
    for k, level in enumerate(state.levels):
        if len(level.lowers) != d * state.expected_count(k):
            raise StructureViolation(f"level {k}: cube count != profile value")
    for k in state.m_levels:
        level, parent = state.levels[k], state.levels[k - 1]
        ratio = level.den // parent.den
        slack = (ratio - 1) * state.side_num
        # an avoidance level keeps its parent level's indices, so numerator
        # j of the level lies over numerator j of its parent level
        offsets = [x - ratio * p for x, p in zip(level.lowers, parent.lowers)]
        j = _escape(offsets, slack)
        if j is not None:
            raise StructureViolation(
                f"level {k}: cube {j // d} escapes its parent on axis {j % d}"
            )


# -- tree (de)serialization -----------------------------------------------------

TREE_FORMAT = "lacuna-tree/3"


def state_to_doc(state: ConstructionState) -> dict:
    pat_doc = patterns_to_doc(state.d, state.patterns)
    return {
        "format": TREE_FORMAT,
        "d": state.d,
        "h": state.h.spec_string(),
        "depth": state.depth,
        "patterns": pat_doc["patterns"],
        "schedule": [entry_to_doc(state, e) for e in state.entries],
    }


def entry_to_doc(state: ConstructionState, e: ScheduleEntry) -> dict:
    nd = state.ndigits(e.level)
    return {
        "i": e.index,
        "pattern_id": e.pattern_id,
        "level": e.level,
        "tuple": [render_address(c, nd, state.d) for c in e.tuple_codes],
        "M_i": e.m_level,
        "beta_i": e.beta,
    }


def write_tree(state: ConstructionState, path: str | Path) -> None:
    write_json(state_to_doc(state), path)


def read_tree(path: str | Path) -> ConstructionState:
    """The state a tree file describes, checked and rebuilt by
    reader.doc_to_state; only the steps that read a tree load the reader."""
    from .reader import doc_to_state

    return doc_to_state(read_json(path))

