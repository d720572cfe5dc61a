"""Nested cube construction: E_0 = [1,2]^d down to a requested depth.

Levels come in two kinds.  Ordinary levels bisect every cube dyadically into
2^d children.  Avoidance levels (one per processed schedule entry) give every
cube exactly one child: cubes below a tuple member get the lattice cube

    delta_k * (4*peak*phi_block(z) + [-1/2, 1/2]^d),   z integer vector,

every other cube keeps a child anchored at its own lower corner.

This module holds the recipe of a build and what reads or writes it: the
state (ConstructionState), the records of its schedule (ScheduleEntry,
compute_beta, the ratio condition and the caps, which the reader, the
geometry and certify_measure check against), build, which fills in its
entries and depth by the schedule walk, validate_structure and the tree
file.  A state and its gauge check themselves as they are made, by
init_state, replace or the reader; build checks what it extends a state by.
A state is its recipe: ConstructionState.walk, the one loop that makes
levels, makes each from the one before it with the per-level kernel
geometry.advance; the state holds level 0 alone.  Every reader of levels
walks, and holds one level at a time (two while the next is made): certify
to the last avoidance level, the exports and the difference report to the
depth.  lacuna.geometry is loaded only by code that makes a level past 0.
There every placement is asserted to stay inside its parent as it is made
(PlacementFailure, a self-check: it cannot fire while beta >= compute_beta,
which the reader enforces on files), and the rest of nestedness holds by
construction.  `lacuna build` and `certify --mode measure` make no level,
and so run no self-check: certify's other modes and app make every level
through the last avoidance level, and export every level, and run it.

All geometry is exact integer arithmetic.  Level k stores one denominator
den_k and one flat list of d * N_k integer numerators over it, the lower
corners in index order: cube i is lowers[i*d:(i+1)*d] and axis v is
lowers[v::d].  A build uses den_k = Q * 2^k * prod(beta applied), where Q
is the lattice denominator of the patterns (lattice_denominator): every
cube side is then the integer Q and every lattice step and shift an
integer, so placement, validation, gap recovery, the center cross-check,
the spot check and the exports never leave Z.  Rationals appear only in
the gauge and measure code and in the difference app's logarithms.

Cubes of a level are stored in address order, and the addresses are
implicit: the cube at index i of an ordinary level is child digit
i & (2^d - 1) of parent i >> d, and an avoidance level keeps its parent
level's indices.  An address is the base-2^d digit string of the index,
one digit per ordinary level; only schedule tuples are written as
addresses, with 32 digit symbols, so a state has d <= 5 (ConstructionState).

The tree file (lacuna-tree/3) is the recipe of a build, not its geometry:
d, the gauge h, the depth, the patterns and the realized schedule.  Every
corner follows from those (dyadic children sit at fixed offsets, free cubes
are their parents scaled, placed cubes come from the deterministic lattice
rule).  So build walks the schedule from level counts alone
(schedule.walk_schedule, loaded by build only), and the reader
(lacuna.reader, loaded by read_tree) checks the recipe and makes no level.
A build and a read refuse a tree of more than MAX_LEAF_CUBES
deepest-level cubes, and certify settles the measure, before any level is
made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import ceil, isqrt, lcm
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .dimfn import DimensionFunction
from .errors import (
    OutOfDomain,
    ScheduleOverflow,
    StructureViolation,
    Undecidable,
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

if TYPE_CHECKING:
    from .geometry import BlockLattice

_ADDRESS_ALPHABET = "0123456789abcdefghijklmnopqrstuv"
#: Largest d whose 2^d address digits the alphabet holds.
MAX_D = len(_ADDRESS_ALPHABET).bit_length() - 1

# -- the schedule's records ---------------------------------------------------
# What a recipe's schedule is made of, and the conditions that every step
# checks against it (the tree reader, the geometry and certify_measure).
# The walk that serves the entries is in lacuna.schedule, which only the
# steps that build (build, app) load, through build.

#: Enclosure width for sqrt(d): hi - lo < 2**-SQRT_PRECISION.
SQRT_PRECISION = 21

DEFAULT_LEVEL_CAP = 96

#: Most cubes a level may hold, in a build and in a tree read from a file.
#: A tree file is a few hundred bytes however many cubes it asks for, so
#: this bound, not the file's size, bounds the work of reading it.
MAX_LEAF_CUBES = 2**20


def sqrt_d_bounds(d: int) -> tuple[Fraction, Fraction]:
    """A fixed rational enclosure of sqrt(d): consecutive numerators over
    2**(SQRT_PRECISION + 1), exact (lo == hi) when d is a square.  The
    upper bound is the conservative direction both for beta (a larger beta
    only helps the fit) and for the ratio condition (the ratio is
    non-increasing, so certifying at an over-approximated radius certifies
    the true one)."""
    shift = SQRT_PRECISION + 1
    n = d << 2 * shift
    lo = isqrt(n)
    return Fraction(lo, 1 << shift), Fraction(lo + (lo * lo < n), 1 << shift)


class ScheduleEntry(Record):
    """One served occurrence: pattern, tuple of cube labels, avoidance level.

    tuple_codes are indices of cubes of one level (an index read as a
    base-2^d digit string is the cube's address), pairwise distinct, at a
    level <= m_level - 2.
    """

    index: int
    pattern_id: int
    level: int
    tuple_codes: tuple[int, ...]
    m_level: int
    beta: int


def compute_beta(np_: NormalizedPattern, d: int) -> int:
    """Smallest integer beta meeting the arity and ball-fitting constraints:
    beta >= m and beta/2 >= max_scale * 2*peak*sqrt(d) + sqrt(d)/2 (a
    lattice cell plus slack fits inside the shrunk parent).  A build uses
    it, and the tree reader rejects a smaller beta_i."""
    _, hi = sqrt_d_bounds(d)
    need = hi * (4 * np_.peak * np_.max_scale + 1)
    return max(np_.m, ceil(need))


def ratio_threshold(i: int, betas: list[int] | tuple[int, ...], d: int) -> int:
    """2^(i*d) * (beta_1 * ... * beta_i)^d for the i-th served entry."""
    return (2**i * reduce(mul, betas[:i], 1)) ** d


def delta_candidate(k: int, betas_applied: list[int] | tuple[int, ...]) -> Fraction:
    """Side length 2^-k * prod(1/beta) once the given betas are all active."""
    return Fraction(1, (1 << k) * reduce(mul, betas_applied, 1))


def ratio_condition(
    h: DimensionFunction, k: int, betas: list[int] | tuple[int, ...]
) -> bool:
    """Certified ratio condition of entry i = len(betas) at level k: the
    ratio h(r)/r^d clears 2^(i*d) * prod_j<=i beta_j^d.

    The radius r is sqrt(d) (rounded up) times the side 2^-k /
    (beta_1...beta_i): the entry's own beta is already active at its level.
    It is the one test of the condition: the schedule walk tests it at the
    levels it reaches, and certify_measure at every level from the first
    avoidance level to the depth.  The gauge's monotone-ratio witness
    extends a pass at M_i to every k >= M_i.  Arguments outside the gauge's
    domain and comparisons left undecided do not satisfy it.
    """
    _, hi = sqrt_d_bounds(h.d)
    r = hi * delta_candidate(k, betas)
    try:
        return h.ratio_ge(r, Fraction(ratio_threshold(len(betas), betas, h.d)))
    except (OutOfDomain, Undecidable):
        return False


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


class Level(Record):
    """Cubes of one level in address order: cube i has the lower corner
    lowers[i*d:(i+1)*d] / den."""

    den: int
    lowers: list[int]


class ConstructionState(Record):
    """The whole build: its recipe (h, the patterns, the realized schedule
    and the depth), which fixes the levels 0..depth.

    The fields are the recipe alone; d is the gauge's, and a state refuses
    d > MAX_D, no pattern, or a pattern of another d.  The normal forms of
    the patterns and level 0 are made with the state and kept; walk makes
    the other levels, one at a time, each time they are read.  build
    extends its entries and depth in place.
    """

    h: DimensionFunction
    patterns: tuple[LinearPattern, ...]
    level_cap: int
    entries: list[ScheduleEntry]
    depth: int

    def __post_init__(self) -> None:
        d = self.d
        if d > MAX_D:
            raise UnsupportedDimension(f"d={d}: tuple addresses exist for d <= {MAX_D} only")
        if not self.patterns:
            raise ZeroPattern("at least one pattern is required")
        if any(p.d != d for p in self.patterns):
            raise StructureViolation("pattern dimension does not match the build")
        # not fields: the normal forms, level 0, and the lattices
        normalized = tuple(normalize(p) for p in self.patterns)
        q = lattice_denominator(normalized)
        self.__dict__.update(normalized=normalized, _level0=Level(q, [q] * d), _lattices={})

    @property
    def d(self) -> int:
        return self.h.d

    @property
    def levels(self) -> list[Level]:
        """Levels 0..depth, walked on every read and not kept.  No command
        reads them; the property stays while the benchmark's traced replay
        (bench/replay.py) reads it."""
        return [level for _, level in self.walk(self.depth)]

    def walk(self, stop: int) -> Iterator[tuple[int, Level]]:
        """(k, level) for k = 0..stop, the one loop that makes levels.

        Level 0 comes as the state holds it.  Each later level is made from
        the one before it by geometry.advance, as the avoidance level of the
        entry with M_i = k or as a dyadic level, and the walk holds it only
        until the next one is made.  Every placed cube is asserted inside
        its parent as it is made (PlacementFailure).  lacuna.geometry is
        loaded only when a level past 0 is made, so a walk that stops at
        level 0 loads none.
        """
        level = self._level0
        yield 0, level
        if stop > 0:
            from .geometry import advance

            by_level = {e.m_level: e for e in self.entries}
            for k in range(1, stop + 1):
                level = advance(self, level, by_level.get(k))
                yield k, level

    @property
    def m_levels(self) -> list[int]:
        """The avoidance levels M_i of the processed entries, in order."""
        return [e.m_level for e in self.entries]

    def processed_betas(self) -> list[int]:
        return [e.beta for e in self.entries]

    def ndigits(self, level: int) -> int:
        return level - sum(1 for M in self.m_levels if M <= level)

    def side(self, level: int) -> Fraction:
        return delta_candidate(level, [e.beta for e in self.entries if e.m_level <= level])

    @property
    def side_num(self) -> int:
        """The side of every level as a numerator over its denominator.

        It is the level-0 denominator Q at every level: a level's
        denominator grows by exactly the factor its side shrinks.  It reads
        level 0, which the state holds from the start, since making the
        other levels reads it.
        """
        return self._level0.den

    def block_lattices(self, pattern_id: int) -> list[BlockLattice]:
        """The lattice of each block of a pattern, made once per state: every
        level's cube side is the same integer Q (side_num), so every
        avoidance level of the pattern, in the build and in certify_gap,
        uses the same lattices."""
        from .geometry import block_lattice

        if pattern_id not in self._lattices:
            np_ = self.normalized[pattern_id]
            self._lattices[pattern_id] = [
                block_lattice(np_, b, self.side_num) for b in range(np_.m)
            ]
        return self._lattices[pattern_id]

    def expected_count(self, level: int) -> int:
        return 1 << (self.d * self.ndigits(level))

    def leaf_center_numerators(self) -> tuple[int, list[int]]:
        """(den, centers): deepest-level cube centers as numerators over den,
        flat like the lower corners (d per cube, in index order).  The walk
        to the depth holds one level at a time; only the leaves are kept."""
        for _, leaf in self.walk(self.depth):
            pass
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
    """Fresh state holding the single level-0 cube [1,2]^d; the state
    checks the rest of its recipe (ConstructionState)."""
    if h.d != d:
        raise StructureViolation(f"gauge certified for d={h.d}, build is d={d}")
    return ConstructionState(
        h=h, patterns=tuple(patterns), level_cap=level_cap, entries=[], depth=0
    )


def build(state: ConstructionState, depth: int) -> ConstructionState:
    """Extend the state's recipe to the requested depth, its entries and
    its depth; deterministic in all inputs.  No level is made here: the
    levels follow from the recipe, walked each time they are read.

    A depth above the state's level cap is refused, and so is a level of
    more than MAX_LEAF_CUBES cubes: the schedule
    (schedule.walk_schedule) is walked from the level counts alone, and no
    level past the depth is tested.  The state's entries must be the walked
    entries that land at levels up to the state's depth (StructureViolation
    otherwise, as for a tree whose schedule was edited).  A refused state
    is left as it was.  The one in-place change of a record: the caller
    reads the state it passed in.
    """
    from .schedule import walk_schedule

    if depth < 0:
        raise StructureViolation("depth must be >= 0")
    if depth > state.level_cap:
        raise ScheduleOverflow(f"depth {depth} exceeds the level cap {state.level_cap}")
    depth = max(depth, state.depth)
    entries = walk_schedule(state.normalized, state.h, depth)
    if [e for e in entries if e.m_level <= state.depth] != state.entries:
        raise StructureViolation(
            f"the schedule to depth {state.depth} is not the one a build serves"
        )
    state.__dict__.update(entries=entries, depth=depth)
    return state


def build_tree(
    d: int,
    patterns: Sequence[LinearPattern],
    h: DimensionFunction,
    depth: int,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> ConstructionState:
    """A fresh state (init_state) built to the given depth: what
    `lacuna build` writes with write_tree, and what run_app certifies."""
    return build(init_state(d, patterns, h, level_cap), depth)


# -- structural validation --------------------------------------------------

def validate_structure(state: ConstructionState) -> None:
    """Walk levels 0..depth and keep none, so that every placed cube is
    asserted inside its parent as it is made; the rest of nestedness, and
    the counts the measure reads from the recipe, hold by construction (see
    the module docstring).  No command calls this: certify_tree asserts the
    same placements in its walk to the last avoidance level, past which
    every level is dyadic and asserts nothing.  It stays while the
    benchmark's traced replay (bench/replay.py) wraps it as span
    engine.validate.
    """
    for _ in state.walk(state.depth):
        pass


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
    """The state a tree file describes, its recipe checked by
    reader.doc_to_state; only the steps that read a tree load the reader."""
    from .reader import doc_to_state

    return doc_to_state(read_json(path))

