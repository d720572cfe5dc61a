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
den_k and every lower corner as a tuple of integer numerators over it.  A
build uses den_k = Q * 2^k * prod(beta applied), where Q is the lattice
denominator of the patterns (lattice_denominator): every cube side is then
the integer Q and every lattice step and shift an integer, so placement,
validation and gap recovery never leave Z.  Rationals appear only in the
gauge, measure, spot-check and export code.

Cubes of a level are stored in address order, and the addresses are
implicit: the cube at index i of an ordinary level is child digit
i & (2^d - 1) of parent i >> d, and an avoidance level keeps its parent
level's indices.  An address is the base-2^d digit string of the index,
one digit per ordinary level; only schedule tuples are written as
addresses.

The tree file (lacuna-tree/2) holds the same integers: per level one
{"den": den_k, "lowers": [...]} record whose lowers list the d numerators
of every lower corner in index order, one flat list.  The schedule is
stored once; the betas and avoidance levels are read from its entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add
from pathlib import Path
from typing import Sequence

from .dimfn import DimensionFunction, parse_dimfn
from .errors import (
    FormatError,
    PlacementFailure,
    ScheduleOverflow,
    Starved,
    StructureViolation,
    ZeroPattern,
)
from .jsonfile import int_field, read_json, write_json
from .pattern import (
    LinearPattern,
    NormalizedPattern,
    normalize,
    patterns_from_doc,
    patterns_to_doc,
)
from .schedule import (
    DEFAULT_LEVEL_CAP,
    ScheduleEntry,
    Scheduler,
    compute_beta,
    delta_candidate,
    sqrt_d_bounds,
)

_ADDRESS_ALPHABET = "0123456789abcdefghijklmnopqrstuv"

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def _digits(d: int) -> str:
    base = 1 << d
    if base > len(_ADDRESS_ALPHABET):
        raise StructureViolation(f"cannot render addresses for d={d}")
    return _ADDRESS_ALPHABET[:base]


def render_address(code: int, ndigits: int, d: int) -> str:
    digits = _digits(d)
    out = []
    for _ in range(ndigits):
        out.append(digits[code & ((1 << d) - 1)])
        code >>= d
    return "".join(reversed(out))


def parse_address(text: str, d: int) -> int:
    base = 1 << d
    code = 0
    for ch in text:
        v = _ADDRESS_ALPHABET.index(ch)
        if v >= base:
            raise FormatError(f"address digit {ch!r} out of range for d={d}")
        code = (code << d) | v
    return code


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


@dataclass
class Level:
    """Cubes of one level in address order; lower corners are lowers[i]/den."""

    den: int
    lowers: list[IntVector]


@dataclass
class ConstructionState:
    """The whole build: geometry per level plus the realized schedule."""

    d: int
    h: DimensionFunction
    patterns: tuple[LinearPattern, ...]
    normalized: tuple[NormalizedPattern, ...]
    level_cap: int
    levels: list[Level]
    m_levels: list[int] = field(default_factory=list)
    entries: list[ScheduleEntry] = field(default_factory=list)
    scheduler: Scheduler | None = None
    pending: ScheduleEntry | None = None

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def processed_betas(self) -> list[int]:
        return [e.beta for e in self.entries]

    def ndigits(self, level: int) -> int:
        return level - sum(1 for M in self.m_levels if M <= level)

    def side(self, level: int) -> Fraction:
        applied = [e.beta for e in self.entries if e.m_level <= level]
        return delta_candidate(level, applied)

    def inv_side(self, level: int) -> int:
        """1/side of the level: 2^level times the betas active there."""
        return self.side(level).denominator

    def side_num(self, level: int) -> int:
        """The side of the level as a numerator over its denominator."""
        return self.levels[level].den // self.inv_side(level)

    def expected_count(self, level: int) -> int:
        return 1 << (self.d * self.ndigits(level))

    def leaf_center_numerators(self) -> tuple[int, list[IntVector]]:
        """(den, centers): deepest-level cube centers as numerators over den."""
        leaf = self.levels[self.depth]
        s = self.side_num(self.depth)
        return 2 * leaf.den, [tuple(2 * x + s for x in lower) for lower in leaf.lowers]

    def leaf_centers(self) -> list[Vector]:
        den, centers = self.leaf_center_numerators()
        return [tuple(Fraction(c, den) for c in center) for center in centers]


def init_state(
    d: int,
    patterns: Sequence[LinearPattern],
    h: DimensionFunction,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> ConstructionState:
    """Fresh state holding the single level-0 cube [1,2]^d."""
    if not patterns:
        raise ZeroPattern("at least one pattern is required")
    if h.d != d:
        raise StructureViolation(f"gauge certified for d={h.d}, build is d={d}")
    for p in patterns:
        if p.d != d:
            raise StructureViolation("pattern dimension does not match the build")
    normalized = tuple(normalize(p) for p in patterns)
    q = lattice_denominator(normalized)
    state = ConstructionState(
        d=d,
        h=h,
        patterns=tuple(patterns),
        normalized=normalized,
        level_cap=level_cap,
        levels=[Level(den=q, lowers=[(q,) * d])],
    )
    state.scheduler = Scheduler(list(normalized), h)
    return state


@dataclass(frozen=True)
class BlockLattice:
    """4*peak*phi_block(Z^d) in integer units for cubes of side `side`.

    The lattice centers on axis v are steps[v]*z + shifts[v].  A placement
    may miss its parent's center by steps[v]/2 on axis v (2*peak*scale
    side lengths), and by sqrt(ball_num/ball_den)/2 in Euclidean norm.
    """

    side: int
    steps: tuple[int, ...]
    shifts: tuple[int, ...]
    ball_num: int
    ball_den: int


def block_lattice(
    np_: NormalizedPattern, block: int, side: int, sqrt_d_hi: Fraction
) -> BlockLattice:
    """The lattice of one pattern block for an integer cube side.

    The side must be a multiple of lattice_denominator(patterns).
    """
    steps = [4 * np_.peak * s * side for s in np_.scales[block]]
    shifts = [Fraction(0)] * np_.d
    if block == np_.m - 1:
        shifts[np_.pivot] = 2 * np_.peak * side
    if side % 2 or any(x.denominator != 1 for x in steps + shifts):
        raise StructureViolation(f"cube side {side} is off the lattice of the pattern")
    # twice the certified radius 2*peak*max_scale*sqrt(d)*side, squared
    ball = (4 * np_.peak * np_.max_scale * sqrt_d_hi * side) ** 2
    return BlockLattice(
        side=side,
        steps=tuple(int(x) for x in steps),
        shifts=tuple(int(x) for x in shifts),
        ball_num=ball.numerator,
        ball_den=ball.denominator,
    )


def place_on_lattice(
    parent_lower: IntVector, parent_side: int, lattice: BlockLattice
) -> tuple[IntVector, IntVector]:
    """Lattice child of a tuple-descendant cube; returns (lower corner, z).

    Lengths are integer numerators over the child level's denominator.  The
    child center is the lattice point nearest to the parent center; rounding
    ties go up.  The per-axis miss bound 2*peak*scale*side (hence the
    Euclidean bound 2*peak*max_scale*sqrt(d)*side) and containment in the
    parent are asserted exactly on every placement.
    """
    side = lattice.side
    z: list[int] = []
    lower: list[int] = []
    err_sq = 0
    for v, (pl, step, shift) in enumerate(zip(parent_lower, lattice.steps, lattice.shifts)):
        x2 = 2 * pl + parent_side  # twice the parent center
        z_v = (x2 - 2 * shift + step) // (2 * step)
        center = step * z_v + shift
        err2 = x2 - 2 * center
        if abs(err2) > step:
            raise PlacementFailure(
                f"lattice point misses the parent center by {Fraction(err2, 2 * side)} "
                f"sides on axis {v}"
            )
        err_sq += err2 * err2
        lo = center - side // 2
        if lo < pl or lo + side > pl + parent_side:
            raise PlacementFailure(
                f"lattice cube escapes its parent on axis {v} (lower {lo})"
            )
        z.append(z_v)
        lower.append(lo)
    if err_sq * lattice.ball_den > lattice.ball_num:
        raise PlacementFailure("lattice offset exceeds the certified ball radius")
    return tuple(lower), tuple(z)


def _dyadic_children(
    lowers: list[IntVector], ratio: int, side: int, d: int
) -> list[IntVector]:
    """The 2^d children of every cube in index order: digit bit v moves the
    child up by `side` on axis v.  The children's denominator is `ratio`
    times the parents'."""
    offsets = [
        tuple(side if (digit >> v) & 1 else 0 for v in range(d))
        for digit in range(1 << d)
    ]
    return [
        tuple(map(add, base, off))
        for base in (tuple([ratio * x for x in lower]) for lower in lowers)
        for off in offsets
    ]


def _advance_dyadic(state: ConstructionState, k: int) -> None:
    prev = state.levels[-1]
    side = state.side_num(k - 1)  # the child side over the doubled denominator
    lowers = _dyadic_children(prev.lowers, 2, side, state.d)
    state.levels.append(Level(den=2 * prev.den, lowers=lowers))


def _advance_avoidance(state: ConstructionState, k: int, entry: ScheduleEntry) -> None:
    np_ = state.normalized[entry.pattern_id]
    prev = state.levels[-1]
    ratio = 2 * entry.beta
    side = state.side_num(k - 1)  # child side over the new denominator
    _, sqrt_hi = sqrt_d_bounds(state.d)
    # free cubes keep their lower-corner anchor
    lowers = [tuple(ratio * x for x in lower) for lower in prev.lowers]
    shift = state.d * (state.ndigits(k - 1) - state.ndigits(entry.level))
    for block, member in enumerate(entry.tuple_codes):
        lattice = block_lattice(np_, block, side, sqrt_hi)
        for i in range(member << shift, (member + 1) << shift):
            lowers[i], _ = place_on_lattice(lowers[i], ratio * side, lattice)
    state.levels.append(Level(den=ratio * prev.den, lowers=lowers))


def advance_level(state: ConstructionState) -> None:
    """Construct the next level, pulling a schedule entry when one is due.

    The pending entry lands on the first level at or above its floor where
    its ratio condition holds (Scheduler.land), so the search for an
    avoidance level never tests a level past the one being built.
    """
    k = state.depth + 1
    if k > state.level_cap:
        raise ScheduleOverflow(f"depth {k} exceeds the level cap {state.level_cap}")
    if state.scheduler is None:
        raise StructureViolation("state was loaded from a tree file; rebuild instead")
    if state.pending is None:
        try:
            state.pending = state.scheduler.next_entry(
                [len(lvl.lowers) for lvl in state.levels], step=k
            )
        except Starved:
            state.pending = None
    entry = state.scheduler.land(k) if state.pending else None
    if entry is not None:
        _advance_avoidance(state, k, entry)
        state.entries.append(entry)
        state.m_levels.append(k)
        state.pending = None
    else:
        _advance_dyadic(state, k)
    if len(state.levels[-1].lowers) != state.expected_count(k):
        raise StructureViolation(f"cube count at level {k} disagrees with the profile")


def build(state: ConstructionState, depth: int) -> ConstructionState:
    """Advance to the requested depth; deterministic in all inputs."""
    if depth < 0:
        raise StructureViolation("depth must be >= 0")
    while state.depth < depth:
        advance_level(state)
    return state


def build_tree(
    d: int,
    patterns: Sequence[LinearPattern],
    h: DimensionFunction,
    depth: int,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> ConstructionState:
    if depth > level_cap:
        raise ScheduleOverflow(f"depth {depth} exceeds the level cap {level_cap}")
    return build(init_state(d, patterns, h, level_cap), depth)


# -- structural validation --------------------------------------------------

def validate_structure(state: ConstructionState) -> None:
    """Exact re-verification of counts, sides, nestedness and tiling.

    Dyadic children must sit at their exact dyadic offsets and avoidance
    children inside their unique parent, which together prove pairwise
    non-overlap by induction from the single root cube.
    """
    d = state.d
    root = state.levels[0]
    if root.lowers != [(root.den,) * d]:
        raise StructureViolation("level 0 is not the unit cube at (1,...,1)")
    for k in range(1, state.depth + 1):
        level, parent = state.levels[k], state.levels[k - 1]
        count = len(level.lowers)
        if count != state.expected_count(k):
            raise StructureViolation(f"level {k}: cube count != profile value")
        ratio, rem = divmod(level.den, parent.den)
        if rem:
            raise StructureViolation(f"level {k}: denominator is off its parent level's")
        side = state.side_num(k)
        parent_side = ratio * state.side_num(k - 1)
        if k in state.m_levels:
            if count != len(parent.lowers):
                raise StructureViolation(f"level {k}: avoidance level must keep counts")
            slack = parent_side - side
            for i, (lower, plower) in enumerate(zip(level.lowers, parent.lowers)):
                for v, (x, p) in enumerate(zip(lower, plower)):
                    if not 0 <= x - ratio * p <= slack:
                        raise StructureViolation(
                            f"level {k}: cube {i} escapes its parent on axis {v}"
                        )
        else:
            if count != len(parent.lowers) << d:
                raise StructureViolation(f"level {k}: dyadic children do not tile")
            slots = _dyadic_children(parent.lowers, ratio, side, d)
            if level.lowers != slots:
                i = next(i for i, (a, b) in enumerate(zip(level.lowers, slots)) if a != b)
                v = next(v for v, (a, b) in enumerate(zip(level.lowers[i], slots[i])) if a != b)
                raise StructureViolation(
                    f"level {k}: cube {i} is off its dyadic slot on axis {v}"
                )


# -- tree (de)serialization -----------------------------------------------------

TREE_FORMAT = "lacuna-tree/2"


def state_to_doc(state: ConstructionState) -> dict:
    pat_doc = patterns_to_doc(state.d, state.patterns)
    return {
        "format": TREE_FORMAT,
        "d": state.d,
        "h": state.h.spec_string(),
        "depth": state.depth,
        "level_cap": state.level_cap,
        "patterns": pat_doc["patterns"],
        "schedule": [entry_to_doc(state, e) for e in state.entries],
        "levels": [
            {"den": lvl.den, "lowers": list(chain.from_iterable(lvl.lowers))}
            for lvl in state.levels
        ],
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


def _entries_from_doc(
    recs: list, d: int, normalized: tuple[NormalizedPattern, ...], depth: int
) -> list[ScheduleEntry]:
    """Schedule entries, checked for types, ranges, order and the schedule
    invariants: beta_i >= compute_beta, M_1 >= 2, M_{i+1} >= M_i + 2 and a
    tuple level <= M_i - 2."""
    entries: list[ScheduleEntry] = []
    for pos, rec in enumerate(recs, start=1):
        if int_field(rec["i"], "entry index", 1) != pos:
            raise FormatError(f"schedule entry {pos} is stored with index {rec['i']}")
        pid = int_field(rec["pattern_id"], "pattern_id", 0)
        if pid >= len(normalized):
            raise FormatError(f"entry {pos}: pattern_id {pid} out of range")
        prev_m = entries[-1].m_level if entries else 0
        m_level = int_field(rec["M_i"], "M_i", prev_m + 2)
        if m_level > depth:
            raise FormatError(f"entry {pos}: M_i={m_level} exceeds the depth {depth}")
        level = int_field(rec["level"], "tuple level", 0)
        if level > m_level - 2:
            raise FormatError(f"entry {pos}: tuple level {level} is not above M_i={m_level}")
        # the tuple level lies above M_i, so only earlier entries act there
        nd = level - sum(1 for e in entries if e.m_level <= level)
        names = rec["tuple"]
        codes = tuple(parse_address(a, d) for a in names)
        if (
            len(codes) != normalized[pid].m
            or len(set(codes)) != len(codes)
            or [render_address(c, nd, d) for c in codes] != names
        ):
            raise FormatError(
                f"entry {pos}: tuple is not {normalized[pid].m} distinct "
                f"level-{level} addresses"
            )
        entries.append(
            ScheduleEntry(
                index=pos,
                pattern_id=pid,
                level=level,
                tuple_codes=codes,
                m_level=m_level,
                beta=int_field(
                    rec["beta_i"], "beta_i", compute_beta(normalized[pid], d)
                ),
            )
        )
    return entries


def _level_from_doc(state: ConstructionState, k: int, rec: dict, q: int) -> Level:
    """Level k with den = lcm(Q/side_k, den_{k-1}, stored den).

    A valid file stores den = Q/side_k, the denominator of the build, and
    loads unscaled; any other stored den is widened to one that holds both
    the stored corners and the level's lattice exactly.
    """
    d = state.d
    stored = int_field(rec["den"], f"level {k} den", 1)
    flat = rec["lowers"]
    if not isinstance(flat, list) or len(flat) % d:
        raise FormatError(f"level {k}: lowers must be a flat list of {d}-coordinate corners")
    if not set(map(type, flat)) <= {int}:
        raise FormatError(f"level {k}: every entry of lowers must be an integer")
    den = lcm(q * state.inv_side(k), stored)
    if k:
        den = lcm(den, state.levels[k - 1].den)
    if den != stored:
        flat = [x * (den // stored) for x in flat]
    return Level(den=den, lowers=list(zip(*[iter(flat)] * d)))


def doc_to_state(doc: dict) -> ConstructionState:
    """Rebuild a state from a tree document (read-only: no scheduler).

    Types, ranges, the cross-field consistency of the document and the
    schedule invariants (beta_i >= compute_beta, M_{i+1} >= M_i + 2) are
    checked here and fail with FormatError.  The geometry is left to
    validate_structure and certify_gap: an off-lattice cube still loads,
    on a denominator large enough to hold it exactly.
    """
    try:
        if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
            raise FormatError(
                f"not a {TREE_FORMAT} document (lacuna-tree/1 files must be rebuilt)"
            )
        d = int_field(doc["d"], "d", 1)
        _, patterns = patterns_from_doc({"d": d, "patterns": doc["patterns"]})
        h = parse_dimfn(doc["h"], d)
        depth = int_field(doc["depth"], "depth", 0)
        levels = doc["levels"]
        if not isinstance(levels, list) or len(levels) != depth + 1:
            raise FormatError(f"levels must list exactly the levels 0..{depth}")
        state = ConstructionState(
            d=d,
            h=h,
            patterns=tuple(patterns),
            normalized=tuple(normalize(p) for p in patterns),
            level_cap=int_field(doc["level_cap"], "level_cap", depth),
            levels=[],
        )
        state.entries = _entries_from_doc(doc["schedule"], d, state.normalized, depth)
        state.m_levels = [e.m_level for e in state.entries]
        q = lattice_denominator(state.normalized)
        for k, rec in enumerate(levels):
            state.levels.append(_level_from_doc(state, k, rec, q))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed tree document: {exc}") from exc
    return state


def write_tree(state: ConstructionState, path: str | Path) -> None:
    write_json(state_to_doc(state), path)


def read_tree(path: str | Path) -> ConstructionState:
    return doc_to_state(read_json(path))


def write_schedule_log(state: ConstructionState, path: str | Path) -> None:
    """JSON-lines log, one record per processed schedule entry."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in state.entries:
            fh.write(json.dumps(entry_to_doc(state, e)))
            fh.write("\n")
