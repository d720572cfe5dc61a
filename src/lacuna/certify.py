"""Verifiable outputs: gap certificates, measure certificate, brute oracle.

The avoidance claim at finite depth is per processed schedule entry: every
point tuple drawn from the entry's placed cubes keeps |psi| at least
peak * delta_M, because each placed center is a lattice image (value in
4*peak*delta*(Z + 1/2), so at least 2*peak*delta in magnitude) and moving
from centers to arbitrary points inside the cubes costs at most peak*delta.
certify_gap re-derives all of that from the geometry, which the state makes
from its recipe, built or read from a tree file: it recovers the integer
lattice vector of every placed cube exactly and either minimizes |psi| over
center combinations exactly or falls back to the structural bound.  Nothing
is trusted from the placement code.

The geometry arrives as the engine holds it: per level one denominator
and one flat list of integer numerators, d per lower corner, the cubes in
implicit address order, so the placed cubes under a tuple member are one
contiguous slice.  Recovering lattice vectors is one divisibility pass per
axis over that slice, against the state's block lattices
(ConstructionState.block_lattices, made once per pattern from the patterns
and the cube side alone).  The sampled center cross-check, the independent
route, evaluates psi from the pattern's coefficients scaled to integers and
tests the half-integer ladder with one divmod.  The spot check draws points
on a grid inside the placed cubes and compares |psi| with the gap in
integers.  Both sample with _draws, which takes the draws of
random.Random.randrange straight from getrandbits.  The oracle works on
integers from the points file up (read_points scales the coordinates to
one denominator, in one flat list, and its Points record checks that they
are distinct), as a sorted join: the first m-1 tuple members are walked,
and the last is found by bisection in its block's sorted partial sums, so
the search is complete without evaluating every ordered m-tuple.
Fractions remain in the measure code and in the messages of failed checks.

The measure certificate is the mass-distribution principle made concrete:
with the uniform cube mass mu(I_k) = 1/N_k, the per-level bound
1/N_k <= h(sqrt(d) * delta_k) for k0 <= k <= depth (k0 = first avoidance
level) gives H^h(E) >= 1/c3 with c3 = 2^d * (2*sqrt(d)+3)^d, conditional on
the construction continuing by the same schedule.  Directed rounding is
centralized: lower bounds of h and sqrt(d) certify ">=" goals, upper bounds
enter c3.

certify_tree is the one sequence of these checks for a whole tree, run by
both `lacuna certify` and `lacuna app`.  It settles the measure, which
needs no geometry, before anything reads a level (in mode measure, it
reads none).  Then it walks the levels once, down to the last avoidance
level, and checks each entry on its level M_i as the walk reaches it:
each check takes that level as an argument, and no level is kept once
its checks have run.  It calls the checks through this module's globals,
so a caller that replaces certify.certify_gap (say, to time it) sees
every call.
"""

from __future__ import annotations

import bisect
import random
import warnings
from fractions import Fraction
from itertools import islice, permutations
from math import lcm, perm
from operator import add, mul
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import (
    EntryNotProcessed,
    GapViolated,
    MeasureViolated,
    OutOfDomain,
    Undecidable,
)
from .pattern import LinearPattern
from .qmath import format_rational
from .record import Record

if TYPE_CHECKING:
    from .engine import ConstructionState, Level, ScheduleEntry
    from .export import Points
    from .geometry import BlockLattice

#: Above this many center combinations the exact minimum search falls back
#: to the structural half-integer bound (still a valid certificate).
COMBO_CAP = 100_000

#: The oracle warns above this many (m-1)-prefixes to join.
ORACLE_TUPLE_WARN = 5_000_000

#: Center tuples the cross-check samples per entry.
CROSS_CHECK_SAMPLE = 32

#: The spot check's draws come from random.Random(SPOT_SEED * 1_000_003 +
#: entry index); a point coordinate is a multiple of side / SPOT_GRID.
SPOT_SEED = 2024
SPOT_GRID = 1 << 16


class GapCertificate(Record):
    """Certified lower bound for |psi| over the placed cubes of one entry."""

    entry_index: int
    pattern_id: int
    m_level: int
    gap: Fraction
    threshold: Fraction
    placed_counts: tuple[int, ...]
    exact_min: bool


class LevelVerdict(Record):
    level: int
    count: int
    side: Fraction
    mass_ok: bool
    ratio_ok: bool


class MeasureCertificate(Record):
    """Per-level verdicts from k0 to the depth, and H^h(E) >= lower_bound =
    1/c3_upper, made with the record; c1 and conditional are constants."""

    c2: int
    c3_upper: Fraction
    k0: int
    depth: int
    per_level: tuple[LevelVerdict, ...]

    c1 = 1
    conditional = (
        "lower bound for the h-Hausdorff measure of the limit set, "
        "conditional on the construction continuing by the same schedule; "
        "avoidance is certified for the tuples of processed entries only"
    )

    def __post_init__(self) -> None:
        self.__dict__["lower_bound"] = 1 / self.c3_upper


def placed_blocks(
    state: ConstructionState, entry: ScheduleEntry, level: Level
) -> list[list[int]]:
    """Flat lower corners (d numerators per cube) of the avoidance-level
    cubes under each tuple member of a processed entry.

    level is the state's level entry.m_level, and the corners are
    numerators over its denominator.  An entry of state.entries lies
    within the depth (every state refuses M_i > depth) and every tuple
    member has cubes below it, so each block is non-empty.
    """
    if entry not in state.entries:
        raise EntryNotProcessed(f"entry {entry.index} was not processed by this build")
    return [level.lowers[span] for span in state.tuple_spans(entry)]


def _recover_residue(lattice: BlockLattice, signs: list[int], block: list[int]) -> list[int]:
    """Signed lattice residue sum of every placed cube of a flat block;
    exact or GapViolated.

    On axis v a placed lower corner is steps[v]*z + shifts[v] - side/2, so
    x + off with off = side/2 - shifts[v] must be a multiple of the step,
    and z is the quotient.  Once every quotient is exact,
    sign*(x + off) // step is sign*z.
    """
    d = len(lattice.steps)
    half = lattice.side // 2
    residues = None
    for v, (step, shift, sign) in enumerate(zip(lattice.steps, lattice.shifts, signs)):
        off = half - shift
        axis = block[v::d]
        if any([(x + off) % step for x in axis]):
            i = next(i for i, x in enumerate(axis) if (x + off) % step)
            raise GapViolated(
                f"placed cube {tuple(block[i * d : (i + 1) * d])} is off the "
                f"avoidance lattice on axis {v}"
            )
        if sign:
            zs = [sign * (x + off) // step for x in axis]
            residues = zs if residues is None else list(map(add, residues, zs))
    return [0] * (len(block) // d) if residues is None else residues


def _distinct(residues: list[int]) -> list[int] | None:
    """The sorted distinct residues, or None if there are more than
    COMBO_CAP.  The set lives only inside this call, so a caller holds at
    most one set at a time."""
    s = set(residues)
    return sorted(s) if len(s) <= COMBO_CAP else None


def _sumset(a: list[int], b: list[int]) -> list[int]:
    """The sorted sumset of two sorted distinct lists; {0} + b is b."""
    return b if a == [0] else sorted({x + y for x in a for y in b})


def _min_half_offset(residues: list[list[int]]) -> tuple[Fraction, bool]:
    """min |n_1 + ... + n_m + 1/2| over per-block residue choices.

    The distinct residue sets, smallest first, are folded into an exact
    sumset acc, all but the two largest.  The second largest is then folded
    in too, or joined with the largest, whichever forms fewer sums
    (len(acc) against the largest set's size); each element of acc is then
    resolved by binary search around the half-integer target in the sorted
    remainder.  Returns (minimum, exact); exact=False falls back to the
    structural bound 1/2 when a fold of acc with a set would form more
    than COMBO_CAP sums (len(acc) * len(s)).  That test is made for the
    second largest set whether it is folded or joined, so the choice never
    changes exact_min.  Residue sets need not be small or contiguous: for
    quotient 2 (coefficients 2, -1) under pow:1/2 at d=1, depth 25, entry 5
    has 262,144 distinct residues per block, and since the cap test runs
    even on the first fold, where acc = [0] and m = 2 needs no sumset,
    that entry certifies with exact_min false.  Every set but the largest
    is folded or joined, so two sets of more than COMBO_CAP residues decide
    the fallback from their sizes, before anything is sorted.
    """
    distinct = [_distinct(r) for r in residues]
    if distinct.count(None) > 1:
        return Fraction(1, 2), False
    # one set past the cap is the largest, which is searched, never folded
    distinct = [s or sorted(set(r)) for s, r in zip(distinct, residues)]
    *folds, pair, last = sorted(distinct, key=len)
    acc: list[int] = [0]
    for s in folds:
        if len(acc) * len(s) > COMBO_CAP:
            return Fraction(1, 2), False
        acc = _sumset(acc, s)
    if len(acc) * len(pair) > COMBO_CAP:
        return Fraction(1, 2), False
    if len(acc) <= len(last):
        acc = _sumset(acc, pair)
    else:
        last = _sumset(pair, last)
    n = len(last)
    best = abs(2 * (acc[0] + last[0]) + 1)  # min |2*(n_1 + ... + n_m) + 1|
    for a in acc:
        # the n_last nearest -1/2 - a: last[i - 1] < -a <= last[i]
        i = bisect.bisect_left(last, -a)
        below = -2 * (a + last[i - 1]) - 1 if i else best
        above = 2 * (a + last[i]) + 1 if i < n else best
        best = min(best, below, above)
        if best == 1:  # the least odd value: nothing is smaller
            break
    return Fraction(best, 2), True


def certify_gap(
    state: ConstructionState, entry: ScheduleEntry, level: Level
) -> GapCertificate:
    """Recompute the avoidance gap of one processed entry from its level
    M_i (level).

    Verifies the lattice form of every placed cube, the half-integer value
    of psi on center combinations, and returns gap >= peak*delta as the
    certified bound over all point tuples drawn from the placed cubes.
    It needs no check: _min_half_offset returns 1/2 or half a positive odd
    integer, so gap = peak*delta*(4*q_min - 1) >= peak*delta = threshold.
    """
    blocks = placed_blocks(state, entry, level)
    np_ = state.normalized[entry.pattern_id]
    delta = state.side(entry.m_level)
    lattices = state.block_lattices(entry.pattern_id)
    residues = []
    for lattice, row, blk in zip(lattices, np_.base.coeffs, blocks):
        signs = [(c > 0) - (c < 0) for c in row]
        residues.append(_recover_residue(lattice, signs, blk))
    q_min, exact = _min_half_offset(residues)
    _cross_check_centers(state, entry, np_, blocks, level.den)
    threshold = np_.peak * delta
    gap = 4 * np_.peak * delta * q_min - threshold
    return GapCertificate(
        entry_index=entry.index,
        pattern_id=entry.pattern_id,
        m_level=entry.m_level,
        gap=gap,
        threshold=threshold,
        placed_counts=tuple(len(b) // state.d for b in blocks),
        exact_min=exact,
    )


def _scaled_rows(coeffs) -> tuple[int, list[list[int]]]:
    """(L, rows): the lcm L of the denominators of a pattern's coefficient
    rows, and the coefficients times L as integers."""
    lcd = lcm(*(c.denominator for row in coeffs for c in row))
    return lcd, [[c.numerator * (lcd // c.denominator) for c in row] for row in coeffs]


def _draws(seed: int, bounds: Sequence[int]) -> Iterator[list[int]]:
    """Rounds of random.Random(seed).randrange(n) for n in bounds: the
    first list holds one draw for each bound in order, the next the draws
    after those, and so on for ever.

    randrange(n) is getrandbits(k) with k = n.bit_length(), drawn again
    while it is n or more; this draws the bits the same way, so every
    value is the one randrange gives, without its two Python frames per
    draw.
    """
    getrandbits = random.Random(seed).getrandbits
    shapes = [(n, n.bit_length()) for n in bounds]
    while True:
        drawn = []
        for n, k in shapes:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            drawn.append(r)
        yield drawn


def _cross_check_centers(state, entry, np_, blocks, den):
    """Dual route: psi on sampled center tuples must be 4*peak*delta*(n+1/2).

    psi is evaluated from the pattern's own coefficients, never from the
    lattice.  A center is (2x + side) / (2*den), over the denominator den
    of the entry's level, so with the rows c' = L*c of _scaled_rows,
    psi = total / (2*L*den) for the integer total = sum c'*(2x + side).
    With peak = p/q and delta = side/den, psi is 4*peak*delta*(n + 1/2)
    exactly when total*q = 4*L*p*side*(2n + 1): one divmod and a parity
    test.  An odd multiple also gives |psi| >= 2*peak*delta.  psi is
    rendered as a Fraction only in the message of a failed check.
    """
    d = state.d
    side = state.side_num
    lcd, rows = _scaled_rows(np_.base.coeffs)
    p, q = np_.peak.numerator, np_.peak.denominator
    unit = 4 * lcd * p * side
    offset = side * sum(map(sum, rows))  # sum c'*(2x + side) = 2*sum c'*x + offset
    members = list(zip(rows, blocks))
    draws = _draws(entry.index, [len(blk) // d for blk in blocks])
    for drawn in islice(draws, CROSS_CHECK_SAMPLE):
        total = 0
        for (row, blk), j in zip(members, drawn):
            i = d * j
            total += sum(map(mul, row, blk[i : i + d]))
        total = 2 * total + offset
        k, rem = divmod(total * q, unit)
        if rem or not k % 2:
            val = Fraction(total, 2 * lcd * den)
            raise GapViolated(
                f"entry {entry.index}: psi(centers) = {val} is not a half-integer "
                "multiple of 4*peak*delta"
            )


def spot_check_gap(
    state: ConstructionState,
    entry: ScheduleEntry,
    level: Level,
    cert: GapCertificate,
    count: int = 100,
) -> None:
    """Random rational point tuples from the placed cubes of an entry's
    level M_i (level) must respect the gap.

    With grid = SPOT_GRID, coordinate v of a point drawn from the cube with
    lower corner x is (x_v*grid + g_v*side) / (den*grid) for a random
    integer g_v in [0, grid], drawn as randrange(grid + 1) (_draws), the
    same draw as randint(0, grid).  psi is scaled by the lcm L of its
    coefficients' denominators (_scaled_rows), so psi = total / (L*den*grid)
    with an integer total, and |psi| < gap is one cross-multiplied integer
    comparison.
    """
    blocks = placed_blocks(state, entry, level)
    np_ = state.normalized[entry.pattern_id]
    d = state.d
    den = level.den
    side = state.side_num
    grid = SPOT_GRID
    lcd, rows = _scaled_rows(np_.base.coeffs)
    scale = lcd * den * grid
    gap_den = cert.gap.denominator
    bound = cert.gap.numerator * scale  # |total| * gap.den < bound <=> |psi| < gap
    # a tuple's draws: per member its cube, then the d grid offsets, which
    # side times the member's row weighs; the cube draws weigh 0
    bounds = [n for blk in blocks for n in [len(blk) // d] + [grid + 1] * d]
    weights = [side * c for row in rows for c in [0, *row]]
    members = [(row, blk, b * (d + 1)) for b, (row, blk) in enumerate(zip(rows, blocks))]
    for drawn in islice(_draws(SPOT_SEED * 1_000_003 + entry.index, bounds), count):
        total = sum(map(mul, weights, drawn))
        for row, blk, j in members:
            i = d * drawn[j]
            total += grid * sum(map(mul, row, blk[i : i + d]))
        if abs(total) * gap_den < bound:
            raise GapViolated(
                f"entry {entry.index}: sampled tuple gives |psi| = "
                f"{Fraction(abs(total), scale)} < gap {cert.gap}"
            )


def certify_measure(state: ConstructionState) -> MeasureCertificate:
    """Per-level mass bounds from the first avoidance level to the depth.

    mass_ok certifies 1/N_k <= h(sqrt(d)*delta_k) through the increasing
    gauge at the rounded-down radius; ratio_ok re-verifies the schedule's
    ratio condition, with the betas active at the built level (the "for all
    k >= M_i" side).
    """
    from . import engine

    if not state.entries:
        raise EntryNotProcessed("no avoidance level was processed; build deeper")
    k0 = state.m_levels[0]
    lo, hi = engine.sqrt_d_bounds(state.d)
    betas = state.processed_betas()
    verdicts = []
    for k in range(k0, state.depth + 1):
        side = state.side(k)
        count = state.expected_count(k)
        try:
            mass_ok = state.h.ge(lo * side, Fraction(1, count))
        except (OutOfDomain, Undecidable):
            mass_ok = False
        active = k - state.ndigits(k)  # the entries with M_i <= k
        ratio_ok = engine.ratio_condition(state.h, k, betas[:active])
        verdicts.append(LevelVerdict(k, count, side, mass_ok, ratio_ok))
        if not (mass_ok and ratio_ok):
            raise MeasureViolated(k, f"mass/ratio bound fails at level {k}")
    c2 = 1 << state.d
    c3 = c2 * (2 * hi + 3) ** state.d
    return MeasureCertificate(c2, c3, k0, state.depth, tuple(verdicts))


def certify_tree(
    state: ConstructionState, mode: str = "all", spot_checks: int = 0
) -> tuple[list[GapCertificate], MeasureCertificate | None]:
    """(gaps, measure): every check of one tree, for `lacuna certify` and
    `lacuna app` alike.

    Certifies the measure first, which reads only the recipe (level counts,
    sides and the schedule), so a recipe whose measure fails is refused
    before any level is made.  Then one walk over the levels
    (ConstructionState.walk) stops at the last avoidance level: at each
    entry's M_i it certifies the entry's gap and draws spot_checks point
    tuples against it, on the level in hand, which is dropped once the
    walk moves on.  Every state refuses M_{i+1} < M_i + 2, so the entries
    come in increasing M_i and the gaps in their order.  mode "gap" skips
    the measure (None) and "measure" the levels and the gaps.  On a tree
    with no processed entry, mode "gap" makes no level and returns no gaps:
    an app writes that as it is, while `lacuna certify` refuses such a tree
    from its recipe before calling this.

    Stopping there skips no check: every level through the last M_i is
    made, with every placed cube asserted inside its parent as it is made,
    and a level past the last M_i is dyadic, since no entry lands there,
    and asserts nothing.
    """
    measure = None if mode == "gap" else certify_measure(state)
    gaps = []
    if mode != "measure" and state.entries:
        due = {e.m_level: e for e in state.entries}
        for k, level in state.walk(state.m_levels[-1]):
            entry = due.get(k)
            if entry is not None:
                cert = certify_gap(state, entry, level)
                if spot_checks:
                    spot_check_gap(state, entry, level, cert, count=spot_checks)
                gaps.append(cert)
    return gaps, measure


# -- brute-force oracle -----------------------------------------------------

def brute_oracle(
    points: Points,
    pattern: LinearPattern,
    tolerance: Fraction | int = 0,
) -> list[tuple[int, ...]]:
    """All ordered m-tuples of distinct points with |psi| <= tolerance, in
    lexicographic order of point indices.

    Complete and exact; completely independent of the engine's lattice
    bookkeeping, which is what makes it the oracle.  The points are a
    Points record, so pairwise distinct, of pattern.d integer numerators a
    point over points.den, and the tolerance is scaled by den here.  With
    the rows c' = L*c of _scaled_rows and a scaled tolerance p/q,
    |psi| <= p/q is |q*sum c'*x| <= p*L, a sum of per-block partial sums.
    The search is a sorted join: the last block's sums are sorted once, and
    for each of the perm(n, m-1) prefixes the last members that bring psi
    within the tolerance are one bisected slice.  That costs
    O(perm(n, m-1) * log n) plus the hits, not perm(n, m) evaluations.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    d, m, n = pattern.d, pattern.m, len(points)
    if points.d != d:
        raise ValueError(f"points are d={points.d} but the pattern is d={d}")
    prefixes = perm(n, m - 1)
    if prefixes > ORACLE_TUPLE_WARN:
        warnings.warn(f"oracle will walk {prefixes} prefixes", stacklevel=2)
    lcd, rows = _scaled_rows(pattern.coeffs)
    p, q = (tolerance * points.den).as_integer_ratio()
    tol = p * lcd
    *heads, last = [
        [q * sum(map(mul, row, x)) for x in zip(*[iter(points.flat)] * d)] for row in rows
    ]
    ranked = sorted(range(n), key=last.__getitem__)  # stable: ties in index order
    values = list(map(last.__getitem__, ranked))
    del last
    pick = list.__getitem__
    hits = []
    for prefix in permutations(range(n), m - 1):
        s = sum(map(pick, heads, prefix))
        lo = bisect.bisect_left(values, -tol - s)
        hi = bisect.bisect_right(values, tol - s, lo)
        if lo < hi:
            last_members = sorted(ranked[lo:hi])
            hits.extend(prefix + (j,) for j in last_members if j not in prefix)
    return hits


# -- certificate documents ----------------------------------------------------------

CERT_FORMAT = "lacuna-cert/1"


def gap_to_doc(cert: GapCertificate) -> dict:
    return {
        "i": cert.entry_index,
        "pattern_id": cert.pattern_id,
        "M_i": cert.m_level,
        "gap": format_rational(cert.gap),
        "threshold": format_rational(cert.threshold),
        "placed": list(cert.placed_counts),
        "exact_min": cert.exact_min,
    }


def measure_to_doc(cert: MeasureCertificate) -> dict:
    return {
        "c1": cert.c1,
        "c2": cert.c2,
        "c3_upper": format_rational(cert.c3_upper),
        "k0": cert.k0,
        "depth": cert.depth,
        "lower_bound": format_rational(cert.lower_bound),
        "conditional": cert.conditional,
        "per_level": [
            {
                "k": v.level,
                "count": v.count,
                "side": format_rational(v.side),
                "mass_ok": v.mass_ok,
                "ratio_ok": v.ratio_ok,
            }
            for v in cert.per_level
        ],
    }


def certificates_to_doc(
    gaps: list[GapCertificate], measure: MeasureCertificate | None
) -> dict:
    return {
        "format": CERT_FORMAT,
        "gaps": [gap_to_doc(g) for g in gaps],
        "measure": None if measure is None else measure_to_doc(measure),
        # part of lacuna-cert/1; nothing fills it
        "oracle_runs": [],
    }
