"""Reference checks the tests compare lacuna against.

None of these is on a command's path.  They re-derive from first principles
what the certified code relies on: psi in Fraction arithmetic, the lattice
maps and the key inequality of a normalized pattern, and whether oracle
instances fall among the tuples a gap certificate covers.  build_parser is
the argparse grammar the CLI's command table replaced.  The per-cube
kernels below work on the tuple layout (one d-tuple of numerators per cube),
or on Fractions where lacuna works on scaled integers (the spot check, the
center cross-check and the atanh and exp series); lacuna's integer kernels
are tested against them.  eval_bounds encloses h(r) itself, which no
command needs.  Its gauge domain ends at a rational cap, for powlog a
48-bit lower bound of e^(-1/s) (powlog_cap), where lacuna decides -ln r >=
1/s in each comparison; the two differ only for a radius within 2**-48 of
e^(-1/s).  The gauge comparisons enclose the q-th root r^(|a|/q)
(nth_root_bounds), where lacuna raises both sides to the q-th power
instead, and take the precision their refinement starts at, so a test can
compare lacuna's start with another.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import random
from fractions import Fraction
from itertools import product
from math import isqrt
from operator import add, mul
from typing import Sequence

from lacuna import certify as _certify
from lacuna.certify import (
    GapCertificate,
    brute_oracle,
    placed_blocks,
)
from lacuna.cli import cmd_app, cmd_build, cmd_certify, cmd_export, cmd_oracle
from lacuna.differences import exp_bounds
from lacuna.dimfn import POWER, PRECISION_CAP, DimensionFunction
from lacuna.engine import ConstructionState, ScheduleEntry
from lacuna.errors import (
    DimensionMismatch,
    GapViolated,
    OutOfDomain,
    PlacementFailure,
    Undecidable,
    UsageError,
    ZeroPattern,
)
from lacuna.geometry import BlockLattice
from lacuna.pattern import LinearPattern, NormalizedPattern
from lacuna.lnexp import _round_down, _round_up, ln_bounds
from lacuna.triplets import GaussianRational

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def corners(flat: Sequence[int], d: int) -> list[IntVector]:
    """The tuple layout of a flat corner list: one d-tuple per cube."""
    return [tuple(flat[i : i + d]) for i in range(0, len(flat), d)]


def flatten(lowers: Sequence[IntVector]) -> list[int]:
    """The flat layout of a list of d-tuples."""
    return [x for lower in lowers for x in lower]


def leaf_centers(state: ConstructionState) -> list[Vector]:
    """The deepest-level cube centers as exact rational d-tuples."""
    den, centers = state.leaf_center_numerators()
    return corners([Fraction(c, den) for c in centers], state.d)


def eval_pattern(
    p: LinearPattern | NormalizedPattern, points: Sequence[Sequence[Fraction]]
) -> Fraction:
    """Exact value of psi at an m-tuple of d-vectors."""
    coeffs = p.coeffs if isinstance(p, LinearPattern) else p.base.coeffs
    if len(points) != len(coeffs) or any(len(x) != len(coeffs[0]) for x in points):
        raise DimensionMismatch(
            f"expected {len(coeffs)} points of length {len(coeffs[0])}"
        )
    total = Fraction(0)
    for row, x in zip(coeffs, points):
        for b, xv in zip(row, x):
            if b:
                total += b * xv
    return total


def gaussian_add(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    """a + b for Gaussian rationals, which the app itself never adds."""
    return GaussianRational(a.re + b.re, a.im + b.im)


def gaussian_mul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    """a * b for Gaussian rationals, which the app itself never multiplies."""
    return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


# -- per-cube kernels in the tuple layout ---------------------------------------

def place_on_lattice(
    parent_lower: IntVector, parent_side: int, lattice: BlockLattice
) -> tuple[IntVector, IntVector]:
    """Lattice child of a tuple-descendant cube; returns (lower corner, z).

    Lengths are integer numerators over the child level's denominator.  The
    child center is the lattice point nearest to the parent center; rounding
    ties go up.  The per-axis miss bound 2*peak*scale*side and containment
    in the parent are asserted exactly on every placement.
    """
    side = lattice.side
    z: list[int] = []
    lower: list[int] = []
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
        lo = center - side // 2
        if lo < pl or lo + side > pl + parent_side:
            raise PlacementFailure(
                f"lattice cube escapes its parent on axis {v} (lower {lo})"
            )
        z.append(z_v)
        lower.append(lo)
    return tuple(lower), tuple(z)


def lattice_vectors(lowers: Sequence[int], lattice: BlockLattice) -> list[int]:
    """z of each flat placed lower corner, which on axis v is
    steps[v]*z + shifts[v] - side/2 exactly (AssertionError otherwise)."""
    d = len(lattice.steps)
    zs = []
    for j, x in enumerate(lowers):
        z, off = divmod(x + lattice.side // 2 - lattice.shifts[j % d], lattice.steps[j % d])
        assert off == 0
        zs.append(z)
    return zs


def _dyadic_children(lowers: list[IntVector], side: int, d: int) -> list[IntVector]:
    """The 2^d children of every cube in index order, over the doubled
    denominator: digit bit v moves the child up by `side` on axis v."""
    offsets = [
        tuple(side if (digit >> v) & 1 else 0 for v in range(d))
        for digit in range(1 << d)
    ]
    return [
        tuple(map(add, base, off))
        for base in (tuple([2 * x for x in lower]) for lower in lowers)
        for off in offsets
    ]


def _recover_residue(lattice: BlockLattice, signs: list[int], lower: IntVector) -> int:
    """Signed lattice residue sum of one placed cube; exact or GapViolated."""
    residue = 0
    half = lattice.side // 2
    for v, (x, step, shift, sign) in enumerate(
        zip(lower, lattice.steps, lattice.shifts, signs)
    ):
        z, off = divmod(x + half - shift, step)
        if off:
            raise GapViolated(f"placed cube {lower} is off the avoidance lattice on axis {v}")
        residue += sign * z
    return residue


def min_half_offset(residues: list[list[int]]) -> tuple[Fraction, bool]:
    """certify._min_half_offset as it was before the two largest sets could
    be joined: every set but the largest folded into one sumset, then a
    binary search in the largest.  It reads certify.COMBO_CAP when called,
    so a test may lower the cap."""
    sets = sorted((sorted(set(r)) for r in residues), key=len)
    acc: list[int] = [0]
    for s in sets[:-1]:
        if len(acc) * len(s) > _certify.COMBO_CAP:
            return Fraction(1, 2), False
        acc = sorted({a + b for a in acc for b in s})
    last = sets[-1]
    best = None  # min |2*(n_1 + ... + n_m) + 1|
    for a in acc:
        i = bisect.bisect_left(last, -a)
        for j in (i - 1, i):
            if 0 <= j < len(last):
                v = abs(2 * (a + last[j]) + 1)
                if best is None or v < best:
                    best = v
    return Fraction(best, 2), True


def spot_check_gap(
    state: ConstructionState,
    entry: ScheduleEntry,
    cert: GapCertificate,
    count: int = 100,
    seed: int = 2024,
    grid: int = 1 << 16,
) -> None:
    """Random rational point tuples from the placed cubes must respect the
    gap: the Fraction form of certify.spot_check_gap, with the same draws."""
    blocks = [corners(blk, state.d) for blk in placed_blocks(state, entry)]
    np_ = state.normalized[entry.pattern_id]
    den = state.levels[entry.m_level].den
    delta = state.side(entry.m_level)
    rng = random.Random(seed * 1_000_003 + entry.index)
    for _ in range(count):
        points = []
        for blk in blocks:
            lower = blk[rng.randrange(len(blk))]
            points.append(
                tuple(
                    Fraction(x, den) + Fraction(rng.randint(0, grid), grid) * delta
                    for x in lower
                )
            )
        val = eval_pattern(np_, points)
        if abs(val) < cert.gap:
            raise GapViolated(
                f"entry {entry.index}: sampled tuple gives |psi| = {abs(val)} < gap {cert.gap}"
            )


def cross_check_centers(state, entry, np_, blocks, sample=32):
    """Dual route: psi on sampled center tuples must be 4*peak*delta*(n+1/2).

    The Fraction form of certify._cross_check_centers, with the same draws
    and the same messages."""
    d = state.d
    den = 2 * state.levels[entry.m_level].den
    side = state.side_num
    delta = state.side(entry.m_level)
    rng = random.Random(entry.index)
    for _ in range(sample):
        centers = []
        for blk in blocks:
            i = d * rng.randrange(len(blk) // d)
            centers.append(tuple(Fraction(2 * x + side, den) for x in blk[i : i + d]))
        val = eval_pattern(np_, centers)
        ratio = val / (4 * np_.peak * delta) - Fraction(1, 2)
        if ratio.denominator != 1:
            raise GapViolated(
                f"entry {entry.index}: psi(centers) = {val} is not a half-integer "
                "multiple of 4*peak*delta"
            )
        if abs(val) < 2 * np_.peak * delta:
            raise GapViolated(f"entry {entry.index}: center value {val} too small")


# -- lattice maps and the key inequality --------------------------------------

def phi(
    np_: NormalizedPattern, block: int, z: Sequence[int | Fraction]
) -> tuple[Fraction, ...]:
    """Lattice map of one block: coordinatewise scaling, and the last
    block is additionally shifted by 1/2 along the pivot axis."""
    if len(z) != np_.d:
        raise DimensionMismatch("lattice vector has wrong length")
    row = np_.scales[block]
    out = [row[v] * Fraction(z[v]) for v in range(np_.d)]
    if block == np_.m - 1:
        out[np_.pivot] += Fraction(1, 2)
    return tuple(out)


def lattice_value(np_: NormalizedPattern, zs: Sequence[Sequence[int]]) -> Fraction:
    """psi evaluated on the lattice images phi(z_1), ..., phi(z_m)."""
    return eval_pattern(np_, [phi(np_, block, z) for block, z in enumerate(zs)])


def key_inequality_check(np_: NormalizedPattern, window: int) -> bool:
    """Exhaustively certify |psi(phi(z_1),...,phi(z_m))| >= 1/2 on a window.

    Runs over every integer tuple with all coordinates in [-window, window],
    in exact arithmetic, and also asserts the stronger structural fact that
    each value lies in Z + 1/2.
    """
    half = Fraction(1, 2)
    n = np_.m * np_.d
    rng = range(-window, window + 1)
    for flat in product(rng, repeat=n):
        zs = [flat[i * np_.d : (i + 1) * np_.d] for i in range(np_.m)]
        val = lattice_value(np_, zs)
        if (val - half).denominator != 1:
            raise ZeroPattern(
                f"lattice value {val} not in Z + 1/2; normalization is broken"
            )
        if abs(val) < half:
            return False
    return True


# -- q-th roots: integer floors and rational enclosures -------------------------

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


# -- series kernels and gauge comparisons in Fraction arithmetic ---------------

def atanh_series(t: Fraction, tail_target: Fraction) -> tuple[Fraction, Fraction]:
    """lnexp._atanh_series one Fraction operation at a time: the partial
    sum of the odd power series and that sum plus its geometric tail."""
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


def exp_pos_attempt(x: Fraction, shift: int) -> tuple[Fraction, Fraction]:
    """differences._exp_pos_attempt one Fraction operation at a time: halve x
    to at most 1/2, sum the series, square back with outward rounding."""
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


@functools.cache
def powlog_cap(s: Fraction) -> Fraction:
    """A rational cap of the powlog domain: min(1/2, a 48-bit lower bound
    of e^(-1/s)), where h = -x^s ln x stops increasing."""
    half = Fraction(1, 2)
    if s >= Fraction(3, 2):  # e^(-1/s) >= e^(-2/3) > 1/2
        return half
    lo, _ = exp_bounds(-1 / s, 48)
    return min(half, lo)


def check_domain(h: DimensionFunction, r: Fraction) -> None:
    """OutOfDomain unless 0 < r <= 1 (pow) or 0 < r <= powlog_cap(s)."""
    cap = Fraction(1) if h.family == POWER else powlog_cap(h.s)
    if not 0 < r <= cap:
        raise OutOfDomain(f"argument outside the reference domain of {h.spec_string()}")


def eval_bounds(h: DimensionFunction, r: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of h(r) with width <= 2**-precision; exact when possible."""
    check_domain(h, r)
    p, q = h.s.numerator, h.s.denominator
    if h.family == POWER:
        return nth_root_bounds(r**p, q, precision)
    guard = precision + 4
    while True:
        rs_lo, rs_hi = nth_root_bounds(r**p, q, guard)
        ln_lo, ln_hi = ln_bounds(r, guard)
        # h(r) = r^s * (-ln r); both factors are >= 0 on (0, 1).
        lo, hi = rs_lo * (-ln_hi), rs_hi * (-ln_lo)
        if lo > hi:  # r == 1 edge: -ln r == 0
            lo, hi = hi, lo
        if hi - lo <= Fraction(1, 1 << precision):
            return lo, hi
        guard *= 2


def gauge_ge(h: DimensionFunction, r: Fraction, threshold: Fraction, precision: int) -> bool:
    """h.ge(r, threshold) with its refinement started at `precision` bits."""
    check_domain(h, r)
    if threshold <= 0:
        return True
    while precision <= PRECISION_CAP:
        lo, hi = eval_bounds(h, r, precision)
        if lo >= threshold:
            return True
        if hi < threshold:
            return False
        precision *= 2
    raise Undecidable(f"h(r) vs {threshold} undecided at {PRECISION_CAP} bits")


def gauge_ratio_ge(
    h: DimensionFunction, r: Fraction, threshold: Fraction, precision: int
) -> bool:
    """h.ratio_ge(r, threshold) for a powlog gauge, with its refinement
    started at `precision` bits."""
    check_domain(h, r)
    if threshold <= 0:
        return True
    p, q = h.s.numerator, h.s.denominator
    e = h.d * q - p
    while precision <= PRECISION_CAP:
        ln_lo, ln_hi = ln_bounds(r, precision)
        if e == 0:
            lhs_lo, lhs_hi = -ln_hi, -ln_lo
        else:
            den_lo, den_hi = nth_root_bounds(r**e, q, precision)
            lhs_lo = -ln_hi / den_hi
            lhs_hi = -ln_lo / den_lo if den_lo else None  # no upper bound yet
        if lhs_lo >= threshold:
            return True
        if lhs_hi is not None and lhs_hi < threshold:
            return False
        precision *= 2
    raise Undecidable(f"ratio vs {threshold} undecided at {PRECISION_CAP} bits")


# -- coverage of oracle instances by gap certificates ---------------------------

def _in_some_cube(x: Vector, lowers: list[int], side: int, den: int) -> bool:
    """Does the rational point x lie in a closed cube (lower + [0, side]^d)/den?

    lowers is a flat corner list, d numerators per cube."""
    bounds = []
    for xv in x:
        t, q = xv.numerator * den, xv.denominator
        # lower <= x*den <= lower + side on this axis
        bounds.append((-(-t // q) - side, t // q))
    return any(
        all(lo <= n <= hi for n, (lo, hi) in zip(lower, bounds))
        for lower in corners(lowers, len(x))
    )


def instance_covered(
    state: ConstructionState,
    entry: ScheduleEntry,
    points: list[Vector],
    instance: tuple[int, ...],
    _cache: dict | None = None,
) -> bool:
    """Is this oracle instance a tuple the entry's certificate covers?

    The instance is in the original pattern's block order; coverage holds
    when, after the normalization permutation, each point lies inside some
    placed cube of the matching block.
    """
    np_ = state.normalized[entry.pattern_id]
    key = ("blocks", entry.index)
    if _cache is not None and key in _cache:
        blocks = _cache[key]
    else:
        blocks = placed_blocks(state, entry)
        if _cache is not None:
            _cache[key] = blocks
    den = state.levels[entry.m_level].den
    side = state.side_num
    return all(
        _in_some_cube(points[instance[np_.perm[b]]], blocks[b], side, den)
        for b in range(np_.m)
    )


def covered_violations(
    state: ConstructionState,
    points: list[Vector],
    tolerance: Fraction = Fraction(0),
) -> dict[int, list[tuple[int, ...]]]:
    """Oracle instances that the processed entries claim cannot exist.

    Runs the oracle for every input pattern and cross-references each
    instance against every processed entry of that pattern.  A non-empty
    result is a broken certificate (or a corrupted tree).
    """
    cache: dict = {}
    bad: dict[int, list[tuple[int, ...]]] = {}
    for pid, pat in enumerate(state.patterns):
        entries = [e for e in state.entries if e.pattern_id == pid]
        if not entries:
            continue
        for inst in brute_oracle(points, pat, tolerance):
            for e in entries:
                if instance_covered(state, e, points, inst, cache):
                    bad.setdefault(e.index, []).append(inst)
    return bad


def covered_instance_scan(
    state: ConstructionState,
    points: list[Vector],
    entry: ScheduleEntry,
) -> list[tuple[int, ...]]:
    """Exact zeros of psi over the full covered product of one entry.

    Groups the points by the entry's placed blocks and enumerates every
    combination, resolving the last block by exact-value lookup, so deep
    builds stay tractable where the all-tuples oracle would not.  Returns
    instances as point-index tuples in normalized block order.
    """
    blocks = placed_blocks(state, entry)
    np_ = state.normalized[entry.pattern_id]
    den = state.levels[entry.m_level].den
    side = state.side_num
    groups = [
        [i for i, x in enumerate(points) if _in_some_cube(x, blk, side, den)]
        for blk in blocks
    ]
    partial = [[sum(map(mul, row, x)) for x in points] for row in np_.base.coeffs]
    by_value: dict[Fraction, list[int]] = {}
    for i in groups[-1]:
        by_value.setdefault(partial[-1][i], []).append(i)
    hits = []
    for combo in product(*groups[:-1]):
        if len(set(combo)) != len(combo):
            continue
        acc = sum(partial[b][i] for b, i in enumerate(combo))
        for j in by_value.get(-acc, ()):
            if j not in combo:
                hits.append(combo + (j,))
    return hits


def _non_negative_int(text: str) -> int:
    """The type of --depth, --spot-checks and --decimals.  A bad value
    becomes a UsageError through _Parser.error, before any command opens
    a file."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument error raises UsageError, so it gets the JSON envelope
    and exit 2 like every other usage error; subparsers inherit this."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lacuna",
        description=(
            "Build nested cube sets in [1,2]^d that avoid linear patterns, "
            "with exact rational certificates for the avoidance gaps and the "
            "generalized Hausdorff measure lower bound."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a tree from a pattern file")
    b.add_argument("patterns", help="pattern JSON file")
    b.add_argument("--dimfn", required=True, help="gauge, e.g. pow:1/2 or powlog:1/1")
    b.add_argument("--depth", type=_non_negative_int, required=True)
    b.add_argument("--out", default="tree.json")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("certify", help="re-derive certificates from a tree file")
    c.add_argument("tree")
    c.add_argument("--mode", choices=("gap", "measure", "all"), default="all")
    c.add_argument("--out", default=None)
    c.add_argument("--spot-checks", type=_non_negative_int, default=0,
                   help="random point tuples per entry that must respect the gap")
    c.set_defaults(func=cmd_certify)

    e = sub.add_parser("export", help="export points or pictures")
    e.add_argument("tree")
    e.add_argument("--format", choices=("svg", "csv", "points"), required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--decimals", type=_non_negative_int, default=12)
    e.set_defaults(func=cmd_export)

    a = sub.add_parser("app", help="run an application spec end to end")
    a.add_argument("spec")
    a.add_argument("--out-dir", default="app-out")
    a.set_defaults(func=cmd_app)

    o = sub.add_parser("oracle", help="exhaustive pattern search over a point file")
    o.add_argument("points")
    o.add_argument("--patterns", required=True)
    o.add_argument("--tol", default="0")
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)
    return p
