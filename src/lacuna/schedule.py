"""Schedule machinery: beta constants, avoidance levels, tuple enumeration.

Each served schedule entry i pairs a pattern occurrence with a tuple of
distinct same-level cube labels and an avoidance level M_i at which the
engine will place lattice cubes.  The constraints, and the one place each
is enforced:

* beta_i >= m_i and beta_i/2 >= max_scale * 2*peak*sqrt(d) + sqrt(d)/2
  (arity and ball fitting: a lattice cell plus slack fits inside the shrunk
  parent).  compute_beta returns the least such integer; a build uses it,
  and the tree reader (engine.doc_to_state) rejects a smaller beta_i.
* M_1 >= 2 and M_{i+1} >= M_i + 2, and the tuple level is at most M_i - 2.
  The scheduler serves each entry with the floor max(2, M_{i-1} + 2,
  level being built, tuple level + 2); the tree reader rejects any other.
* at k = M_i the certified ratio h(sqrt(d)*delta_k)/(sqrt(d)*delta_k)^d
  clears 2^(i*d) * prod_j<=i beta_j^d, where delta_k already contains the
  new beta_i.  ratio_condition is the one test of it.  A build tests it
  as it reaches each level from the entry's floor and lands the entry at
  the first level that passes (Scheduler.land), so M_i is the least such
  level and no level past the build's depth is tested; compute_levels
  runs the same search eagerly for given betas.  certify_measure re-checks
  it at every level from the first avoidance level to the depth.  The
  gauge's monotone-ratio witness extends the check at M_i to every
  k >= M_i (deeper levels shrink delta, which can only raise the ratio).

sqrt(d) is handled by a fixed rational enclosure; the upper bound is the
conservative direction both for beta (larger beta only helps the fit) and
for the ratio condition (the ratio is non-increasing, so certifying at an
over-approximated radius certifies the true one).

Tuple fairness follows a dovetailing cursor over (level, rank, pattern)
triples: round T serves all triples with level <= T and rank <= T, every
round re-serves earlier triples, so each (pattern, tuple) pair is served at
a computable first index and recurs forever.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil

from .dimfn import DimensionFunction
from .errors import OutOfDomain, ScheduleOverflow, Starved, Undecidable
from .pattern import NormalizedPattern
from .qmath import sqrt_bounds

#: Enclosure width for sqrt(d): hi - lo < 2**-SQRT_PRECISION.
SQRT_PRECISION = 21

DEFAULT_LEVEL_CAP = 96


def sqrt_d_bounds(d: int) -> tuple[Fraction, Fraction]:
    return sqrt_bounds(d, SQRT_PRECISION)


@dataclass(frozen=True)
class ScheduleEntry:
    """One served occurrence: pattern, tuple of cube labels, avoidance level.

    tuple_codes are indices of cubes of one level (an index read as a
    base-2^d digit string is the cube's address), pairwise distinct, at a
    level <= m_level - 2.  While an entry is served but has not landed,
    m_level is its floor (Scheduler.next_entry, Scheduler.land).
    """

    index: int
    pattern_id: int
    level: int
    tuple_codes: tuple[int, ...]
    m_level: int
    beta: int


def compute_beta(np_: NormalizedPattern, d: int) -> int:
    """Smallest integer beta meeting the arity and ball-fitting constraints."""
    _, hi = sqrt_d_bounds(d)
    need = hi * (4 * np_.peak * np_.max_scale + 1)
    return max(np_.m, ceil(need))


def ratio_threshold(i: int, betas: list[int] | tuple[int, ...], d: int) -> int:
    """2^(i*d) * (beta_1 * ... * beta_i)^d for the i-th served entry."""
    prod = 1
    for b in betas[:i]:
        prod *= b
    return (2**i * prod) ** d


def delta_candidate(k: int, betas_applied: list[int] | tuple[int, ...]) -> Fraction:
    """Side length 2^-k * prod(1/beta) once the given betas are all active."""
    prod = 1
    for b in betas_applied:
        prod *= b
    return Fraction(1, (1 << k) * prod)


def ratio_condition(
    h: DimensionFunction, k: int, betas: list[int] | tuple[int, ...]
) -> bool:
    """Certified ratio condition of entry i = len(betas) at level k.

    The radius is sqrt(d) (rounded up) times the side 2^-k / (beta_1...beta_i):
    the entry's own beta is already active at its level.  Arguments above the
    gauge's certified cap and comparisons left undecided do not satisfy it.
    """
    _, hi = sqrt_d_bounds(h.d)
    r = hi * delta_candidate(k, betas)
    try:
        return h.ratio_ge(r, Fraction(ratio_threshold(len(betas), betas, h.d)))
    except (OutOfDomain, Undecidable):
        return False


def min_ratio_level(
    h: DimensionFunction,
    betas: list[int],
    i: int,
    floor_level: int,
    level_cap: int,
) -> int:
    """Smallest k >= floor_level satisfying the i-th ratio condition."""
    for k in range(max(floor_level, 2), level_cap + 1):
        if ratio_condition(h, k, betas[:i]):
            return k
    raise ScheduleOverflow(
        f"ratio condition for entry {i} not reached by level cap {level_cap}"
    )


def compute_levels(
    h: DimensionFunction,
    betas: list[int] | tuple[int, ...],
    count: int | None = None,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> list[int]:
    """Greedy minimal avoidance levels M_1..M_count for given per-entry betas."""
    betas = list(betas)
    count = len(betas) if count is None else count
    if count > len(betas):
        raise ValueError("need one beta per requested level")
    levels: list[int] = []
    for i in range(1, count + 1):
        floor_level = 2 if not levels else levels[-1] + 2
        levels.append(min_ratio_level(h, betas, i, floor_level, level_cap))
    return levels


def level_profile(
    d: int, m_levels: list[int] | tuple[int, ...], betas: list[int] | tuple[int, ...], depth: int
) -> list[tuple[Fraction, int]]:
    """Exact (side length, cube count) for levels 0..depth.

    m_levels lists the processed avoidance levels in increasing order and
    betas the matching shrink constants.
    """
    out = []
    for k in range(depth + 1):
        applied = [b for M, b in zip(m_levels, betas) if M <= k]
        delta = delta_candidate(k, applied)
        count = 1 << (d * (k - len(applied)))
        out.append((delta, count))
    return out


# -- ordered tuples of distinct addresses ------------------------------------

def perm_count(n: int, m: int) -> int:
    """Number of ordered m-tuples of distinct items from n."""
    if m > n:
        return 0
    total = 1
    for j in range(m):
        total *= n - j
    return total


def unrank_tuple(n: int, m: int, rank: int) -> tuple[int, ...]:
    """rank-th ordered m-tuple of distinct indices in [0, n), lexicographic."""
    total = perm_count(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for P({n},{m})")
    avail = list(range(n))
    out = []
    for j in range(m):
        base = perm_count(n - 1 - j, m - 1 - j)
        idx, rank = divmod(rank, base)
        out.append(avail.pop(idx))
    return tuple(out)


class TupleEnumerator:
    """Deterministic dovetailing cursor over (level, rank, pattern) triples.

    Round T yields (L, r, p) for L in 0..T, r in 0..T, p in 0..P-1 in
    lexicographic order; every triple recurs in all rounds >= max(L, r).
    The cursor only moves on explicit advance, so callers may peek, test
    admissibility, and skip dead triples without losing fairness.
    """

    def __init__(self, n_patterns: int):
        if n_patterns < 1:
            raise ValueError("need at least one pattern")
        self.n_patterns = n_patterns
        self.round = 0
        self.pos = 0

    def peek(self) -> tuple[int, int, int]:
        per_level = (self.round + 1) * self.n_patterns
        level, rest = divmod(self.pos, per_level)
        rank, pattern = divmod(rest, self.n_patterns)
        return level, rank, pattern

    def advance(self) -> None:
        self.pos += 1
        if self.pos >= (self.round + 1) ** 2 * self.n_patterns:
            self.round += 1
            self.pos = 0


class Scheduler:
    """Serves schedule entries in (U_j) order against a growing cube tree.

    Owns the cursor and the served-entry bookkeeping.  The engine asks for
    the next entry once the previous one has landed, then offers it each
    level it builds (land); the entry lands on the first level at or above
    its floor where the ratio condition holds.  No level past the one being
    built is ever tested.  Single-owner mutable state: not safe for
    concurrent use.
    """

    def __init__(
        self,
        normalized: list[NormalizedPattern] | tuple[NormalizedPattern, ...],
        h: DimensionFunction,
    ):
        self.normalized = list(normalized)
        self.h = h
        self.enum = TupleEnumerator(len(self.normalized))
        self.betas: list[int] = [compute_beta(np_, h.d) for np_ in self.normalized]
        self.served: list[ScheduleEntry] = []

    def _min_m(self) -> int:
        return min(np_.m for np_ in self.normalized)

    def next_entry(self, level_sizes: list[int], step: int) -> ScheduleEntry:
        """Serve the next entry; raises Starved when no tuple is admissible.

        level_sizes[L] is the cube count of the already-built level L; step
        is the level about to be built, so tuples may only come from levels
        <= step - 1.  The entry's m_level is its floor, the first level it
        may land on, until land places it.
        """
        built = len(level_sizes) - 1
        if not any(n >= self._min_m() for n in level_sizes):
            raise Starved("no level holds enough distinct cubes yet")
        while True:
            level, rank, pid = self.enum.peek()
            np_ = self.normalized[pid]
            if level <= built and rank < perm_count(level_sizes[level], np_.m):
                prev = self.served[-1].m_level if self.served else 0
                entry = ScheduleEntry(
                    index=len(self.served) + 1,
                    pattern_id=pid,
                    level=level,
                    tuple_codes=unrank_tuple(level_sizes[level], np_.m, rank),
                    m_level=max(2, prev + 2, step, level + 2),
                    beta=self.betas[pid],
                )
                self.enum.advance()
                self.served.append(entry)
                return entry
            self.enum.advance()

    def land(self, k: int) -> ScheduleEntry | None:
        """The last served entry placed at level k, or None if it is not due.

        It is due at the first level k >= its floor where ratio_condition
        holds; callers offer levels in increasing order and stop offering
        once it has landed.  k becomes its m_level.
        """
        entry = self.served[-1]
        if k < entry.m_level or not ratio_condition(
            self.h, k, [e.beta for e in self.served]
        ):
            return None
        self.served[-1] = entry = replace(entry, m_level=k)
        return entry
