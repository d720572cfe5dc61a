"""The schedule walk: which entries land at which avoidance levels.

Each served schedule entry i pairs a pattern occurrence with a tuple of
distinct same-level cube labels and an avoidance level M_i at which the
engine will place lattice cubes.  The constraints, and the one place each
is enforced:

* beta_i >= m_i and beta_i/2 >= max_scale * 2*peak*sqrt(d) + sqrt(d)/2
  (arity and ball fitting: a lattice cell plus slack fits inside the shrunk
  parent).  engine.compute_beta returns the least such integer; a build
  uses it, and every state (engine.ConstructionState) refuses a smaller
  beta_i.
* M_1 >= 2 and M_{i+1} >= M_i + 2, and the tuple level is at most M_i - 2.
  walk_schedule serves each entry with the floor
  2 + max(M_{i-1}, tuple level), with M_0 = 0; every state refuses a
  schedule that breaks these, and a tree file rebuilds its levels from any
  schedule that keeps them without re-walking it.
* at k = M_i the certified ratio h(sqrt(d)*delta_k)/(sqrt(d)*delta_k)^d
  clears 2^(i*d) * prod_j<=i beta_j^d, where delta_k already contains the
  new beta_i.  engine.ratio_condition is the one test of it.  walk_schedule
  tests a served entry at each level it reaches from the entry's floor; the
  entry lands at the first level that passes, so M_i is the least such
  level and no level past the walk's depth is tested.  compute_levels runs
  the same search eagerly for given betas, up to a level cap.
  certify_measure re-checks it at every level from the first avoidance
  level to the depth.

None of this reads a cube's position: the condition reads only delta_k,
and the tuples read only level counts, which follow from the schedule
itself (x 2^d at a dyadic level, x 1 at an avoidance level).  So the
schedule is walked from counts alone, before any geometry is made.

Tuple fairness follows a dovetailing cursor over (level, rank, pattern)
triples: round T serves all triples with level <= T and rank <= T, every
round re-serves earlier triples, so each (pattern, tuple) pair is served at
a computable first index and recurs forever.

Only the steps that build (build and app, through engine.build) load this
module.  The records of a schedule, which every step that reads a recipe
needs (ScheduleEntry, compute_beta, ratio_condition, sqrt_d_bounds,
MAX_LEAF_CUBES, DEFAULT_LEVEL_CAP), are in engine, so certify and export
compile no walk.
"""

from __future__ import annotations

from itertools import count, product
from math import perm
from typing import Iterator

from .dimfn import DimensionFunction
from .engine import (
    DEFAULT_LEVEL_CAP,
    MAX_LEAF_CUBES,
    ScheduleEntry,
    compute_beta,
    ratio_condition,
)
from .errors import ScheduleOverflow
from .pattern import NormalizedPattern


def compute_levels(
    h: DimensionFunction,
    betas: list[int] | tuple[int, ...],
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> list[int]:
    """Greedy minimal avoidance levels M_1..M_n for the given per-entry betas.

    M_i is the least k >= max(2, M_{i-1} + 2) where the i-th ratio
    condition holds; ScheduleOverflow if it is not reached by level_cap.
    """
    levels: list[int] = []
    for i in range(1, len(betas) + 1):
        floor_level = levels[-1] + 2 if levels else 2
        for k in range(floor_level, level_cap + 1):
            if ratio_condition(h, k, betas[:i]):
                levels.append(k)
                break
        else:
            raise ScheduleOverflow(
                f"ratio condition for entry {i} not reached by level cap {level_cap}"
            )
    return levels


# -- ordered tuples of distinct addresses ------------------------------------

def unrank_tuple(n: int, m: int, rank: int) -> tuple[int, ...]:
    """rank-th ordered m-tuple of distinct indices in [0, n), lexicographic."""
    total = perm(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for P({n},{m})")
    avail = list(range(n))
    out = []
    for j in range(m):
        base = perm(n - 1 - j, m - 1 - j)
        idx, rank = divmod(rank, base)
        out.append(avail.pop(idx))
    return tuple(out)


def dovetail(n_patterns: int) -> Iterator[tuple[int, int, int]]:
    """Deterministic dovetailing over (level, rank, pattern) triples.

    Round T yields (L, r, p) for L in 0..T, r in 0..T, p in 0..P-1 in
    lexicographic order; every triple recurs in all rounds >= max(L, r).
    """
    for t in count():
        yield from product(range(t + 1), range(t + 1), range(n_patterns))


def walk_schedule(
    normalized: list[NormalizedPattern] | tuple[NormalizedPattern, ...],
    h: DimensionFunction,
    depth: int,
) -> list[ScheduleEntry]:
    """The entries that land at levels 1..depth, in (U_j) order.

    A pure walk over the level counts, which follow from the schedule
    alone: level k holds 2^d times the cubes of level k - 1 at a dyadic
    level and as many at an avoidance level.  At each level k, with no
    entry served but not yet landed, the next entry is served unless
    starved (no level below k holds m cubes for the smallest arity m): the
    cursor's next (level, rank, pattern) triple with level <= k - 1 and a
    rank below the count of ordered tuples there, with the floor
    2 + max(M_{i-1}, tuple level) (M_0 = 0).  The floor is always above
    k, the level at which the entry is served: a later entry is served at
    M_{i-1} + 1, and the first at the level after the first one that
    holds m cubes for the smallest arity m, which is then its tuple level.
    The entry lands at k when k is at or above its floor and
    ratio_condition holds there; k becomes its m_level.  Otherwise level k
    is dyadic, and ScheduleOverflow is raised when it would hold more than
    MAX_LEAF_CUBES cubes.  No level past the depth is tested, and an entry
    served but not landed by the depth is dropped.
    """
    d = h.d
    betas = [compute_beta(np_, d) for np_ in normalized]
    min_m = min(np_.m for np_ in normalized)
    cursor = dovetail(len(normalized))
    counts = [1]
    landed: list[ScheduleEntry] = []
    served: ScheduleEntry | None = None
    for k in range(1, depth + 1):
        if served is None and counts[-1] >= min_m:  # counts never fall
            for level, rank, pid in cursor:
                m = normalized[pid].m
                if level < k and rank < perm(counts[level], m):
                    served = ScheduleEntry(
                        index=len(landed) + 1,
                        pattern_id=pid,
                        level=level,
                        tuple_codes=unrank_tuple(counts[level], m, rank),
                        m_level=2 + max(landed[-1].m_level if landed else 0, level),
                        beta=betas[pid],
                    )
                    break
        if served is not None and k >= served.m_level and ratio_condition(
            h, k, [e.beta for e in landed] + [served.beta]
        ):
            landed.append(served.replace(m_level=k))
            served = None
            counts.append(counts[-1])
        elif counts[-1] << d > MAX_LEAF_CUBES:
            raise ScheduleOverflow(f"level {k} would hold more than {MAX_LEAF_CUBES} cubes")
        else:
            counts.append(counts[-1] << d)
    return landed
