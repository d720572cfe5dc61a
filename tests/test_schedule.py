from __future__ import annotations

import json
from fractions import Fraction
from itertools import islice, permutations
from math import perm
from unittest import mock

import pytest

from lacuna import schedule
from lacuna.dimfn import make_dimfn
from lacuna.engine import (
    MAX_LEAF_CUBES,
    ScheduleEntry,
    build,
    build_tree,
    compute_beta,
    delta_candidate,
    init_state,
    ratio_condition,
    ratio_threshold,
    sqrt_d_bounds,
    state_to_doc,
)
from lacuna.errors import ScheduleOverflow, StructureViolation
from lacuna.pattern import make_pattern, normalize
from lacuna.reader import doc_to_state
from lacuna.schedule import compute_levels, dovetail, unrank_tuple, walk_schedule

F = Fraction


@pytest.fixture
def ap_norm(ap_pattern):
    return normalize(ap_pattern)


@pytest.fixture
def q2_norm(quotient2_pattern):
    return normalize(quotient2_pattern)


class TestBeta:
    def test_ap_beta_nine(self, ap_norm):
        assert compute_beta(ap_norm, 1) == 9

    def test_quotient_beta_seven(self, q2_norm):
        assert compute_beta(q2_norm, 1) == 7

    def test_minimality(self, ap_norm, q2_norm):
        _, hi = sqrt_d_bounds(1)
        for n, beta in ((ap_norm, 9), (q2_norm, 7)):
            need = n.max_scale * 2 * n.peak * hi + hi / 2
            assert F(beta, 2) >= need
            assert beta - 1 < n.m or F(beta - 1, 2) < need

    def test_lower_bound_sanity(self):
        # peak >= 1/2 after normalization, so beta >= 2 always.
        n = normalize(make_pattern(1, [[1], [-1]]))
        assert n.peak >= F(1, 2)
        assert compute_beta(n, 1) >= 2

    def test_d2_uses_sqrt_upper_bound(self):
        # parallelogram row: peak 2, max scale 1 -> ceil(9*sqrt(2)) = 13.
        n = normalize(make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]]))
        assert compute_beta(n, 2) == 13


class TestLevels:
    def test_first_level_six(self, sqrt_gauge):
        assert compute_levels(sqrt_gauge, [9]) == [6]

    def test_second_level_eleven(self, sqrt_gauge):
        assert compute_levels(sqrt_gauge, [9, 9]) == [6, 11]

    def test_quotient_level_five(self, sqrt_gauge):
        assert compute_levels(sqrt_gauge, [7]) == [5]

    def test_minimality_where_spacing_allows(self, sqrt_gauge):
        # M_1 - 1 = 5 fails the ratio: 32*9 = 288 < 324.
        assert not sqrt_gauge.ratio_ge(delta_candidate(5, [9]), F(ratio_threshold(1, [9], 1)))
        # M_2 - 1 = 10 >= M_1 + 2, and the ratio fails there: 81*2^10 < 324^2.
        assert not sqrt_gauge.ratio_ge(delta_candidate(10, [9, 9]), F(ratio_threshold(2, [9, 9], 1)))

    def test_spacing_enforced(self):
        h = make_dimfn("pow", F(1, 10), 1)
        levels = compute_levels(h, [7] * 6)
        assert levels[0] >= 2
        assert all(b - a >= 2 for a, b in zip(levels, levels[1:]))

    def test_powlog_full_dimension(self):
        h = make_dimfn("powlog", F(1), 1)
        assert compute_levels(h, [7]) == [18]

    def test_ratio_condition_is_false_outside_the_domain(self, sqrt_gauge):
        # the cap of powlog:1/100 lies below e^-100, far below r = 1/4608
        capped = make_dimfn("powlog", F(1, 100), 1)
        assert ratio_condition(sqrt_gauge, 9, [9])  # r = 1/4608
        assert not ratio_condition(capped, 9, [9])

    def test_overflow(self, sqrt_gauge):
        with pytest.raises(ScheduleOverflow):
            compute_levels(sqrt_gauge, [9, 9], level_cap=10)


class TestProfile:
    """Side length and cube count per level of built trees."""

    def test_depth_seven_ap(self, ap_tree_7):
        st = ap_tree_7
        assert (st.side(7), st.expected_count(7)) == (F(1, 1152), 64)
        assert (st.side(0), st.expected_count(0)) == (F(1), 1)
        assert (st.side(5), st.expected_count(5)) == (F(1, 32), 32)

    def test_recurrence(self, ap_tree_12):
        st = ap_tree_12
        assert st.m_levels == [6, 11]
        for k in range(1, 13):
            prev, cur = st.side(k - 1), st.side(k)
            if k in (6, 11):
                assert cur == prev / 18  # halving plus the beta factor
            else:
                assert cur == prev / 2

    def test_dyadic_prefix(self):
        # parallelogram row, beta 13; its first avoidance level is 5
        p = make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]])
        st = build_tree(2, [p], make_dimfn("pow", F(3, 4), 2), 5)
        assert st.m_levels == [5] and st.processed_betas() == [13]
        for k in range(5):
            assert (st.side(k), st.expected_count(k)) == (F(1, 2**k), 4**k)


class TestUnranking:
    def test_first_tuples(self):
        assert unrank_tuple(4, 3, 0) == (0, 1, 2)
        assert unrank_tuple(4, 3, 1) == (0, 1, 3)

    def test_matches_itertools_order(self):
        perms = list(permutations(range(5), 3))
        assert perm(5, 3) == len(perms)
        for rank, want in enumerate(perms):
            assert unrank_tuple(5, 3, rank) == want

    def test_degenerate(self):
        assert perm(1, 3) == 0
        with pytest.raises(ValueError):
            unrank_tuple(2, 2, 2)


class TestEnumerator:
    def test_round_structure(self):
        seen = list(islice(dovetail(2), 2 * 1 + 2 * 4))
        # round 0: L=0, r=0, both patterns; round 1: (L, r) over {0,1}^2.
        assert seen[:2] == [(0, 0, 0), (0, 0, 1)]
        assert seen[2:] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]

    def test_every_triple_recurs(self):
        hits = list(islice(dovetail(1), 1 + 4 + 9 + 16)).count((1, 0, 0))
        assert hits >= 3  # once per round from round 1 on


def walk(normalized, h, depth, max_cubes=MAX_LEAF_CUBES):
    """walk_schedule with the leaf cap set to max_cubes for the call."""
    with mock.patch.object(schedule, "MAX_LEAF_CUBES", max_cubes):
        return walk_schedule(normalized, h, depth)


@pytest.fixture
def ratio_tests(monkeypatch):
    """The levels at which the walk tests the ratio condition, in order."""
    tested = []

    def counting(h, k, betas):
        tested.append(k)
        return ratio_condition(h, k, betas)

    monkeypatch.setattr(schedule, "ratio_condition", counting)
    return tested


class TestScheduler:
    """walk_schedule: the entries that land at levels 1..depth, from the
    level counts alone."""

    def test_first_ap_entry(self, ap_norm, sqrt_gauge, ratio_tests):
        # levels 0..2 hold 1, 2 and 4 cubes: the first entry is served at
        # level 3 with the lexicographically first ordered triple of level
        # 2; from its floor max(2, 0+2, 3, 2+2) = 4 it is tested at each
        # level the walk reaches, and lands at the first that passes
        assert walk([ap_norm], sqrt_gauge, 5) == []
        assert ratio_tests == [4, 5]
        ratio_tests.clear()
        assert walk([ap_norm], sqrt_gauge, 6) == [
            ScheduleEntry(
                index=1, pattern_id=0, level=2, tuple_codes=(0, 1, 2), m_level=6, beta=9
            )
        ]
        assert ratio_tests == [4, 5, 6]

    def test_starved_before_tuples_exist(self, ap_norm, sqrt_gauge, ratio_tests, monkeypatch):
        # no level below 3 holds 3 cubes: nothing is served (the cursor
        # does not move) until level 3, which serves from level 2's 4 cubes
        unranked = []

        def recording(n, m, rank):
            unranked.append((n, m, rank))
            return unrank_tuple(n, m, rank)

        monkeypatch.setattr(schedule, "unrank_tuple", recording)
        assert walk([ap_norm], sqrt_gauge, 2) == []
        assert unranked == [] and ratio_tests == []
        assert walk([ap_norm], sqrt_gauge, 3) == []
        assert unranked == [(4, 3, 0)] and ratio_tests == []

    def test_pair_exhaustion_in_first_cycle(self, q2_norm, sqrt_gauge):
        # One m=2 pattern, two cubes at level 1: both ordered pairs appear
        # within the first full round that can serve them.
        first, second = walk([q2_norm], sqrt_gauge, 10)
        assert (first.level, first.tuple_codes) == (1, (0, 1))
        assert (second.level, second.tuple_codes) == (1, (1, 0))

    def test_pair_reserved_later(self, q2_norm, sqrt_gauge):
        # Cycling contract: a served (pattern, tuple) pair recurs at a
        # later entry index.
        seen: dict[tuple, list[int]] = {}
        for e in walk([q2_norm], sqrt_gauge, 25):
            seen.setdefault((e.pattern_id, e.level, e.tuple_codes), []).append(e.index)
        assert len(seen) < 5
        assert any(len(v) >= 2 for v in seen.values())

    def test_pattern_fairness(self, sqrt_gauge):
        # Two quotient patterns interleave: entry 1 serves pattern 0,
        # entry 2 serves pattern 1.
        n0 = normalize(make_pattern(1, [[2], [-1]]))
        n1 = normalize(make_pattern(1, [[F(3, 2)], [-1]]))
        e1, e2 = walk([n0, n1], sqrt_gauge, 10)
        assert (e1.pattern_id, e2.pattern_id) == (0, 1)

    def test_serving_matches_direct_diagonal_walk(self, ap_norm, q2_norm, sqrt_gauge):
        """Dual route: replay the documented diagonal order by hand, over
        the cube counts that the walked schedule implies."""
        normalized = [ap_norm, q2_norm]
        entries = walk(normalized, sqrt_gauge, 40, 2**40)
        assert len(entries) == 8
        m_levels = [e.m_level for e in entries]

        def cubes(level):  # d = 1: one digit per dyadic level
            return 2 ** (level - sum(M <= level for M in m_levels))

        P = len(normalized)
        T, pos = 0, 0
        for i, e in enumerate(entries):
            # served at the level after M_{i-1}; the first entry at the first
            # level above one that holds 2 cubes (the least arity)
            step = entries[i - 1].m_level + 1 if i else 2
            while True:
                L, rest = divmod(pos, (T + 1) * P)
                r, p = divmod(rest, P)
                pos += 1
                if pos >= (T + 1) ** 2 * P:
                    T, pos = T + 1, 0
                m = normalized[p].m
                if L < step and r < perm(cubes(L), m):
                    break
            assert (e.index, e.level, e.tuple_codes, e.pattern_id) == (
                i + 1, L, unrank_tuple(cubes(L), m, r), p
            )
            # it lands at the first level from its floor where the ratio holds
            floor = max(2, entries[i - 1].m_level + 2 if i else 2, step, L + 2)
            betas = [x.beta for x in entries[: i + 1]]
            passing = [k for k in range(floor, e.m_level + 1) if ratio_condition(sqrt_gauge, k, betas)]
            assert passing == [e.m_level]

    def test_first_index_consistency(self, ap_norm, sqrt_gauge):
        # Fairness: the pair (pattern 0, level-2 tuple (0,1,3)) is served at
        # a finite index of the realized schedule, and served again later.
        hits = [
            e.index
            for e in walk([ap_norm], sqrt_gauge, 30, 2**30)
            if (e.pattern_id, e.level, e.tuple_codes) == (0, 2, (0, 1, 3))
        ]
        assert hits == [2, 5]

    def test_exhaustion_under_cap(self, ap_pattern, sqrt_gauge, ratio_tests):
        state = build_tree(1, [ap_pattern], sqrt_gauge, 7, level_cap=7)
        assert state.m_levels == [6]
        assert compute_levels(sqrt_gauge, [9, 9]) == [6, 11]
        # entry 2 is served at level 7 with floor 8 > cap, so it never lands
        # in this state; walked on to its level, it is tested from 8 on
        ratio_tests.clear()
        assert [e.m_level for e in walk(state.normalized, sqrt_gauge, 11)] == [6, 11]
        assert ratio_tests == [4, 5, 6, 8, 9, 10, 11]
        with pytest.raises(ScheduleOverflow):
            build(state, 8)
        assert state.depth == 7

    def test_leaf_cap(self, q2_norm, sqrt_gauge):
        # quotient 2 lands at 5, 10, 15, 20 and 25: level 25 holds 2^20 cubes
        assert len(walk([q2_norm], sqrt_gauge, 25)) == 5
        with pytest.raises(ScheduleOverflow, match="^level 26 would hold more than 1048576 cubes$"):
            walk([q2_norm], sqrt_gauge, 26)
        with pytest.raises(ScheduleOverflow, match="^level 13 would hold more than 1024 cubes$"):
            walk([q2_norm], sqrt_gauge, 40, 2**10)


class TestDeferredLevelSearch:
    """An avoidance level is searched for only as the walk reaches it."""

    @pytest.fixture
    def powlog_build(self):
        pattern = make_pattern(1, [[F(3, 2)], [-1]])
        return 1, [pattern], make_dimfn("powlog", F(63, 64), 1), 14

    def test_no_level_past_the_depth_is_tested(self, powlog_build, ratio_tests):
        state = build_tree(*powlog_build)
        assert state.m_levels == [13]
        # floor of entry 1 is max(2, 0+2, 2, 1+2) = 3; entry 2's floor is 15
        assert ratio_tests == list(range(3, 14))
        ratio_tests.clear()
        walk(state.normalized, state.h, 15)
        assert ratio_tests == [*range(3, 14), 15]

    def test_one_level_per_call_matches_build_tree(
        self, powlog_build, ap_pattern, sqrt_gauge
    ):
        for d, patterns, h, depth in (powlog_build, (1, [ap_pattern], sqrt_gauge, 12)):
            state = init_state(d, patterns, h)
            for k in range(1, depth + 1):
                build(state, k)
            assert state_to_doc(state) == state_to_doc(build_tree(d, patterns, h, depth))


class TestBuildFromARead:
    """build extends a state only along the schedule a build serves."""

    def test_read_tree_extends_to_a_fresh_deeper_build(self, ap_tree_12, ap_pattern, sqrt_gauge):
        st = doc_to_state(json.loads(json.dumps(state_to_doc(ap_tree_12))))
        build(st, 17)
        fresh = build(init_state(1, [ap_pattern], sqrt_gauge), 17)
        assert state_to_doc(st) == state_to_doc(fresh)
        assert st.levels == fresh.levels

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["schedule"][1].update(tuple=["01", "00", "11"]),
            lambda doc: doc["schedule"][1].update(M_i=12),
            lambda doc: doc["schedule"][0].update(beta_i=10),
            lambda doc: doc["schedule"].pop(),
        ],
        ids=["tuple", "M_i", "beta_i", "dropped"],
    )
    def test_edited_schedule_is_refused(self, ap_tree_12, edit):
        doc = json.loads(json.dumps(state_to_doc(ap_tree_12)))
        edit(doc)
        st = doc_to_state(doc)  # within the reader's invariants
        depth, levels = st.depth, list(st.levels)
        with pytest.raises(StructureViolation, match="not the one a build serves"):
            build(st, 13)
        assert (st.depth, st.levels) == (depth, levels)


class TestParams:
    def test_reader_roundtrip(self, ap_tree_12):
        # The schedule survives the tree reader's invariant checks.
        doc = json.loads(json.dumps(state_to_doc(ap_tree_12)))
        st = doc_to_state(doc)
        assert [(e.m_level, e.beta) for e in st.entries] == [(6, 9), (11, 9)]
