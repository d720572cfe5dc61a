from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations

import pytest

from lacuna import schedule
from lacuna.dimfn import make_dimfn
from lacuna.engine import (
    advance_level,
    build,
    build_tree,
    doc_to_state,
    init_state,
    state_to_doc,
)
from lacuna.errors import ScheduleOverflow, Starved
from lacuna.pattern import make_pattern, normalize
from lacuna.schedule import (
    Scheduler,
    TupleEnumerator,
    compute_beta,
    compute_levels,
    delta_candidate,
    level_profile,
    perm_count,
    ratio_condition,
    ratio_threshold,
    sqrt_d_bounds,
    unrank_tuple,
)

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
        capped = make_dimfn("pow", F(1, 2), 1, domain_cap=F(1, 10**4))
        assert ratio_condition(sqrt_gauge, 9, [9])  # r = 1/4608
        assert not ratio_condition(capped, 9, [9])

    def test_overflow(self, sqrt_gauge):
        with pytest.raises(ScheduleOverflow):
            compute_levels(sqrt_gauge, [9, 9], level_cap=10)


class TestProfile:
    def test_depth_seven_ap(self):
        prof = level_profile(1, [6], [9], 7)
        assert prof[7] == (F(1, 1152), 64)
        assert prof[0] == (F(1), 1)
        assert prof[5] == (F(1, 32), 32)

    def test_recurrence(self):
        prof = level_profile(1, [6, 11], [9, 9], 12)
        for k in range(1, 13):
            prev, cur = prof[k - 1][0], prof[k][0]
            if k in (6, 11):
                assert cur == prev / 18  # halving plus the beta factor
            else:
                assert cur == prev / 2

    def test_dyadic_prefix(self):
        prof = level_profile(2, [9], [13], 5)
        for k in range(5):
            assert prof[k] == (F(1, 2**k), 4**k)


class TestUnranking:
    def test_first_tuples(self):
        assert unrank_tuple(4, 3, 0) == (0, 1, 2)
        assert unrank_tuple(4, 3, 1) == (0, 1, 3)

    def test_matches_itertools_order(self):
        perms = list(permutations(range(5), 3))
        assert perm_count(5, 3) == len(perms)
        for rank, want in enumerate(perms):
            assert unrank_tuple(5, 3, rank) == want

    def test_degenerate(self):
        assert perm_count(1, 3) == 0
        with pytest.raises(ValueError):
            unrank_tuple(2, 2, 2)


class TestEnumerator:
    def test_round_structure(self):
        e = TupleEnumerator(2)
        seen = []
        for _ in range(2 * 1 + 2 * 4):
            seen.append(e.peek())
            e.advance()
        # round 0: L=0, r=0, both patterns; round 1: (L, r) over {0,1}^2.
        assert seen[:2] == [(0, 0, 0), (0, 0, 1)]
        assert seen[2:] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]

    def test_every_triple_recurs(self):
        e = TupleEnumerator(1)
        hits = 0
        for _ in range(1 + 4 + 9 + 16):
            if e.peek() == (1, 0, 0):
                hits += 1
            e.advance()
        assert hits >= 3  # once per round from round 1 on


class TestScheduler:
    def sizes(self, *sizes):
        return list(sizes)

    def test_first_ap_entry(self, ap_norm, sqrt_gauge):
        s = Scheduler([ap_norm], sqrt_gauge)
        # levels 0..2 built with 1, 2, 4 cubes: first admissible tuple is the
        # lexicographically first ordered triple at level 2.
        entry = s.next_entry(self.sizes(1, 2, 4), step=3)
        assert entry.index == 1
        assert entry.level == 2
        assert entry.tuple_codes == (0, 1, 2)
        assert entry.beta == 9
        # it is offered levels from its floor max(2, 0+2, 3, 2+2) = 4 up and
        # lands at the first one where the ratio condition holds
        assert entry.m_level == 4
        assert [s.land(k) for k in (4, 5)] == [None, None]
        landed = s.land(6)
        assert landed.m_level == 6
        assert landed == s.served[-1]

    def test_starved_before_tuples_exist(self, ap_norm, sqrt_gauge):
        s = Scheduler([ap_norm], sqrt_gauge)
        with pytest.raises(Starved):
            s.next_entry(self.sizes(1), step=1)
        with pytest.raises(Starved):
            s.next_entry(self.sizes(1, 2), step=2)

    def test_pair_exhaustion_in_first_cycle(self, q2_norm, sqrt_gauge):
        # One m=2 pattern, two cubes at level 1: both ordered pairs appear
        # within the first full round that can serve them.
        s = Scheduler([q2_norm], sqrt_gauge)
        sizes = self.sizes(1, 2)
        first = s.next_entry(sizes, step=2)
        second = s.next_entry(sizes, step=first.m_level + 1)
        assert first.tuple_codes == (0, 1)
        assert second.tuple_codes == (1, 0)

    def test_pair_reserved_later(self, q2_norm, sqrt_gauge):
        # Cycling contract: a served (pattern, tuple) pair recurs at a
        # later entry index.
        s = Scheduler([q2_norm], sqrt_gauge)
        sizes = self.sizes(1, 2)
        step = 2
        seen: dict[tuple, list[int]] = {}
        for _ in range(5):
            e = s.next_entry(sizes, step=step)
            seen.setdefault((e.pattern_id, e.level, e.tuple_codes), []).append(e.index)
            step = e.m_level + 1
        assert any(len(v) >= 2 for v in seen.values())

    def test_pattern_fairness(self, sqrt_gauge):
        # Two quotient patterns interleave: entry 1 serves pattern 0,
        # entry 2 serves pattern 1.
        n0 = normalize(make_pattern(1, [[2], [-1]]))
        n1 = normalize(make_pattern(1, [[F(3, 2)], [-1]]))
        s = Scheduler([n0, n1], sqrt_gauge)
        sizes = self.sizes(1, 2)
        e1 = s.next_entry(sizes, step=2)
        e2 = s.next_entry(sizes, step=e1.m_level + 1)
        assert (e1.pattern_id, e2.pattern_id) == (0, 1)

    def test_serving_matches_direct_diagonal_walk(self, ap_norm, q2_norm, sqrt_gauge):
        """Dual route: replay the documented diagonal order by hand."""
        normalized = [ap_norm, q2_norm]
        s = Scheduler(normalized, sqrt_gauge)
        sizes = self.sizes(1, 2, 4)
        served = []
        step = 3
        for _ in range(6):
            e = s.next_entry(sizes, step=step)
            served.append((e.level, e.tuple_codes, e.pattern_id))
            step = e.m_level + 1
        expect = []
        T, pos = 0, 0
        while len(expect) < 6:
            per = (T + 1) * len(normalized)
            L, rest = divmod(pos, per)
            r, p = divmod(rest, len(normalized))
            m = normalized[p].m
            if L <= 2 and r < perm_count(sizes[L], m):
                expect.append((L, unrank_tuple(sizes[L], m, r), p))
            pos += 1
            if pos >= (T + 1) ** 2 * len(normalized):
                T, pos = T + 1, 0
        assert [(L, t, p) for L, t, p in served] == expect

    def test_first_index_consistency(self, ap_norm, sqrt_gauge):
        # Fairness: the pair (pattern 0, level-2 tuple (0,1,3)) is served at
        # a finite index of the realized schedule.
        s = Scheduler([ap_norm], sqrt_gauge)
        sizes = self.sizes(1, 2, 4)
        step = 3
        for _ in range(20):
            e = s.next_entry(sizes, step=step)
            if (e.pattern_id, e.level, e.tuple_codes) == (0, 2, (0, 1, 3)):
                break
            step = e.m_level + 1
        else:
            pytest.fail("pair not served within 20 entries")

    def test_exhaustion_under_cap(self, ap_pattern, sqrt_gauge):
        state = build_tree(1, [ap_pattern], sqrt_gauge, 7, level_cap=7)
        assert state.m_levels == [6]
        assert compute_levels(sqrt_gauge, [9, 9]) == [6, 11]
        # entry 2 is served with floor 8 > cap, so it never lands (M_2 = 11)
        assert state.pending.index == 2 and state.pending.m_level == 8
        with pytest.raises(ScheduleOverflow):
            advance_level(state)


class TestDeferredLevelSearch:
    """An avoidance level is searched for only as the build reaches it."""

    @pytest.fixture
    def powlog_build(self):
        pattern = make_pattern(1, [[F(3, 2)], [-1]])
        return 1, [pattern], make_dimfn("powlog", F(63, 64), 1), 14

    def test_no_level_past_the_depth_is_tested(self, powlog_build, monkeypatch):
        tested = []

        def counting(h, k, betas):
            tested.append(k)
            return ratio_condition(h, k, betas)

        monkeypatch.setattr(schedule, "ratio_condition", counting)
        state = build_tree(*powlog_build)
        assert state.m_levels == [13]
        # floor of entry 1 is max(2, 0+2, 2, 1+2) = 3; entry 2's floor is 15
        assert tested == list(range(3, 14))
        assert state.pending.m_level == 15

    def test_one_level_per_call_matches_build_tree(
        self, powlog_build, ap_pattern, sqrt_gauge
    ):
        for d, patterns, h, depth in (powlog_build, (1, [ap_pattern], sqrt_gauge, 12)):
            state = init_state(d, patterns, h)
            for k in range(1, depth + 1):
                build(state, k)
            assert state_to_doc(state) == state_to_doc(build_tree(d, patterns, h, depth))


class TestParams:
    def test_reader_roundtrip(self, ap_tree_12):
        # The schedule survives the tree reader's invariant checks.
        doc = json.loads(json.dumps(state_to_doc(ap_tree_12)))
        st = doc_to_state(doc)
        assert [(e.m_level, e.beta) for e in st.entries] == [(6, 9), (11, 9)]
