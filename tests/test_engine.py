from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest

from lacuna.dimfn import make_dimfn
from lacuna.engine import (
    Level,
    build,
    build_tree,
    init_state,
    render_address,
    state_to_doc,
    validate_structure,
    write_tree,
)
from lacuna.errors import (
    PlacementFailure,
    ScheduleOverflow,
    StructureViolation,
    ZeroPattern,
)
from lacuna.geometry import block_lattice, place_on_lattice
from lacuna.pattern import make_pattern, normalize
from lacuna.reader import parse_address
from conftest import with_levels
from reference import corners, lattice_vectors

F = Fraction


def fracs(st, k):
    """Lower corners of level k as exact rationals, one d-tuple per cube."""
    level = st.levels[k]
    return corners([F(x, level.den) for x in level.lowers], st.d)


class TestInit:
    def test_unit_interval(self, ap_pattern, sqrt_gauge):
        st = init_state(1, [ap_pattern], sqrt_gauge)
        assert st.depth == 0
        assert fracs(st, 0) == [(F(1),)]
        assert st.side(0) == 1

    def test_unit_square(self):
        p = make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]])
        h = make_dimfn("pow", F(1, 4), 2)
        st = init_state(2, [p], h)
        assert fracs(st, 0) == [(F(1), F(1))]

    def test_no_patterns_rejected(self, sqrt_gauge):
        with pytest.raises(ZeroPattern):
            init_state(1, [], sqrt_gauge)

    def test_gauge_dimension_must_match(self, ap_pattern):
        h = make_dimfn("pow", F(1, 2), 2)
        with pytest.raises(StructureViolation):
            init_state(1, [ap_pattern], h)


class TestDyadicSplit:
    def test_first_level(self, ap_pattern, sqrt_gauge):
        st = build(init_state(1, [ap_pattern], sqrt_gauge), 1)
        assert fracs(st, 1) == [(F(1),), (F(3, 2),)]

    def test_d2_digit_semantics(self):
        p = make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]])
        h = make_dimfn("pow", F(1, 4), 2)
        st = build(init_state(2, [p], h), 1)
        # digit = sum of bit_v * 2^v, bit selects the upper half on axis v.
        assert fracs(st, 1) == [
            (F(1), F(1)),
            (F(3, 2), F(1)),
            (F(1), F(3, 2)),
            (F(3, 2), F(3, 2)),
        ]


class TestPlacement:
    def test_worked_example_last_block(self, ap_pattern):
        # Level-5 parent [1, 33/32] rescaled by 576 is [576, 594], center 585;
        # the shifted lattice 8z + 4 rounds to z = 73, child [1175, 1177]/1152.
        # Over the denominator 1152 the parent is 1152 + [0, 36], child side 2.
        n = normalize(ap_pattern)
        lattice = block_lattice(n, 2, 2)
        lower = place_on_lattice([1152], 36, lattice)
        assert lattice_vectors(lower, lattice) == [73]
        assert lower == [1175]  # 1175/1152

    def test_first_block_unshifted(self, ap_pattern):
        n = normalize(ap_pattern)
        lattice = block_lattice(n, 0, 2)
        lower = place_on_lattice([1152], 36, lattice)
        assert lattice_vectors(lower, lattice) == [73]  # lattice 8z, center 584, offset 1
        assert lower == [1167]  # 1167/1152

    def test_exact_lattice_hit_keeps_center(self, ap_pattern):
        # Parent centered exactly on a lattice point: offset must be zero.
        # Over the denominator 1152, delta = 1/576 is 2 and 1/64 is 18.
        n = normalize(ap_pattern)
        delta = 2
        parent = [584 * delta - 18]  # center at 584*delta
        lattice = block_lattice(n, 0, delta)
        lower = place_on_lattice(parent, 36, lattice)
        assert lattice_vectors(lower, lattice) == [73]
        assert lower == [584 * delta - delta // 2]

    def test_lattice_needs_the_lattice_denominator(self, ap_pattern):
        # A side of 1 cannot carry the AP lattice (Q = 2): no rounding, a raise.
        with pytest.raises(StructureViolation):
            block_lattice(normalize(ap_pattern), 0, 1)

    def test_child_inside_parent_everywhere(self, ap_tree_12):
        st = ap_tree_12
        for entry in st.entries:
            k = entry.m_level
            delta, parent_side = st.side(k), st.side(k - 1)
            prev = fracs(st, k - 1)
            for i, lower in enumerate(fracs(st, k)):
                plo = prev[i]
                assert all(
                    plo[v] <= lower[v] and lower[v] + delta <= plo[v] + parent_side
                    for v in range(st.d)
                )

    def test_free_cubes_keep_lower_corner(self, ap_tree_7):
        # Level-5 cubes outside the scheduled tuple (below address "11")
        # each keep a child anchored at their own lower corner at M_1 = 6.
        st = ap_tree_7
        entry = st.entries[0]
        members = set(entry.tuple_codes)
        shift = st.ndigits(5) - st.ndigits(entry.level)
        parents = fracs(st, 5)
        free = [i for i in range(len(parents)) if (i >> shift) not in members]
        assert free  # address "11" has 8 level-5 descendants
        children = fracs(st, 6)
        for i in free:
            assert children[i] == parents[i]

    def test_impossible_fit_raises(self, ap_pattern):
        # Feed a parent far too small for the lattice spacing: over the
        # denominator 2048 the parent is 2048 + [0, 4] (side 1/512), the
        # child side 1/1024 is 2.
        n = normalize(ap_pattern)
        with pytest.raises(PlacementFailure):
            place_on_lattice([2048], 4, block_lattice(n, 0, 2))


class TestBuild:
    def test_depth_zero(self, ap_pattern, sqrt_gauge):
        st = build_tree(1, [ap_pattern], sqrt_gauge, 0)
        assert st.depth == 0 and st.entries == []

    def test_depth_seven_counts(self, ap_tree_7):
        assert len(ap_tree_7.levels[7].lowers) == 64
        assert ap_tree_7.side(7) == F(1, 1152)
        assert ap_tree_7.m_levels == [6]

    def test_depth_twelve_counts(self, ap_tree_12):
        st = ap_tree_12
        assert st.m_levels == [6, 11]
        assert len(st.levels[12].lowers) == 1024
        assert st.side(12) == F(1, 2**12 * 81)

    def test_profile_matches_at_every_level(self, ap_tree_12):
        st = ap_tree_12
        for k in range(13):
            applied = [e.beta for e in st.entries if e.m_level <= k]
            assert st.side(k) == F(1, 2**k * prod(applied))
            assert len(st.levels[k].lowers) == st.expected_count(k) == 2 ** (k - len(applied))

    def test_first_entry_matches_enumerator(self, ap_tree_12):
        e = ap_tree_12.entries[0]
        assert (e.level, e.tuple_codes, e.m_level, e.beta) == (2, (0, 1, 2), 6, 9)
        e2 = ap_tree_12.entries[1]
        assert (e2.level, e2.tuple_codes, e2.m_level) == (2, (0, 1, 3), 11)

    def test_determinism(self, ap_pattern, sqrt_gauge, ap_tree_12):
        again = build_tree(1, [ap_pattern], sqrt_gauge, 12)
        assert state_to_doc(again) == state_to_doc(ap_tree_12)

    def test_depth_above_cap(self, ap_pattern, sqrt_gauge):
        with pytest.raises(ScheduleOverflow):
            build_tree(1, [ap_pattern], sqrt_gauge, 12, level_cap=10)

    def test_d2_avoidance_level(self):
        p = make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]])
        h = make_dimfn("pow", F(1, 4), 2)
        st = build(init_state(2, [p], h), 3)
        assert st.m_levels == [3]
        assert len(st.levels[3].lowers) // st.d == 16
        validate_structure(st)


def _without_last_cube(st, k):
    """A copy of a built state of depth k whose level k lacks its last cube."""
    leaf = st.levels[k]
    return with_levels(st, [*st.levels[:k], Level(leaf.den, leaf.lowers[: -st.d])])


class TestValidation:
    def test_valid_tree_passes(self, ap_tree_12):
        validate_structure(ap_tree_12)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda st, move: move(st, 6, 0, [F(1, 2)]),
            lambda st, move: _without_last_cube(st, 12),
        ],
        ids=["escapes-parent", "missing-cube"],
    )
    def test_corruption_detected(self, ap_tree_12, move_cube, mutate):
        with pytest.raises(StructureViolation):
            validate_structure(mutate(ap_tree_12, move_cube))


    def test_escape_above_parent_at_the_deepest_level(
        self, ap_pattern, sqrt_gauge, move_cube
    ):
        # Parent [1, 33/32], child side 1/576: the top face pokes out, and no
        # deeper level exposes it through a dyadic slot.
        st = build(init_state(1, [ap_pattern], sqrt_gauge), 6)
        with pytest.raises(StructureViolation, match="escapes its parent"):
            validate_structure(move_cube(st, 6, 0, [F(33, 32)]))

    def test_containment_is_exact_at_both_faces(self, ap_pattern, sqrt_gauge, move_cube):
        # Over the level-6 denominator 1152 the parent of cube 0 is
        # [1152, 1188] and the child side is 2: lower corners 1152 and 1186
        # touch the faces and are inside; one unit further is out.
        st = build(init_state(1, [ap_pattern], sqrt_gauge), 6)
        assert st.levels[6].den == 1152
        for lower in (1152, 1186):
            validate_structure(move_cube(st, 6, 0, [F(lower, 1152)]))
        for lower in (1151, 1187):
            with pytest.raises(StructureViolation, match="cube 0 escapes its parent"):
                validate_structure(move_cube(st, 6, 0, [F(lower, 1152)]))


class TestAddresses:
    def test_roundtrip(self):
        for d in (1, 2, 3):
            code = 0b1011010 & ((1 << (d * 3)) - 1)
            s = render_address(code, 3, d)
            assert parse_address(s, d) == code
            assert len(s) == 3

    def test_known_strings(self):
        assert render_address(0b01, 2, 1) == "01"
        assert render_address(0b1110, 2, 2) == "32"


class TestSerialization:
    def test_tree_roundtrip(self, ap_tree_12, tmp_path):
        path = tmp_path / "tree.json"
        write_tree(ap_tree_12, path)
        from lacuna.engine import read_tree

        st = read_tree(path)
        assert st.levels[12].lowers == ap_tree_12.levels[12].lowers
        assert st.m_levels == ap_tree_12.m_levels
        assert state_to_doc(st) == state_to_doc(ap_tree_12)
