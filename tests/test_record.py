from __future__ import annotations

from fractions import Fraction

import pytest

from lacuna.apps import AppSpec
from lacuna.certify import certify_measure, measure_to_doc
from lacuna.dimfn import make_dimfn
from lacuna.engine import (
    ConstructionState,
    Level,
    ScheduleEntry,
    init_state,
    lattice_denominator,
)
from lacuna.errors import DimensionMismatch
from lacuna.pattern import make_pattern, normalize, patterns_to_doc
from lacuna.record import Record
from conftest import walk_levels

F = Fraction


class Point(Record):
    x: int
    y: int = 0


class Pair(Record):
    x: int
    y: int = 0


def _entry(**changes):
    fields = dict(index=1, pattern_id=0, level=1, tuple_codes=(0, 1), m_level=3, beta=3)
    return ScheduleEntry(**{**fields, **changes})


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
        assert Point(1).y == 0
        assert AppSpec("ratios", ["2"], "pow:1/2", 3).precision == 64

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((1, 2, 3), {}), ((1,), {"x": 2}), ((1,), {"z": 2})],
        ids=["missing", "too-many", "twice", "unknown"],
    )
    def test_bad_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_repr(self):
        assert repr(Point(1, F(1, 2))) == "Point(x=1, y=Fraction(1, 2))"

    def test_post_init_validates(self, ap_pattern):
        # one coefficient row is arity 1
        with pytest.raises(DimensionMismatch, match="arity m >= 2"):
            ap_pattern.replace(coeffs=ap_pattern.coeffs[:1])


class TestFrozen:
    def test_assignment_raises(self):
        entry = _entry()
        with pytest.raises(AttributeError):
            entry.m_level = 7
        with pytest.raises(AttributeError):
            del entry.beta
        assert entry.m_level == 3

    def test_classes_with_equal_fields_differ(self):
        assert Point(1, 2) != Pair(1, 2)

    def test_replace_builds_a_new_record(self):
        entry = _entry()
        moved = entry.replace(m_level=5)
        assert moved == _entry(m_level=5) and entry.m_level == 3


class TestMutable:
    def test_unhashable(self, ap_pattern, sqrt_gauge):
        """No record hashes, frozen or mutable: lacuna keys no set or dict
        by one."""
        level = Level(2, [2])
        level.lowers = [3]
        assert level == Level(2, [3])
        state = init_state(1, [ap_pattern], sqrt_gauge)
        frozen = (_entry(), Point(1), ap_pattern, sqrt_gauge, state.normalized[0])
        for record in (level, state, *frozen):
            with pytest.raises(TypeError):
                hash(record)

    def test_states_do_not_share_entries(self, ap_pattern, sqrt_gauge):
        a = init_state(1, [ap_pattern], sqrt_gauge)
        b = init_state(1, [ap_pattern], sqrt_gauge)
        a.entries.append(_entry())
        assert a.entries is not b.entries and b.entries == []
        # entries has no default, which would be one list shared by every state
        with pytest.raises(TypeError, match="missing field 'entries'"):
            ConstructionState(h=sqrt_gauge, patterns=a.patterns, level_cap=a.level_cap)


class TestDerivedValues:
    """A record's fields are its inputs: what follows from them is made with
    the record, so no constructor takes it and replace derives it afresh."""

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("pattern", "m"),
            ("normal form", "peak"),
            ("normal form", "scales"),
            ("normal form", "max_scale"),
            ("state", "d"),
            ("state", "normalized"),
            ("measure", "lower_bound"),
            ("measure", "c1"),
            ("measure", "conditional"),
        ],
    )
    def test_no_constructor_takes_a_derived_value(self, ap_tree_12, kind, name):
        record = {
            "pattern": ap_tree_12.patterns[0],
            "normal form": ap_tree_12.normalized[0],
            "state": ap_tree_12,
            "measure": certify_measure(ap_tree_12),
        }[kind]
        assert name not in record._fields
        # replace builds through the constructor
        with pytest.raises(TypeError, match=f"unknown or repeated field {name!r}"):
            record.replace(**{name: getattr(record, name)})

    def test_pattern_arity_follows_its_rows(self, ap_pattern):
        pair = ap_pattern.replace(coeffs=ap_pattern.coeffs[1:])
        assert pair.m == 2 and pair == make_pattern(1, [[-2], [1]])
        assert patterns_to_doc(1, [pair])["patterns"][0]["m"] == 2

    def test_normal_form_constants_follow_the_base(self, ap_pattern, quotient2_pattern):
        ap, q2 = normalize(ap_pattern), normalize(quotient2_pattern)
        moved = ap.replace(base=q2.base)
        assert (moved.peak, moved.scales, moved.max_scale) == (q2.peak, q2.scales, q2.max_scale)
        assert (moved.peak, moved.max_scale) != (ap.peak, ap.max_scale)

    def test_state_normal_forms_follow_its_patterns(self, ap_tree_12):
        # the AP pattern is m = 3; the quotient 3 pattern is m = 2
        q3 = make_pattern(1, [[3], [-1]])
        moved = ap_tree_12.replace(patterns=(q3,))
        assert moved.normalized == (normalize(q3),) and moved.normalized[0].m == 2
        assert moved.side_num == lattice_denominator(moved.normalized)

    def test_state_dimension_follows_its_gauge(self, ap_tree_12):
        p2 = make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]])
        moved = ap_tree_12.replace(h=make_dimfn("pow", F(1, 4), 2), patterns=(p2,), entries=[])
        assert moved.d == 2 and len(walk_levels(moved, 0)[0].lowers) == 2

    def test_measure_bound_follows_c3(self, ap_tree_12):
        cert = certify_measure(ap_tree_12)
        doubled = cert.replace(c3_upper=2 * cert.c3_upper)
        assert doubled.lower_bound == F(1, 20) == cert.lower_bound / 2
        doc = measure_to_doc(doubled)
        assert doc["lower_bound"] == "1/20" and doc["c3_upper"] == "20"
        assert doc["c1"] == 1 and doc["conditional"] == measure_to_doc(cert)["conditional"]
