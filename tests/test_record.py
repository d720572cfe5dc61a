from __future__ import annotations

from fractions import Fraction

import pytest

from lacuna.apps import AppSpec
from lacuna.engine import ConstructionState, Level, ScheduleEntry, init_state
from lacuna.errors import DimensionMismatch
from lacuna.record import Record

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
        with pytest.raises(DimensionMismatch):
            ap_pattern.replace(m=1)


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
            ConstructionState(
                d=1, h=sqrt_gauge, patterns=a.patterns, normalized=a.normalized,
                level_cap=a.level_cap,
            )
