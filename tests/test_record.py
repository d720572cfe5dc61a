from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction

import pytest

import lacuna
from lacuna.apps import AppSpec
from lacuna.certify import certify_gap, certify_measure, measure_to_doc
from lacuna.differences import DifferenceTarget
from lacuna.dimfn import make_dimfn, parse_dimfn
from lacuna.engine import (
    ConstructionState,
    Level,
    ScheduleEntry,
    init_state,
    lattice_denominator,
)
from lacuna.errors import (
    DimensionMismatch,
    RejectNotDominated,
    StructureViolation,
    ZeroPattern,
)
from lacuna.export import Points
from lacuna.pattern import make_pattern, normalize, patterns_to_doc
from lacuna.record import Record
from lacuna.triplets import GaussianRational
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


def _lacuna_records() -> list[str]:
    """The name of every Record subclass in src/lacuna, each module imported."""
    for module in pkgutil.iter_modules(lacuna.__path__):
        importlib.import_module(f"lacuna.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("lacuna."):
                found.add(cls.__name__)
    return sorted(found)


@pytest.fixture(scope="module")
def record_of(ap_pattern, sqrt_gauge, ap_tree_12):
    """One instance of each record class of lacuna, by class name; the state
    is a fresh one, so a broken refusal changes no shared fixture."""
    entry = ap_tree_12.entries[0]
    measure = certify_measure(ap_tree_12)
    return {
        "AppSpec": AppSpec("ratios", ["2"], "pow:1/2", 3),
        "BlockLattice": ap_tree_12.block_lattices(0)[0],
        "ConstructionState": init_state(1, [ap_pattern], sqrt_gauge),
        "DifferenceTarget": DifferenceTarget("rational", F(1)),
        "DimensionFunction": sqrt_gauge,
        "Points": Points(2, 1, [1, 1, 3, 2]),
        "GapCertificate": certify_gap(
            ap_tree_12, entry, walk_levels(ap_tree_12, entry.m_level)[-1]
        ),
        "GaussianRational": GaussianRational(F(1), F(2)),
        "Level": Level(2, [2]),
        "LevelVerdict": measure.per_level[0],
        "LinearPattern": ap_pattern,
        "MeasureCertificate": measure,
        "NormalizedPattern": normalize(ap_pattern),
        "ScheduleEntry": _entry(),
    }


class TestFrozen:
    """Every record refuses assignment and deletion."""

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

    @pytest.mark.parametrize("name", _lacuna_records())
    def test_every_record_refuses_assignment_and_deletion(self, record_of, name):
        record = record_of[name]
        assert type(record).__name__ == name
        before = record._values()
        for field in (*record._fields, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign or delete {field!r}"):
                setattr(record, field, None)
            with pytest.raises(AttributeError, match=f"cannot assign or delete {field!r}"):
                delattr(record, field)
        assert record._values() == before and not hasattr(record, "extra")

    def test_unhashable(self, ap_pattern, sqrt_gauge):
        """No record hashes: lacuna keys no set or dict by one."""
        state = init_state(1, [ap_pattern], sqrt_gauge)
        records = (
            Level(2, [2]), _entry(), Point(1), Points(1, 1, [1]), ap_pattern, sqrt_gauge,
            state.normalized[0],
        )
        for record in (state, *records):
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


class TestReplaceChecks:
    """replace builds through the constructor, so it refuses what the
    record's maker refuses, with the same error."""

    def test_state_assignment_is_refused(self, ap_pattern, sqrt_gauge, quotient2_pattern):
        state = init_state(1, [ap_pattern], sqrt_gauge)
        with pytest.raises(AttributeError):
            state.patterns = (quotient2_pattern,)
        with pytest.raises(AttributeError):
            state.h = make_dimfn("pow", F(1, 3), 1)
        assert state.normalized[0].m == 3 and state.h == sqrt_gauge

    def test_state_replace_checks_its_patterns(self, ap_pattern, sqrt_gauge):
        state = init_state(1, [ap_pattern], sqrt_gauge)
        with pytest.raises(ZeroPattern, match="^at least one pattern is required$"):
            state.replace(patterns=())
        p2 = make_pattern(2, [[1, 0], [-1, 0]])
        with pytest.raises(StructureViolation, match="^pattern dimension does not match"):
            state.replace(patterns=(p2,))

    @pytest.mark.parametrize(
        "changes, made",
        [({"s": F(2)}, ("pow", F(2), 1)), ({"family": "nope"}, ("nope", F(1, 2), 1))],
        ids=["s-above-d", "unknown-family"],
    )
    def test_gauge_replace_refuses_as_make_dimfn(self, changes, made):
        with pytest.raises(RejectNotDominated) as expected:
            make_dimfn(*made)
        with pytest.raises(RejectNotDominated) as raised:
            parse_dimfn("pow:1/2", 1).replace(**changes)
        assert str(raised.value) == str(expected.value)


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
