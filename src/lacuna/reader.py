"""The tree reader: a lacuna-tree/3 document back to a ConstructionState.

A tree file is a recipe, and a trust boundary.  The reader only parses
(the JSON types, the address digits, and each address's canonical form);
the state checks the schedule invariants itself (ConstructionState).  The
schedule is not re-walked: one that passes the checks is rebuilt as
written.  No level is made here.  Only the steps that read a tree
(certify, export) load this module, through engine.read_tree.
"""

from __future__ import annotations

from .dimfn import parse_dimfn
from .engine import (
    _ADDRESS_ALPHABET,
    DEFAULT_LEVEL_CAP,
    TREE_FORMAT,
    ConstructionState,
    ScheduleEntry,
    entry_to_doc,
)
from .errors import FormatError, StructureViolation
from .jsonfile import int_field, list_field
from .pattern import patterns_from_doc


def parse_address(text: str, d: int) -> int:
    """The cube index an address names, its digits read in base 2^d."""
    for ch in text:
        if _ADDRESS_ALPHABET.index(ch) >= 1 << d:
            raise FormatError(f"address digit {ch!r} out of range for d={d}")
    return int(text, 1 << d)


def _entry_from_doc(rec: dict, d: int) -> ScheduleEntry:
    return ScheduleEntry(
        index=int_field(rec["i"], "entry index"),
        pattern_id=int_field(rec["pattern_id"], "pattern_id"),
        m_level=int_field(rec["M_i"], "M_i"),
        level=int_field(rec["level"], "tuple level"),
        tuple_codes=tuple(parse_address(a, d) for a in rec["tuple"]),
        beta=int_field(rec["beta_i"], "beta_i"),
    )


def doc_to_state(doc: dict) -> ConstructionState:
    """Rebuild a state from a tree document, made once by the constructor.
    A field of the wrong type, an address digit out of range, an address
    without its level's number of digits, and every refusal of the state
    (schedule invariants, leaf cap; with its message) are FormatErrors."""
    try:
        if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
            raise FormatError(
                f"not a {TREE_FORMAT} document "
                "(lacuna-tree/1 and lacuna-tree/2 files must be rebuilt)"
            )
        d, patterns = patterns_from_doc(doc)
        h = parse_dimfn(doc["h"], d)
        depth = int_field(doc["depth"], "depth")
        recs = list_field(doc["schedule"], "schedule")
        state = ConstructionState(
            h=h,
            patterns=tuple(patterns),
            level_cap=DEFAULT_LEVEL_CAP,
            entries=[_entry_from_doc(rec, d) for rec in recs],
            depth=depth,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed tree document: {exc}") from exc
    except StructureViolation as exc:
        raise FormatError(str(exc)) from exc
    for e, rec in zip(state.entries, recs):
        if entry_to_doc(state, e)["tuple"] != rec["tuple"]:
            raise FormatError(f"entry {e.index}: tuple is not in level-{e.level} address form")
    return state
