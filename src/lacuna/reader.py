"""The tree reader: a lacuna-tree/3 document back to a ConstructionState.

A tree file is a recipe, and a trust boundary: every field is checked, and
so are the schedule invariants.  The reader makes no level: the state it
returns walks its levels from the checked recipe each time they are read
(ConstructionState.walk).  The schedule is not re-walked: any schedule
that passes the checks is rebuilt as written.  Only the steps that read a
tree (certify, export) load this module, through engine.read_tree.
"""

from __future__ import annotations

from .dimfn import parse_dimfn
from .engine import (
    _ADDRESS_ALPHABET,
    MAX_LEAF_CUBES,
    TREE_FORMAT,
    ConstructionState,
    ScheduleEntry,
    compute_beta,
    init_state,
    render_address,
)
from .errors import FormatError
from .jsonfile import int_field, list_field
from .pattern import patterns_from_doc


def parse_address(text: str, d: int) -> int:
    base = 1 << d
    code = 0
    for ch in text:
        v = _ADDRESS_ALPHABET.index(ch)
        if v >= base:
            raise FormatError(f"address digit {ch!r} out of range for d={d}")
        code = (code << d) | v
    return code


def _entries_from_doc(recs: list, state: ConstructionState, depth: int) -> None:
    """Append the schedule entries to state.entries, each checked for
    types, ranges, order and the schedule invariants: beta_i >=
    compute_beta, M_1 >= 2, M_{i+1} >= M_i + 2 and a tuple level <=
    M_i - 2."""
    d, normalized, entries = state.d, state.normalized, state.entries
    for pos, rec in enumerate(recs, start=1):
        if int_field(rec["i"], "entry index", 1) != pos:
            raise FormatError(f"schedule entry {pos} is stored with index {rec['i']}")
        pid = int_field(rec["pattern_id"], "pattern_id", 0)
        if pid >= len(normalized):
            raise FormatError(f"entry {pos}: pattern_id {pid} out of range")
        prev_m = entries[-1].m_level if entries else 0
        m_level = int_field(rec["M_i"], "M_i", prev_m + 2)
        if m_level > depth:
            raise FormatError(f"entry {pos}: M_i={m_level} exceeds the depth {depth}")
        level = int_field(rec["level"], "tuple level", 0)
        if level > m_level - 2:
            raise FormatError(f"entry {pos}: tuple level {level} is not above M_i={m_level}")
        # the tuple level lies above M_i, so only earlier entries act there
        nd = state.ndigits(level)
        names = rec["tuple"]
        codes = tuple(parse_address(a, d) for a in names)
        if (
            len(codes) != normalized[pid].m
            or len(set(codes)) != len(codes)
            or [render_address(c, nd, d) for c in codes] != names
        ):
            raise FormatError(
                f"entry {pos}: tuple is not {normalized[pid].m} distinct "
                f"level-{level} addresses"
            )
        entries.append(
            ScheduleEntry(
                index=pos,
                pattern_id=pid,
                level=level,
                tuple_codes=codes,
                m_level=m_level,
                beta=int_field(
                    rec["beta_i"], "beta_i", compute_beta(normalized[pid], d)
                ),
            )
        )


def doc_to_state(doc: dict) -> ConstructionState:
    """Rebuild a state from a tree document.

    Types, ranges, the cross-field consistency of the document and the
    schedule invariants (beta_i >= compute_beta, M_1 >= 2,
    M_{i+1} >= M_i + 2, tuple level <= M_i - 2, canonical addresses) are
    checked here and fail with FormatError, as does a recipe of more than
    MAX_LEAF_CUBES deepest-level cubes.  No level is made here: the state
    walks its levels from the stored entries each time they are read.
    engine.build extends the state only if its schedule is the one a build
    serves.
    """
    try:
        if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
            raise FormatError(
                f"not a {TREE_FORMAT} document "
                "(lacuna-tree/1 and lacuna-tree/2 files must be rebuilt)"
            )
        d = int_field(doc["d"], "d", 1)
        _, patterns = patterns_from_doc({"d": d, "patterns": doc["patterns"]})
        h = parse_dimfn(doc["h"], d)
        depth = int_field(doc["depth"], "depth", 0)
        state = init_state(d, patterns, h)
        _entries_from_doc(list_field(doc["schedule"], "schedule"), state, depth)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed tree document: {exc}") from exc
    # 2^(d * ndigits) cubes at the depth, compared by exponent: a forged
    # depth must not make this check itself expensive
    if d * state.ndigits(depth) > MAX_LEAF_CUBES.bit_length() - 1:
        raise FormatError(
            f"the tree asks for 2^{d * state.ndigits(depth)} cubes at depth {depth}, "
            f"more than {MAX_LEAF_CUBES}"
        )
    return state.replace(depth=depth)
