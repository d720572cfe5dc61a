"""Point exports of a built tree, and the points reader of the oracle.

Two point formats: 'points' keeps exact rationals (round-trippable, oracle
food), 'csv' renders decimals at a chosen precision for spreadsheets and
plotting.  Both are one row per deepest-level cube center, written by one
leaf-row writer.  Every coordinate is rendered from an integer numerator
over the leaf level's denominator, so exports are byte-reproducible and
build no Fraction.  The SVG picture is written by lacuna.svg, which only
`export --format svg` loads.
"""

from __future__ import annotations

import sys
from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import FormatError, UsageError
from .qmath import decimal_ratio, format_ratio, parse_rational

if TYPE_CHECKING:
    from .engine import ConstructionState

POINTS_HEADER = "# lacuna-points/1 d="

#: Cubes rendered per write: an export holds one chunk of text at a time.
CHUNK = 1 << 16


def _write_leaf_rows(
    state: ConstructionState,
    path: str | Path,
    header: str,
    cell: Callable[[int, int], str],
    sep: str,
) -> None:
    """The header, then one line per deepest-level cube center: its d
    coordinates, each rendered by cell(numerator, den), joined by sep.

    The first chunk is rendered before the file is opened.  Every leaf has
    the same denominator, so coordinates too long to write (a UsageError
    from format_ratio) already fail there, and the refusal leaves no file.
    """
    d = state.d
    den, centers = state.leaf_center_numerators()

    def chunks():
        for i in range(0, len(centers), d * CHUNK):
            cells = [cell(c, den) for c in centers[i : i + d * CHUNK]]
            if d > 1:
                cells = [sep.join(cells[j : j + d]) for j in range(0, len(cells), d)]
            yield "\n".join(cells) + "\n"

    rows = chunks()
    first = next(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + first)
        fh.writelines(rows)


def write_points_exact(state: ConstructionState, path: str | Path) -> None:
    """Deepest-level cube centers as exact 'p/q' coordinates, one point a line."""
    _write_leaf_rows(state, path, f"{POINTS_HEADER}{state.d}", format_ratio, " ")


def read_points(path: str | Path) -> tuple[int, int, list[tuple[int, ...]]]:
    """(d, den, points) of a lacuna-points file: each point is a tuple of
    integer numerators over den, the lcm of the reduced denominators.  The
    points are pairwise distinct, as the oracle requires: repeats are found
    on reduced (p, q) pairs, so 2/4 repeats 1/2."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
            if not header.startswith(POINTS_HEADER):
                raise FormatError("missing lacuna-points header")
            d = int(header[len(POINTS_HEADER):])
            if d < 1:
                raise FormatError(f"points header gives d={d}, need d >= 1")
            seen = {}  # a dict keeps the file's order
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                coords = tuple(parse_rational(tok).as_integer_ratio() for tok in line.split())
                if len(coords) != d:
                    raise FormatError(f"point {line!r} does not have {d} coordinates")
                if coords in seen:
                    raise FormatError(f"point {line!r} repeats an earlier point")
                seen[coords] = None
        except ValueError as exc:  # a non-integer d, or bytes that are not UTF-8
            raise FormatError(f"malformed points file: {exc}") from exc
    den = lcm(*{q for coords in seen for _, q in coords})
    return d, den, [tuple([p * (den // q) for p, q in coords]) for coords in seen]


def write_points_csv(
    state: ConstructionState, path: str | Path, decimals: int = 12
) -> None:
    """Deepest-level cube centers as decimals (convenience, not certified).

    More decimals than the interpreter converts from int to str
    (sys.get_int_max_str_digits()) is a request past a fixed limit: a
    UsageError, raised before the file is opened.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and decimals > limit:
        raise UsageError(
            f"{decimals} decimals are more digits than the interpreter renders ({limit})"
        )
    header = ",".join(f"x{v}" for v in range(state.d))
    _write_leaf_rows(
        state, path, header, lambda c, den: decimal_ratio(c, den, decimals), ","
    )
