"""Point and picture exports of a built tree.

Two point formats: 'points' keeps exact rationals (round-trippable, oracle
food), 'csv' renders decimals at a chosen precision for spreadsheets and
plotting.  Both are one row per deepest-level cube center, written by one
leaf-row writer.  SVG shows the per-level cube outlines for d <= 2, written
one level at a time.  Every coordinate is rendered from an integer
numerator over its level's denominator, so exports are byte-reproducible
and build no Fraction.
"""

from __future__ import annotations

import sys
from itertools import repeat
from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import FormatError, UnsupportedDimension, UsageError
from .qmath import decimal_ratio, format_ratio, parse_rational

if TYPE_CHECKING:
    from .engine import ConstructionState

POINTS_HEADER = "# lacuna-points/1 d="

#: Cubes rendered per write: an export holds one chunk of text at a time.
CHUNK = 1 << 16

#: Width of an SVG picture, in user units: [1,2] is drawn on [0, SVG_SIZE].
SVG_SIZE = 720


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


def write_svg(state: ConstructionState, path: str | Path) -> None:
    """Cube outlines, one group per level; requires d <= 2.

    d=1 stacks the levels as horizontal bands, d=2 overlays the outlines on
    the unit square [1,2]^2.  A corner x/den of [1,2] is drawn at
    (x/den - 1) * SVG_SIZE, truncated to hundredths.
    """
    d = state.d
    if d > 2:
        raise UnsupportedDimension("SVG export exists for d <= 2 only")
    size = SVG_SIZE
    band = 24
    height = (state.depth + 1) * band if d == 1 else size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{size}" height="{height}" viewBox="0 0 {size} {height}">\n'
        )
        for k, level in enumerate(state.levels):
            den, s = level.den, state.side_num
            w = decimal_ratio(s * size, den, 2)
            tail = f'" width="{w}" height="{band - 8 if d == 1 else w}"/>\n'
            fh.write(f'<g id="level-{k}" fill="none" stroke="#1f3a5f" stroke-width="0.6">\n')
            for i in range(0, len(level.lowers), d * CHUNK):
                lowers = level.lowers[i : i + d * CHUNK]
                xs = [decimal_ratio((x - den) * size, den, 2) for x in lowers[::d]]
                if d == 1:
                    ys = repeat(str(k * band + 4))
                else:
                    # SVG y grows downward: the top edge y + side of a cube
                    # on [1,2] is drawn at (2 - (y + side)/den) * size
                    ys = [decimal_ratio((2 * den - s - y) * size, den, 2) for y in lowers[1::2]]
                fh.write("".join([f'<rect x="{x}" y="{y}{tail}' for x, y in zip(xs, ys)]))
            fh.write("</g>\n")
        fh.write("</svg>\n")
