"""Point and picture exports of a built tree.

Two point formats: 'points' keeps exact rationals (round-trippable, oracle
food), 'csv' renders decimals at a chosen precision for spreadsheets and
plotting.  SVG shows the per-level cube outlines for d <= 2.  All decimal
rendering goes through integer arithmetic so exports are byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .engine import ConstructionState
from .errors import FormatError, UnsupportedDimension
from .qmath import decimal_string, format_ratio, parse_rational

POINTS_HEADER = "# lacuna-points/1 d="


def write_points_exact(state: ConstructionState, path: str | Path) -> None:
    """Deepest-level cube centers as exact 'p/q' coordinates, one point a line."""
    d = state.d
    den, centers = state.leaf_center_numerators()
    cells = [format_ratio(c, den) for c in centers]
    lines = cells if d == 1 else [" ".join(cells[i : i + d]) for i in range(0, len(cells), d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{POINTS_HEADER}{d}\n" + "\n".join(lines) + "\n")


def read_points(path: str | Path) -> tuple[int, list[tuple[Fraction, ...]]]:
    """d and the points of a lacuna-points file; the points are pairwise
    distinct, as the oracle requires."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
            if not header.startswith(POINTS_HEADER):
                raise FormatError("missing lacuna-points header")
            d = int(header[len(POINTS_HEADER):])
            if d < 1:
                raise FormatError(f"points header gives d={d}, need d >= 1")
            points = []
            seen = set()
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                coords = tuple(parse_rational(tok) for tok in line.split())
                if len(coords) != d:
                    raise FormatError(f"point {line!r} does not have {d} coordinates")
                if coords in seen:
                    raise FormatError(f"point {line!r} repeats an earlier point")
                seen.add(coords)
                points.append(coords)
        except ValueError as exc:  # a non-integer d, or bytes that are not UTF-8
            raise FormatError(f"malformed points file: {exc}") from exc
    return d, points


def write_points_csv(
    state: ConstructionState, path: str | Path, decimals: int = 12
) -> None:
    """Deepest-level cube centers as decimals (convenience, not certified)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{v}" for v in range(state.d)) + "\n")
        for center in state.leaf_centers():
            fh.write(",".join(decimal_string(c, decimals) for c in center))
            fh.write("\n")


def _svg_coord(x: Fraction, scale: int) -> str:
    return decimal_string((x - 1) * scale, 2)


def write_svg(state: ConstructionState, path: str | Path, size: int = 720) -> None:
    """Cube outlines, one group per level; requires d <= 2.

    d=1 stacks the levels as horizontal bands, d=2 overlays the outlines on
    the unit square [1,2]^2.
    """
    if state.d > 2:
        raise UnsupportedDimension("SVG export exists for d <= 2 only")
    rows = state.depth + 1
    band = 24
    height = rows * band if state.d == 1 else size
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{size}" height="{height}" viewBox="0 0 {size} {height}">'
    ]
    for k, level in enumerate(state.levels):
        side = state.side(k)
        lines.append(f'<g id="level-{k}" fill="none" stroke="#1f3a5f" stroke-width="0.6">')
        corners = [Fraction(x, level.den) for x in level.lowers]
        for i in range(0, len(corners), state.d):
            lower = corners[i : i + state.d]
            x = _svg_coord(lower[0], size)
            w = decimal_string(side * size, 2)
            if state.d == 1:
                y = str(k * band + 4)
                lines.append(f'<rect x="{x}" y="{y}" width="{w}" height="{band - 8}"/>')
            else:
                # SVG y grows downward; flip the second axis.
                y = _svg_coord(Fraction(2) - (lower[1] + side), size)
                lines.append(f'<rect x="{x}" y="{y}" width="{w}" height="{w}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
