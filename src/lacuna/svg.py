"""The SVG picture of a built tree: the cube outlines of every level.

Only `lacuna export --format svg` loads this module.  Every coordinate is
rendered from an integer numerator over its level's denominator, so the
picture is byte-reproducible and builds no Fraction.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import UnsupportedDimension
from .qmath import decimal_ratio

if TYPE_CHECKING:
    from .engine import ConstructionState

#: Cubes rendered per write: the writer holds one chunk of text at a time.
#: The points writers' export.CHUNK has the same value; it is not imported,
#: so that the picture's step compiles no export code.
CHUNK = 1 << 16

#: Width of an SVG picture, in user units: [1,2] is drawn on [0, SVG_SIZE].
SVG_SIZE = 720


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
