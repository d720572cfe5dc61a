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
from itertools import islice
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import FormatError, UsageError
from .qmath import _RATIONAL_RE, decimal_ratio, format_ratio, parse_rational

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
    points are pairwise distinct, as the oracle requires: 2/4 repeats 1/2.

    One pass reads each coordinate p/q as the ints p and q; a line that is
    not d literals within the int/str digit limit goes through
    parse_rational, which refuses a bad token with its message.  The
    numerators are scaled to L = lcm(q) and divided by g = gcd(L, all of
    them), so den = L/g and equal points have equal numerators.  A repeat
    before a refused line is refused first, as a line-by-line read would.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or sys.maxsize
    match, nums, qs, distinct, refusal = _RATIONAL_RE.match, [], [], {}, None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
            if not header.startswith(POINTS_HEADER):
                raise FormatError("missing lacuna-points header")
            d = int(header[len(POINTS_HEADER):])
            if d < 1:
                raise FormatError(f"points header gives d={d}, need d >= 1")
        except ValueError as exc:  # a non-integer d, or bytes that are not UTF-8
            raise FormatError(f"malformed points file: {exc}") from exc
        try:
            for line in fh:
                tokens = line.split()
                if len(tokens) != d or len(line) > limit or not all(map(match, tokens)):
                    # a bad token is refused first; a blank line passes
                    if [parse_rational(tok) for tok in tokens] and len(tokens) != d:
                        line = line.strip()
                        raise FormatError(f"point {line!r} does not have {d} coordinates")
                for tok in tokens:
                    p, _, q = tok.partition("/")
                    q = int(q or 1)
                    nums.append(int(p))
                    qs.append(distinct.setdefault(q, q))
        except FormatError as exc:
            refusal = exc
        except ValueError as exc:  # bytes that are not UTF-8
            refusal = FormatError(f"malformed points file: {exc}")
    den = lcm(*distinct)
    nums = list(map(mul, nums, map({q: den // q for q in distinct}.__getitem__, qs)))
    g = gcd(den, *nums)
    points = list(zip(*[iter(nums if g == 1 else [x // g for x in nums])] * d))
    del nums, qs
    if len(set(points)) < len(points):
        seen = set()
        i = next(i for i, x in enumerate(points) if x in seen or seen.add(x))
        with open(path, "r", encoding="utf-8") as fh:
            line = next(islice(filter(None, map(str.strip, islice(fh, 1, None))), i, None))
        refusal = FormatError(f"point {line!r} repeats an earlier point")
    if refusal:
        raise refusal
    return d, den // g, points


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
