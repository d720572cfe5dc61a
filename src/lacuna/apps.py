"""Application builders: reduce concrete avoidance problems to pattern lists.

Each builder turns one family of geometric statements into scalar linear
patterns for the engine:

* quotients     y/x avoids a list of values a != 1      (psi = a*x - y)
* differences   log-image whose difference set avoids given targets
* planes        (x,y,z) avoids planes a*x + b*y + c*z = 0 through the origin
* ratios        (z-x)/(z-y) avoids values in (1, oo); ratio 2 kills 3-term
                arithmetic progressions
* parallelogram / trapezoids   vertex configurations in R^d, one scalar
                pattern per coordinate of the vector-valued form
* complex_triplets   no similar copy of given complex triplets, via the
                C = R^2 identification (lacuna.triplets)
* vector_split  generic N-component linear form, one pattern per nonzero row

run_app takes every kind down one path: the patterns, one build
(engine.build_tree), then certify.certify_tree, the routine of `lacuna
certify`, with 100 spot checks per entry, which reads the build's levels.
The difference app, the one place irrational targets appear, is in
lacuna.differences; run_app imports it for that kind only, to get the
quotient targets before the build and report.json after the
certificates.  Likewise the Gaussian rationals and the builder of the
complex_triplets kind are in lacuna.triplets, which app_patterns imports
for that kind only.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import certify, engine
from .dimfn import parse_dimfn
from .errors import (
    AllRowsZero,
    FormatError,
    RejectRange,
    RejectUnit,
    UnsupportedDimension,
    ZeroPattern,
)
from .jsonfile import int_field, list_field, write_json
from .pattern import LinearPattern, make_pattern
from .qmath import format_rational, parse_rational
from .record import Record

APP_KINDS = (
    "quotients",
    "differences",
    "planes",
    "ratios",
    "parallelogram",
    "trapezoids",
    "complex_triplets",
    "vector_split",
)


def quotient_patterns(values: Sequence[Fraction]) -> list[LinearPattern]:
    """psi_a(x, y) = a*x - y for each a; a = 1 is excluded by hypothesis."""
    out = []
    for a in values:
        a = Fraction(a)
        if a == 1:
            raise RejectUnit("quotient target 1 would only forbid x = y")
        out.append(make_pattern(1, [[a], [-1]]))
    return out


def plane_patterns(triples: Sequence[Sequence[Fraction]]) -> list[LinearPattern]:
    out = []
    for abc in triples:
        a, b, c = (Fraction(v) for v in abc)
        if a == b == c == 0:
            raise ZeroPattern("plane coefficients all vanish")
        out.append(make_pattern(1, [[a], [b], [c]]))
    return out


def ratio_patterns(values: Sequence[Fraction]) -> list[LinearPattern]:
    """x - a*y + (a-1)*z = 0 encodes (z-x)/(z-y) = a; needs a > 1."""
    out = []
    for a in values:
        a = Fraction(a)
        if a <= 1:
            raise RejectRange(f"ratio parameter must exceed 1, got {a}")
        out.append(make_pattern(1, [[Fraction(1)], [-a], [a - 1]]))
    return out


def split_vector_pattern(
    d: int, m: int, rows: Sequence[Sequence[Fraction]]
) -> list[LinearPattern]:
    """One scalar pattern per nonzero component row of an R^N-valued form.

    Avoiding every nonzero component keeps the vector form away from zero;
    zero rows are discarded.
    """
    out = []
    for row in rows:
        if len(row) != m * d:
            raise FormatError(f"component row must have {m * d} coefficients")
        vals = [Fraction(v) for v in row]
        if all(v == 0 for v in vals):
            continue
        blocks = [vals[i * d : (i + 1) * d] for i in range(m)]
        out.append(make_pattern(d, blocks))
    if not out:
        raise AllRowsZero("every component row of the vector pattern vanishes")
    return out


def parallelogram_patterns(d: int) -> list[LinearPattern]:
    """x1 - x2 + x3 - x4 = 0 per coordinate: no parallelogram vertices.

    It is the trapezoid pattern of proportion -1.
    """
    return trapezoid_patterns(d, [-1])


def trapezoid_patterns(d: int, alphas: Sequence[Fraction]) -> list[LinearPattern]:
    """x1 - x2 - a*(x3 - x4) = 0 per coordinate: no trapezoid with parallel
    sides in proportion a (a != 0)."""
    out = []
    for a in alphas:
        a = Fraction(a)
        if a == 0:
            raise RejectRange("trapezoid proportion must be nonzero")
        rows = []
        for v in range(d):
            row = [Fraction(0)] * (4 * d)
            for block, coef in enumerate((1, -1, -a, a)):
                row[block * d + v] = Fraction(coef)
            rows.append(row)
        out.extend(split_vector_pattern(d, 4, rows))
    return out


# -- app spec files ---------------------------------------------------------------

class AppSpec(Record):
    kind: str
    params: object
    h_spec: str
    depth: int
    d: int = 2
    precision: int = 64


def _check_dimension(d: int) -> int:
    """d, if a build of that dimension exists; refused before any pattern
    is built, since the patterns of a d-dimensional app grow like d^2."""
    if d > engine.MAX_D:
        raise UnsupportedDimension(f"d={d}: builds exist for d <= {engine.MAX_D} only")
    return d


def app_spec_from_doc(doc: dict) -> AppSpec:
    try:
        kind = doc["kind"]
        if kind not in APP_KINDS:
            raise FormatError(f"unknown app kind {kind!r}")
        spec = AppSpec(
            kind=kind,
            params=doc.get("params", []),
            h_spec=doc["h"],
            depth=int_field(doc["depth"], "depth", 0),
            d=int_field(doc.get("d", 2), "d", 1),
            precision=int_field(doc.get("precision", 64), "precision", 1),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed app spec: {exc}") from exc
    if kind in ("parallelogram", "trapezoids"):
        _check_dimension(spec.d)
    return spec


def _rationals(value: object, what: str, length: int | None = None) -> list[Fraction]:
    return [parse_rational(v) for v in list_field(value, what, length)]


def app_patterns(app: AppSpec) -> tuple[int, list[LinearPattern]]:
    """Ambient dimension and pattern list for every kind except differences.

    The shape of app.params is checked here: a malformed one is a FormatError.
    """
    if app.kind == "quotients":
        return 1, quotient_patterns(_rationals(app.params, "quotients params"))
    if app.kind == "planes":
        rows = list_field(app.params, "planes params")
        return 1, plane_patterns([_rationals(row, "a plane", 3) for row in rows])
    if app.kind == "ratios":
        return 1, ratio_patterns(_rationals(app.params, "ratios params"))
    if app.kind == "parallelogram":
        return app.d, parallelogram_patterns(app.d)
    if app.kind == "trapezoids":
        return app.d, trapezoid_patterns(app.d, _rationals(app.params, "trapezoids params"))
    if app.kind == "complex_triplets":
        from .triplets import GaussianRational, complex_triplet_patterns

        triplets = [
            [
                GaussianRational(*_rationals(p, "a complex number", 2))
                for p in list_field(trip, "a complex triplet", 3)
            ]
            for trip in list_field(app.params, "complex_triplets params")
        ]
        return 2, complex_triplet_patterns(triplets)
    if app.kind == "vector_split":
        p = app.params
        if not isinstance(p, dict) or not {"d", "m", "rows"} <= p.keys():
            raise FormatError(
                f'vector_split params must be an object with "d", "m" and "rows", got {p!r}'
            )
        d = _check_dimension(int_field(p["d"], "vector_split d", 1))
        rows = [
            _rationals(row, "a vector_split row")
            for row in list_field(p["rows"], "vector_split rows")
        ]
        return d, split_vector_pattern(d, int_field(p["m"], "vector_split m", 2), rows)
    raise FormatError(f"app kind {app.kind!r} has no direct pattern list")


def run_app(app: AppSpec, out_dir: str | Path) -> dict:
    """Build one app, then certify it as `lacuna certify --spot-checks 100`
    would, and write tree.json and cert.json (plus report.json for
    differences) into out_dir.

    An app whose build processes no entry certifies no gap and has no
    measure.  Every document is rendered before out_dir is created, so an
    app refused before its files are written leaves no directory; returns
    a summary dict with counts and certificate verdicts.
    """
    out = Path(out_dir)
    if app.kind == "differences":
        from . import differences

        params = list_field(app.params, "differences params")
        targets, mids = differences.difference_targets(params, app.precision)
        d, patterns = 1, quotient_patterns(mids)
    else:
        d, patterns = app_patterns(app)
    state = engine.build_tree(d, patterns, parse_dimfn(app.h_spec, d), app.depth)
    gaps, measure = certify.certify_tree(state, "all" if state.entries else "gap", 100)
    docs = {"cert.json": certify.certificates_to_doc(gaps, measure)}
    if app.kind == "differences":
        docs["report.json"] = differences.difference_report(
            targets, mids, state, gaps, app.precision
        )
    out.mkdir(parents=True, exist_ok=True)
    engine.write_tree(state, out / "tree.json")
    for name, doc in docs.items():
        write_json(doc, out / name)
    return {
        "kind": app.kind,
        "d": state.d,
        "depth": state.depth,
        "patterns": len(state.patterns),
        "entries": len(state.entries),
        "gaps_certified": len(gaps),
        "measure_lower_bound": None
        if measure is None
        else format_rational(measure.lower_bound),
        "out_dir": str(out),
    }
