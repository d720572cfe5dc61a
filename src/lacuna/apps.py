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
                C = R^2 identification
* vector_split  generic N-component linear form, one pattern per nonzero row

The difference app is the one place irrational targets appear: for a
rational exponent t != 0 the quotient target e^t is enclosed in a rational
interval, the engine avoids the rational midpoint exactly, and the leftover
enclosure radius is charged against the certified gap.  If the gap exceeds
twice the radius, every value in the enclosure (in particular e^t itself)
is avoided, and the logarithmic image's differences miss t by an explicit
margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import certify, engine
from .dimfn import DimensionFunction, parse_dimfn
from .errors import (
    AllRowsZero,
    DegenerateTriplet,
    EnclosureTooWide,
    FormatError,
    RejectRange,
    RejectUnit,
    ZeroPattern,
)
from .jsonfile import int_field, write_json
from .pattern import LinearPattern, make_pattern
from .qmath import exp_bounds, format_rational, ln_bounds, parse_rational
from .schedule import DEFAULT_LEVEL_CAP

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
    """x1 - x2 + x3 - x4 = 0 per coordinate: no parallelogram vertices."""
    rows = []
    for v in range(d):
        row = [Fraction(0)] * (4 * d)
        for block, sign in enumerate((1, -1, 1, -1)):
            row[block * d + v] = Fraction(sign)
        rows.append(row)
    return split_vector_pattern(d, 4, rows)


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


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex rational a + b*i."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def complex_triplet_patterns(
    triplets: Sequence[Sequence[GaussianRational]],
) -> list[LinearPattern]:
    """Two real d=2, m=3 patterns per triplet so no similar copy survives.

    For a triplet (x, y, z) let a = (z-x)/(z-y); the complex linear form
    x - a*y + (a-1)*z vanishes exactly on similar copies of the triplet,
    and its real and imaginary parts become patterns over R^2.
    """
    out = []
    for x, y, z in triplets:
        if x == y or y == z or x == z:
            raise DegenerateTriplet("triplet entries must be pairwise distinct")
        alpha = (z - x) / (z - y)
        one = GaussianRational(Fraction(1), Fraction(0))
        coeffs = (one, GaussianRational(Fraction(0), Fraction(0)) - alpha, alpha - one)
        rows = [[], []]
        for g in coeffs:  # (g.re + g.im*i) * (u + v*i): re = g.re*u - g.im*v
            rows[0].extend([g.re, -g.im])
            rows[1].extend([g.im, g.re])
        out.extend(split_vector_pattern(2, 3, rows))
    return out


# -- difference-set application -----------------------------------------------------

@dataclass(frozen=True)
class DifferenceTarget:
    """A forbidden difference: either ln(value) handled exactly through the
    rational quotient target value, or a rational exponent whose quotient
    target e^exponent needs a certified enclosure."""

    kind: str  # "log_of" | "rational"
    value: Fraction

    def describe(self) -> str:
        v = format_rational(self.value)
        return f"ln({v})" if self.kind == "log_of" else v


@dataclass(frozen=True)
class TargetReport:
    target: DifferenceTarget
    quotient_mid: Fraction
    enclosure: tuple[Fraction, Fraction] | None
    gap: Fraction | None
    difference_margin: Fraction | None


@dataclass(frozen=True)
class DifferenceReport:
    """Certified outputs of the difference app.

    points are ln-enclosures of the deepest-level cube centers; pairwise
    differences of the underlying exact points miss each target by its
    difference_margin whenever the pair is covered by a processed entry.
    Bilipschitz constants of ln on [1,2] are (1/2, 1).
    """

    targets: tuple[TargetReport, ...]
    points: tuple[tuple[Fraction, Fraction], ...]
    bilipschitz: tuple[Fraction, Fraction]
    depth: int
    entries: int


_ENCLOSURE_PRECISION_CAP = 4096


def _difference_target(raw: DifferenceTarget, precision: int) -> Fraction:
    """Rational quotient target standing in for e^t (or exactly a)."""
    if raw.kind == "log_of":
        a = raw.value
        if a <= 0:
            raise FormatError("log_of target needs a positive rational")
        if a == 1:
            raise RejectUnit("difference 0 is excluded (distinct points)")
        return a
    if raw.value == 0:
        raise RejectUnit("difference target 0 is excluded by hypothesis")
    lo, hi = exp_bounds(raw.value, precision)
    return (lo + hi) / 2


def difference_points(
    targets: Sequence[DifferenceTarget],
    h: DimensionFunction,
    depth: int,
    precision: int = 64,
    point_precision: int = 48,
    level_cap: int = DEFAULT_LEVEL_CAP,
) -> tuple[engine.ConstructionState, DifferenceReport]:
    """Build the quotient-avoiding set and push it through the logarithm.

    Raises EnclosureTooWide when an enclosure of some e^t cannot be made
    thinner than half the certified gap of its pattern.
    """
    mids = [_difference_target(t, precision) for t in targets]
    state = engine.build_tree(1, quotient_patterns(mids), h, depth, level_cap)
    gaps: dict[int, Fraction] = {}
    for e in state.entries:
        g = certify.certify_gap(state, e).gap
        if e.pattern_id not in gaps or g < gaps[e.pattern_id]:
            gaps[e.pattern_id] = g
    reports = []
    for pid, (raw, mid) in enumerate(zip(targets, mids)):
        gap = gaps.get(pid)
        enclosure = None
        margin = None
        if gap is not None:
            if raw.kind == "rational":
                p = precision
                while True:
                    lo, hi = exp_bounds(raw.value, p)
                    rho = max(abs(mid - lo), abs(hi - mid))
                    if 2 * rho < gap:
                        enclosure = (lo, hi)
                        margin = (gap / 2 - rho) / max(2, hi)
                        break
                    p *= 2
                    if p > _ENCLOSURE_PRECISION_CAP:
                        raise EnclosureTooWide(
                            f"cannot squeeze e^{raw.value} below gap {gap}"
                        )
            else:
                margin = gap / (2 * max(Fraction(2), mid))
        reports.append(
            TargetReport(
                target=raw,
                quotient_mid=mid,
                enclosure=enclosure,
                gap=gap,
                difference_margin=margin,
            )
        )
    points = tuple(
        ln_bounds(center[0], point_precision) for center in state.leaf_centers()
    )
    report = DifferenceReport(
        targets=tuple(reports),
        points=points,
        bilipschitz=(Fraction(1, 2), Fraction(1)),
        depth=state.depth,
        entries=len(state.entries),
    )
    return state, report


def difference_report_to_doc(report: DifferenceReport) -> dict:
    return {
        "targets": [
            {
                "target": t.target.describe(),
                "kind": t.target.kind,
                "value": format_rational(t.target.value),
                "quotient_mid": format_rational(t.quotient_mid),
                "enclosure": None
                if t.enclosure is None
                else [format_rational(t.enclosure[0]), format_rational(t.enclosure[1])],
                "gap": None if t.gap is None else format_rational(t.gap),
                "difference_margin": None
                if t.difference_margin is None
                else format_rational(t.difference_margin),
            }
            for t in report.targets
        ],
        "points_ln": [
            [format_rational(lo), format_rational(hi)] for lo, hi in report.points
        ],
        "bilipschitz": [
            format_rational(report.bilipschitz[0]),
            format_rational(report.bilipschitz[1]),
        ],
        "depth": report.depth,
        "entries": report.entries,
    }


# -- app spec files ---------------------------------------------------------------

@dataclass(frozen=True)
class AppSpec:
    kind: str
    params: object
    h_spec: str
    depth: int
    d: int = 2
    precision: int = 64
    level_cap: int = DEFAULT_LEVEL_CAP


def app_spec_from_doc(doc: dict) -> AppSpec:
    try:
        kind = doc["kind"]
        if kind not in APP_KINDS:
            raise FormatError(f"unknown app kind {kind!r}")
        return AppSpec(
            kind=kind,
            params=doc.get("params", []),
            h_spec=doc["h"],
            depth=int_field(doc["depth"], "depth", 0),
            d=int_field(doc.get("d", 2), "d", 1),
            precision=int_field(doc.get("precision", 64), "precision", 1),
            level_cap=int_field(doc.get("level_cap", DEFAULT_LEVEL_CAP), "level_cap", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed app spec: {exc}") from exc


def _param_list(value: object, what: str, length: int | None = None) -> list:
    """value if it is a JSON list (of the given length); FormatError otherwise."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length}"
        raise FormatError(f"{what} must be a list{size}, got {value!r}")
    return value


def _rationals(value: object, what: str, length: int | None = None) -> list[Fraction]:
    return [parse_rational(v) for v in _param_list(value, what, length)]


def app_patterns(app: AppSpec) -> tuple[int, list[LinearPattern]]:
    """Ambient dimension and pattern list for every kind except differences.

    The shape of app.params is checked here: a malformed one is a FormatError.
    """
    if app.kind == "quotients":
        return 1, quotient_patterns(_rationals(app.params, "quotients params"))
    if app.kind == "planes":
        rows = _param_list(app.params, "planes params")
        return 1, plane_patterns([_rationals(row, "a plane", 3) for row in rows])
    if app.kind == "ratios":
        return 1, ratio_patterns(_rationals(app.params, "ratios params"))
    if app.kind == "parallelogram":
        return app.d, parallelogram_patterns(app.d)
    if app.kind == "trapezoids":
        return app.d, trapezoid_patterns(app.d, _rationals(app.params, "trapezoids params"))
    if app.kind == "complex_triplets":
        triplets = [
            [
                GaussianRational(*_rationals(p, "a complex number", 2))
                for p in _param_list(trip, "a complex triplet", 3)
            ]
            for trip in _param_list(app.params, "complex_triplets params")
        ]
        return 2, complex_triplet_patterns(triplets)
    if app.kind == "vector_split":
        p = app.params
        if not isinstance(p, dict) or not {"d", "m", "rows"} <= p.keys():
            raise FormatError(
                f'vector_split params must be an object with "d", "m" and "rows", got {p!r}'
            )
        d = int_field(p["d"], "vector_split d", 1)
        rows = [
            _rationals(row, "a vector_split row")
            for row in _param_list(p["rows"], "vector_split rows")
        ]
        return d, split_vector_pattern(d, int_field(p["m"], "vector_split m", 2), rows)
    raise FormatError(f"app kind {app.kind!r} has no direct pattern list")


def _difference_targets(params: object) -> list[DifferenceTarget]:
    out = []
    for item in _param_list(params, "differences params"):
        if isinstance(item, dict):
            if "value" not in item:
                raise FormatError(f'a differences target needs a "value", got {item!r}')
            out.append(
                DifferenceTarget(
                    kind=item.get("kind", "rational"),
                    value=parse_rational(item["value"]),
                )
            )
        else:
            out.append(DifferenceTarget(kind="rational", value=parse_rational(item)))
    if not out:
        raise FormatError("differences app needs at least one target")
    for t in out:
        if t.kind not in ("rational", "log_of"):
            raise FormatError(f"unknown difference target kind {t.kind!r}")
    return out


def run_app(app: AppSpec, out_dir: str | Path) -> dict:
    """Build, certify and write the standard artifact files for one app.

    Writes tree.json and cert.json (and report.json for differences) into
    out_dir; returns a summary dict with counts and certificate verdicts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if app.kind == "differences":
        h = parse_dimfn(app.h_spec, 1)
        state, report = difference_points(
            _difference_targets(app.params),
            h,
            app.depth,
            precision=app.precision,
            level_cap=app.level_cap,
        )
        write_json(difference_report_to_doc(report), out / "report.json")
    else:
        d, patterns = app_patterns(app)
        h = parse_dimfn(app.h_spec, d)
        state = engine.build_tree(d, patterns, h, app.depth, app.level_cap)
    engine.validate_structure(state)
    gaps = [certify.certify_gap(state, e) for e in state.entries]
    for e, g in zip(state.entries, gaps):
        certify.spot_check_gap(state, e, g)
    measure = None
    if state.entries:
        measure = certify.certify_measure(state)
    report = certify.AvoidanceReport(gaps=tuple(gaps), measure=measure)
    engine.write_tree(state, out / "tree.json")
    write_json(report.to_doc(), out / "cert.json")
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
