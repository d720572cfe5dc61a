"""The difference app: a set whose logarithmic image avoids differences.

The difference app is the one place irrational targets appear: for a
rational exponent t != 0 the quotient target e^t is enclosed in a rational
interval, the engine avoids the rational midpoint exactly, and the leftover
enclosure radius is charged against the certified gap.  If the gap exceeds
twice the radius, every value in the enclosure (in particular e^t itself)
is avoided, and the logarithmic image's differences miss t by an explicit
margin.  A target ln(a) for a rational a takes an exact path: the quotient
target is a itself.

apps.run_app imports this module for the differences kind only, so no
other app step loads it or the ln and exp series of lnexp.  The build and
the gap certificates go through the module attributes engine.build_tree
and certify.certify_gap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import certify, engine
from .apps import _param_list, quotient_patterns
from .dimfn import DimensionFunction
from .errors import EnclosureTooWide, FormatError, RejectUnit
from .lnexp import exp_bounds, ln_bounds
from .qmath import format_rational, parse_rational
from .record import Record


class DifferenceTarget(Record):
    """A forbidden difference: either ln(value) handled exactly through the
    rational quotient target value, or a rational exponent whose quotient
    target e^exponent needs a certified enclosure."""

    kind: str  # "log_of" | "rational"
    value: Fraction

    def describe(self) -> str:
        v = format_rational(self.value)
        return f"ln({v})" if self.kind == "log_of" else v


class TargetReport(Record):
    target: DifferenceTarget
    quotient_mid: Fraction
    enclosure: tuple[Fraction, Fraction] | None
    gap: Fraction | None
    difference_margin: Fraction | None


class DifferenceReport(Record):
    """Certified outputs of the difference app.

    points are ln-enclosures of the deepest-level cube centers; pairwise
    differences of the underlying exact points miss each target by its
    difference_margin whenever the pair is covered by a processed entry.
    Bilipschitz constants of ln on [1,2] are (1/2, 1).  certificates holds
    the gap certificate of every processed entry, in schedule order.
    """

    targets: tuple[TargetReport, ...]
    certificates: tuple[certify.GapCertificate, ...]
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
) -> tuple[engine.ConstructionState, DifferenceReport]:
    """Build the quotient-avoiding set and push it through the logarithm.

    Raises EnclosureTooWide when an enclosure of some e^t cannot be made
    thinner than half the certified gap of its pattern.
    """
    mids = [_difference_target(t, precision) for t in targets]
    state = engine.build_tree(1, quotient_patterns(mids), h, depth)
    certificates = tuple(certify.certify_gap(state, e) for e in state.entries)
    gaps: dict[int, Fraction] = {}
    for c in certificates:
        if c.pattern_id not in gaps or c.gap < gaps[c.pattern_id]:
            gaps[c.pattern_id] = c.gap
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
    den, centers = state.leaf_center_numerators()
    points = tuple(ln_bounds(Fraction(c, den), point_precision) for c in centers)
    report = DifferenceReport(
        targets=tuple(reports),
        certificates=certificates,
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
