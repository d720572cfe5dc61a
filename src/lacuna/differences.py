"""The difference app: a set whose logarithmic image avoids differences.

The difference app is the one place irrational targets appear: for a
rational exponent t != 0 the quotient target e^t is enclosed in a rational
interval, the engine avoids the rational midpoint exactly, and the leftover
enclosure radius is charged against the certified gap.  If the gap exceeds
twice the radius, every value in the enclosure (in particular e^t itself)
is avoided, and the logarithmic image's differences miss t by an explicit
margin.  A target ln(a) for a rational a takes an exact path: the quotient
target is a itself.

The exp enclosure (exp_bounds) lives here, with its one caller; the ln
enclosure of the points comes from lnexp.  apps.run_app imports this
module for the differences kind only, so no other app step loads it, its
exp series or the ln series of lnexp.  It takes two steps of that app:
difference_targets turns the spec's params into the quotient targets that
run_app builds like any other app, and difference_report turns the built
state and its gap certificates into the document report.json.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import EnclosureTooWide, FormatError, RejectUnit, UsageError
from .lnexp import ln_bounds
from .qmath import digit_limit, format_rational, parse_rational
from .record import Record

if TYPE_CHECKING:
    from .certify import GapCertificate
    from .engine import ConstructionState


class DifferenceTarget(Record):
    """A forbidden difference: either ln(value) handled exactly through the
    rational quotient target value, or a rational exponent whose quotient
    target e^exponent needs a certified enclosure."""

    kind: str  # "log_of" | "rational"
    value: Fraction

    def describe(self) -> str:
        v = format_rational(self.value)
        return f"ln({v})" if self.kind == "log_of" else v


_ENCLOSURE_PRECISION_CAP = 4096

#: Bits of the ln-enclosures of the points in report.json (points_ln).
POINT_PRECISION = 48


def _exp_pos_attempt(x: Fraction, shift: int) -> tuple[Fraction, Fraction]:
    """One-shot enclosure of exp(x) for x >= 0, working at scale 2**-shift.

    The argument is halved k times to y = a/b <= 1/2; the series over y is
    one integer over b^n * n!, with the geometric tail (ratio <= 1/2)
    compared with 2**-shift in integers; the enclosure is then squared back
    k times as numerators over 2**shift, rounding outward.
    """
    a, b = x.numerator, x.denominator
    k = 0
    while 2 * a > b << k:
        k += 1
    y = Fraction(a, b << k)
    a, b = y.numerator, y.denominator
    num = den = power = 1  # sum = num / den with den = b^n * n!; power = a^n
    n = 0
    while True:
        n += 1
        power *= a
        den *= b * n
        num = num * b * n + power
        tail_den = den * b * (n + 1)  # tail = 2 * power * a / tail_den
        if (power * a) << (shift + 1) <= tail_den:
            break
    hi_num = num * b * (n + 1) + 2 * power * a  # sum + tail = hi_num / tail_den
    if k == 0:
        return Fraction(num, den), Fraction(hi_num, tail_den)
    lo = (num * num << shift) // (den * den)
    hi = -((-hi_num * hi_num << shift) // (tail_den * tail_den))
    for _ in range(k - 1):
        lo, hi = lo * lo >> shift, -(-hi * hi >> shift)
    return Fraction(lo, 1 << shift), Fraction(hi, 1 << shift)


def exp_bounds(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of exp(x) for rational x with width <= 2**-precision."""
    target = Fraction(1, 1 << precision)
    guard = precision + 8
    while True:
        lo, hi = _exp_pos_attempt(abs(x), guard)
        if x < 0:
            lo, hi = 1 / hi, 1 / lo
        if hi - lo <= target:
            return lo, hi
        guard *= 2


def _difference_target(raw: DifferenceTarget, precision: int) -> tuple[Fraction, Fraction]:
    """An enclosure (lo, hi) of the quotient target: of e^t, 2**-precision
    wide, or (a, a) for ln(a), which is exact."""
    if raw.kind == "log_of":
        a = raw.value
        if a <= 0:
            raise FormatError("log_of target needs a positive rational")
        if a == 1:
            raise RejectUnit("difference 0 is excluded (distinct points)")
        return a, a
    if raw.value == 0:
        raise RejectUnit("difference target 0 is excluded by hypothesis")
    # the endpoint denominators of a 2**-precision wide enclosure multiply to
    # 2**precision or more: past 6.644 > 2*log2(10) bits a digit, one is unwritable
    limit = digit_limit()
    if limit and precision * 1000 >= limit * 6644:
        raise UsageError(f"precision {precision}: an enclosure of e^{raw.describe()} that "
                         f"narrow has more digits than the interpreter writes ({limit})")
    # the midpoint, always written, has a numerator of at least e^t - 1/2, more
    # than 10^limit once t * 0.4342944 >= limit + 1 (0.4342944 < log10(e))
    if limit and raw.value * 4342944 >= (limit + 1) * 10**7:
        raise UsageError(f"difference target {raw.describe()}: e^{raw.describe()} has "
                         f"more digits than the interpreter writes ({limit})")
    lo, hi = exp_bounds(raw.value, precision)
    # for t < 0 the midpoint p/q <= hi has p >= 1, so q >= 1/hi: once
    # hi <= 10^-limit, q has more digits than the interpreter writes
    if limit and raw.value < 0 and hi.numerator * 10**limit <= hi.denominator:
        raise UsageError(f"difference target {raw.describe()}: the midpoint of an "
                         f"enclosure of e^{raw.describe()} has more digits than the "
                         f"interpreter writes ({limit})")
    return lo, hi


def difference_targets(
    params: list, precision: int
) -> tuple[list[DifferenceTarget], list[Fraction], list[tuple[Fraction, Fraction]]]:
    """The targets of a differences spec's params (a JSON list), the
    rational quotient target of each (the value its patterns avoid) and the
    enclosure it is the midpoint of, which difference_report starts from."""
    targets = []
    for item in params:
        if isinstance(item, dict):
            if "value" not in item:
                raise FormatError(f'a differences target needs a "value", got {item!r}')
            kind = item.get("kind", "rational")
            if kind not in ("rational", "log_of"):
                raise FormatError(f"unknown difference target kind {kind!r}")
            targets.append(DifferenceTarget(kind=kind, value=parse_rational(item["value"])))
        else:
            targets.append(DifferenceTarget(kind="rational", value=parse_rational(item)))
    if not targets:
        raise FormatError("differences app needs at least one target")
    enclosures = [_difference_target(t, precision) for t in targets]
    return targets, [(lo + hi) / 2 for lo, hi in enclosures], enclosures


def difference_report(
    targets: Sequence[DifferenceTarget],
    mids: Sequence[Fraction],
    enclosures: Sequence[tuple[Fraction, Fraction]],
    state: ConstructionState,
    gaps: Sequence[GapCertificate],
    precision: int,
) -> dict:
    """The document report.json of a built and certified difference app.

    Per target, the smallest certified gap of its pattern and, when there
    is one, the margin by which the log image's differences miss it; for a
    rational exponent the enclosure of e^t from difference_targets is
    refined from precision bits until its radius is below half that gap
    (an exact target's radius is 0).  points_ln are ln-enclosures,
    to POINT_PRECISION bits, of the deepest-level cube centers; pairwise
    differences of the underlying exact points miss each target by its
    difference_margin whenever the pair is covered by a processed entry.
    Bilipschitz constants of ln on [1,2] are (1/2, 1).  Raises
    EnclosureTooWide when an enclosure of some e^t cannot be made thinner
    than half the certified gap of its pattern.
    """
    rows = []
    for pid, (raw, mid, (lo, hi)) in enumerate(zip(targets, mids, enclosures)):
        gap = min((c.gap for c in gaps if c.pattern_id == pid), default=None)
        enclosure = margin = None
        if gap is not None:
            p = precision
            while 2 * (rho := max(abs(mid - lo), abs(hi - mid))) >= gap:
                p *= 2
                if p > _ENCLOSURE_PRECISION_CAP:
                    raise EnclosureTooWide(f"cannot squeeze e^{raw.value} below gap {gap}")
                lo, hi = exp_bounds(raw.value, p)
            margin = (gap / 2 - rho) / max(2, hi)
            if raw.kind == "rational":
                enclosure = [format_rational(lo), format_rational(hi)]
        rows.append(
            {
                "target": raw.describe(),
                "kind": raw.kind,
                "value": format_rational(raw.value),
                "quotient_mid": format_rational(mid),
                "enclosure": enclosure,
                "gap": None if gap is None else format_rational(gap),
                "difference_margin": None if margin is None else format_rational(margin),
            }
        )
    den, centers = state.leaf_center_numerators()
    points = [ln_bounds(Fraction(c, den), POINT_PRECISION) for c in centers]
    return {
        "targets": rows,
        "points_ln": [[format_rational(lo), format_rational(hi)] for lo, hi in points],
        "bilipschitz": ["1/2", "1"],
        "depth": state.depth,
        "entries": len(state.entries),
    }
