"""Gauge (dimension) functions h with h strictly below x^d, certified.

Two parametric families are supported:

* ``pow:s``     h(x) = x^s          (needs s < d)
* ``powlog:s``  h(x) = -x^s ln x    (needs s <= d; s = d gives full dimension)

Both families come with a monotone-ratio witness: on their domain the map
r -> h(r)/r^d is non-increasing and h itself is strictly increasing.  That
witness is what lets a single certified check at level M_i stand in for the
"for all k >= M_i" quantifier of the schedule (every deeper level only makes
the ratio larger).  For pow the witness is elementary (the ratio is
r^(s-d) with s-d < 0) and the domain is 0 < r <= 1.  For powlog the
derivative of -r^(s-d) ln r is r^(s-d-1) ((d-s) ln r - 1) < 0 on (0,1),
and h itself increases up to e^(-1/s), so the domain is 0 < r <= 1/2 with
-ln r >= 1/s.  No cap is stored: each comparison decides the domain
first, from the enclosure of -ln r it makes anyway.

All comparisons are certified and take no root: r^(a/q) * L >= t is
decided as r^a * L^q >= t^q, both sides raised to the q-th power of the
exponent's denominator.  It is exact for pow (L = 1).  For powlog (L =
-ln r) the q-th powers of a directed-rounded enclosure of L decide it,
refined by doubling the precision from START_PRECISION bits.  A certified
interval never decides wrongly, so the starting precision changes only the
work.  The ln series (lnexp) is imported on the powlog comparison path
only, so a step with a pow gauge, or one that never evaluates its gauge
(export, a depth-0 build, a gap-only certify), never loads it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OutOfDomain, RejectNonPositive, RejectNotDominated, Undecidable
from .qmath import parse_rational
from .record import Record

POWER = "pow"
POWERLOG = "powlog"

#: Hard ceiling for interval-refinement loops (bits).  The quantities compared
#: in this artifact are never equal to their rational thresholds (they involve
#: logarithms of rationals != 1), so in practice comparisons decide early.
PRECISION_CAP = 4096

#: First precision (bits) of the powlog refinement in ge and ratio_ge.  Most
#: comparisons of a build decide here; one that does not costs a few cheap
#: doublings before the precision it needs.
START_PRECISION = 8


class DimensionFunction(Record):
    """A gauge function with a certified monotone-ratio witness for exponent d.

    h is strictly increasing and h(r)/r^d non-increasing on the family's
    domain: 0 < r <= 1 for pow, and 0 < r <= 1/2 with -ln r >= 1/s for
    powlog.  Every comparison raises OutOfDomain outside it.  A gauge
    without that witness is refused as it is made: RejectNonPositive for
    s <= 0, RejectNotDominated for d < 1, an unknown family, or one not
    below x^d (pow needs s < d, powlog s <= d).
    """

    family: str
    s: Fraction
    d: int

    def __post_init__(self) -> None:
        s, d = self.s, self.d
        if d < 1:
            raise RejectNotDominated("ambient dimension must be >= 1")
        if s <= 0:
            raise RejectNonPositive(f"exponent must be positive, got {s}")
        if self.family == POWER:
            if s >= d:
                raise RejectNotDominated(f"x^{s} is not strictly below x^{d}")
        elif self.family == POWERLOG:
            if s > d:
                raise RejectNotDominated(f"-x^{s} ln x is not below x^{d}")
        else:
            raise RejectNotDominated(f"unknown gauge family {self.family!r}")

    # -- identity -----------------------------------------------------------

    def spec_string(self) -> str:
        return f"{self.family}:{self.s.numerator}/{self.s.denominator}"

    # -- certified evaluation -------------------------------------------------

    def ge(self, r: Fraction, threshold: Fraction) -> bool:
        """Certified h(r) >= threshold."""
        return self._certified_ge(r, self.s.numerator, threshold)

    def ratio_ge(self, r: Fraction, threshold: Fraction) -> bool:
        """Certified h(r)/r^d >= threshold.

        By the monotone-ratio witness a True answer at r extends to every
        smaller argument of the domain.
        """
        return self._certified_ge(r, self.s.numerator - self.d * self.s.denominator, threshold)

    def _certified_ge(self, r: Fraction, a: int, threshold: Fraction) -> bool:
        """Certified r^(a/q) * L(r) >= threshold, with s = p/q and L = 1 for
        pow, L = -ln r for powlog.

        Both sides are positive, so raising them to the q-th power decides
        the same inequality with no root: r^a * L^q >= threshold^q.  Exact
        for pow.  For powlog, the two ends of an enclosure of L, refined
        from START_PRECISION, first decide the domain condition L >= 1/s,
        then whether their q-th powers clear L^q >= threshold^q * r^-a one
        way or the other (Undecidable at the precision cap).  The domain
        comes before any answer and before the q-th power of threshold is
        formed, which is large when q is.  No number is rendered in the
        refusal: an argument can have more digits than the interpreter
        converts to a string.
        """
        bound = 1 if self.family == POWER else Fraction(1, 2)
        if not 0 < r <= bound:
            raise OutOfDomain(f"argument outside the domain of {self.spec_string()}")
        p, q = self.s.numerator, self.s.denominator
        if self.family == POWER:
            if threshold <= 0:
                return True
            # r^(a/q) >= t  <=>  r^a >= t^q  (both sides positive)
            return r**a >= threshold**q
        from .lnexp import ln_bounds

        target = None  # threshold^q * r^-a, once the domain is certified
        precision = START_PRECISION
        while precision <= PRECISION_CAP:
            ln_lo, ln_hi = ln_bounds(r, precision)
            # L >= ln 2 on the domain, so both ends stay positive, where x^q
            # increases.  Rounded outward to numerators lo <= L * 2**shift <=
            # hi, they keep the q-th powers small, and widen the enclosure by
            # at most half the 2**-precision that ln_bounds allows it.
            shift = precision + 2
            lo = (-ln_hi.numerator << shift) // ln_hi.denominator
            hi = -((ln_lo.numerator << shift) // ln_lo.denominator)
            if target is None:
                # h increases where L >= 1/s = q/p
                if hi * p < q << shift:
                    raise OutOfDomain(f"argument outside the domain of {self.spec_string()}")
                if lo * p >= q << shift:
                    if threshold <= 0:
                        return True
                    target = threshold**q * r**-a
            if target is not None:
                scaled = target.numerator << shift * q
                if lo**q * target.denominator >= scaled:
                    return True
                if hi**q * target.denominator < scaled:
                    return False
            precision *= 2
        raise Undecidable(f"comparison with {threshold} undecided at {PRECISION_CAP} bits")


def make_dimfn(family: str, s: Fraction | int | str, d: int) -> DimensionFunction:
    """A gauge with its witness (DimensionFunction), s read as a Fraction.
    Nothing is evaluated here: each comparison decides its own domain."""
    return DimensionFunction(family=family, s=Fraction(s), d=d)


def parse_dimfn(spec: str, d: int) -> DimensionFunction:
    """Parse the CLI/JSON gauge syntax 'pow:p/q' or 'powlog:p/q'."""
    try:
        family, _, rest = spec.partition(":")
        return make_dimfn(family.strip(), parse_rational(rest), d)
    except (RejectNonPositive, RejectNotDominated):
        raise
    except Exception as exc:
        raise RejectNotDominated(f"bad gauge spec {spec!r}: {exc}") from exc
