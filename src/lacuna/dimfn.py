"""Gauge (dimension) functions h with h strictly below x^d, certified.

Two parametric families are supported:

* ``pow:s``     h(x) = x^s          (needs s < d)
* ``powlog:s``  h(x) = -x^s ln x    (needs s <= d; s = d gives full dimension)

Both families come with a monotone-ratio witness: on (0, domain_cap] the map
r -> h(r)/r^d is non-increasing and h itself is strictly increasing.  That
witness is what lets a single certified check at level M_i stand in for the
"for all k >= M_i" quantifier of the schedule (every deeper level only makes
the ratio larger).  For pow the witness is elementary (the ratio is
r^(s-d) with s-d < 0); for powlog the derivative of -r^(s-d) ln r is
r^(s-d-1) ((d-s) ln r - 1) < 0 on (0,1), and h itself increases up to
e^(-1/s), which is why the domain cap is clamped below that point.

All comparisons are certified: exact for pow, directed-rounded rational
intervals for powlog, refined by doubling the precision from
START_PRECISION bits until they decide.  A certified interval never
decides wrongly, so the starting precision changes only the work.  The ln
and exp series (lnexp) are imported on the powlog paths only, so a step
with a pow gauge never loads them.  A powlog gauge makes its domain cap,
an exp enclosure, the first time it is read (normally when the gauge first
checks its domain), so a step that never evaluates the gauge (export, a
depth-0 build, a gap-only certify) loads no lnexp either.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OutOfDomain, RejectNonPositive, RejectNotDominated, Undecidable
from .qmath import nth_root_bounds, parse_rational
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

    domain_cap is the rational right end of the certified region: h is
    strictly increasing and h(r)/r^d non-increasing on (0, domain_cap].
    Given as None (as make_dimfn gives it), it is made on its first read
    and kept (_domain_cap): for powlog that costs an exp enclosure.
    """

    family: str
    s: Fraction
    d: int
    domain_cap: Fraction | None

    # -- identity -----------------------------------------------------------

    def spec_string(self) -> str:
        return f"{self.family}:{self.s.numerator}/{self.s.denominator}"

    # -- certified evaluation -------------------------------------------------

    def _check_domain(self, r: Fraction) -> None:
        # no number is rendered: a powlog cap for a small s, and an argument
        # near it, have more digits than the interpreter converts to a string
        if not (0 < r <= self.domain_cap):
            raise OutOfDomain(f"argument outside (0, domain_cap] of {self.spec_string()}")

    def ge(self, r: Fraction, threshold: Fraction) -> bool:
        """Certified h(r) >= threshold."""
        return self._certified_ge(r, self.s.numerator, threshold)

    def ratio_ge(self, r: Fraction, threshold: Fraction) -> bool:
        """Certified h(r)/r^d >= threshold.

        By the monotone-ratio witness a True answer at r extends to every
        smaller argument in (0, domain_cap].
        """
        return self._certified_ge(r, self.s.numerator - self.d * self.s.denominator, threshold)

    def _certified_ge(self, r: Fraction, a: int, threshold: Fraction) -> bool:
        """Certified r^(a/q) * L(r) >= threshold, with q the denominator of s
        and L = 1 for pow, L = -ln r for powlog.

        Exact for pow.  For powlog the enclosures of -ln r and of the root
        r^(|a|/q) are refined from START_PRECISION until they clear the
        threshold one way or the other (Undecidable at the precision cap).
        """
        self._check_domain(r)
        if threshold <= 0:
            return True
        q = self.s.denominator
        if self.family == POWER:
            # r^(a/q) >= t  <=>  r^a >= t^q  (both sides positive)
            return r**a >= threshold**q
        from .lnexp import ln_bounds

        precision = START_PRECISION
        while precision <= PRECISION_CAP:
            ln_lo, ln_hi = ln_bounds(r, precision)
            root_lo, root_hi = nth_root_bounds(r ** abs(a), q, precision)
            # -ln r >= 0 on the domain; the root multiplies it for a >= 0 and
            # the threshold for a < 0, so that a root below 2**-precision,
            # whose lower bound is 0, bounds the comparison from one side only
            lo, hi, t_lo, t_hi = -ln_hi, -ln_lo, threshold, threshold
            if a >= 0:
                lo, hi = lo * root_lo, hi * root_hi
            else:
                t_lo, t_hi = threshold * root_lo, threshold * root_hi
            if lo >= t_hi:
                return True
            if hi < t_lo:
                return False
            precision *= 2
        raise Undecidable(f"comparison with {threshold} undecided at {PRECISION_CAP} bits")


def _domain_cap(h: DimensionFunction) -> Fraction:
    """h.domain_cap: the field as given or, given as None, the family's cap,
    made on the first read and kept."""
    cap = h.__dict__["domain_cap"]
    if cap is None:
        cap = h.__dict__["domain_cap"] = Fraction(1) if h.family == POWER else _powlog_cap(h.s)
    return cap


# A property over the field, which Record keeps in the instance dict; set
# after the class body, where Record would take it for the field's default.
DimensionFunction.domain_cap = property(_domain_cap)


def _powlog_cap(s: Fraction) -> Fraction:
    """Largest certified cap for powlog: min(1/2, lower bound of e^(-1/s))."""
    half = Fraction(1, 2)
    if s >= Fraction(3, 2):  # e^(-1/s) >= e^(-2/3) > 1/2
        return half
    from .lnexp import exp_bounds

    lo, _ = exp_bounds(-1 / s, 48)
    return min(half, lo)


def make_dimfn(family: str, s: Fraction | int | str, d: int) -> DimensionFunction:
    """Validate parameters and build a gauge with its witness.

    Raises RejectNonPositive for s <= 0 and RejectNotDominated when the
    family does not sit strictly below x^d (pow needs s < d, powlog s <= d).
    The domain cap is made on its first read, not here.
    """
    if d < 1:
        raise RejectNotDominated("ambient dimension must be >= 1")
    s = Fraction(s)
    if s <= 0:
        raise RejectNonPositive(f"exponent must be positive, got {s}")
    if family == POWER:
        if s >= d:
            raise RejectNotDominated(f"x^{s} is not strictly below x^{d}")
    elif family == POWERLOG:
        if s > d:
            raise RejectNotDominated(f"-x^{s} ln x is not below x^{d}")
    else:
        raise RejectNotDominated(f"unknown gauge family {family!r}")
    return DimensionFunction(family=family, s=s, d=d, domain_cap=None)


def parse_dimfn(spec: str, d: int) -> DimensionFunction:
    """Parse the CLI/JSON gauge syntax 'pow:p/q' or 'powlog:p/q'."""
    try:
        family, _, rest = spec.partition(":")
        return make_dimfn(family.strip(), parse_rational(rest), d)
    except (RejectNonPositive, RejectNotDominated):
        raise
    except Exception as exc:
        raise RejectNotDominated(f"bad gauge spec {spec!r}: {exc}") from exc
