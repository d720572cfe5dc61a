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

All comparisons are certified and take no root: r^(a/q) * L >= t is
decided as r^a * L^q >= t^q, both sides raised to the q-th power of the
exponent's denominator.  It is exact for pow (L = 1).  For powlog (L =
-ln r) the q-th powers of a directed-rounded enclosure of L decide it,
refined by doubling the precision from START_PRECISION bits.  A certified
interval never decides wrongly, so the starting precision changes only the
work.  The ln and exp series (lnexp) are imported on the powlog paths
only, so a step with a pow gauge never loads them.  A powlog gauge makes
its domain cap, an exp enclosure, the first time it is read (normally when
the gauge first checks its domain), so a step that never evaluates the
gauge (export, a depth-0 build, a gap-only certify) loads no lnexp either.
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

    domain_cap is the rational right end of the certified region: h is
    strictly increasing and h(r)/r^d non-increasing on (0, domain_cap].
    """

    family: str
    s: Fraction
    d: int

    @property
    def domain_cap(self) -> Fraction:
        """The family's cap, made on the first read and kept in the
        instance: for powlog that costs an exp enclosure."""
        cap = self.__dict__.get("_domain_cap")
        if cap is None:
            cap = Fraction(1) if self.family == POWER else _powlog_cap(self.s)
            self.__dict__["_domain_cap"] = cap
        return cap

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

        Both sides are positive, so raising them to the q-th power decides
        the same inequality with no root: r^a * L^q >= threshold^q.  Exact
        for pow.  For powlog, L^q >= threshold^q * r^-a is decided by the
        q-th powers of the two ends of an enclosure of L, refined from
        START_PRECISION until they clear the target one way or the other
        (Undecidable at the precision cap).
        """
        self._check_domain(r)
        if threshold <= 0:
            return True
        q = self.s.denominator
        if self.family == POWER:
            # r^(a/q) >= t  <=>  r^a >= t^q  (both sides positive)
            return r**a >= threshold**q
        from .lnexp import ln_bounds

        target = threshold**q * r**-a
        tn, td = target.numerator, target.denominator
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
            scaled = tn << shift * q
            if lo**q * td >= scaled:
                return True
            if hi**q * td < scaled:
                return False
            precision *= 2
        raise Undecidable(f"comparison with {threshold} undecided at {PRECISION_CAP} bits")


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
    return DimensionFunction(family=family, s=s, d=d)


def parse_dimfn(spec: str, d: int) -> DimensionFunction:
    """Parse the CLI/JSON gauge syntax 'pow:p/q' or 'powlog:p/q'."""
    try:
        family, _, rest = spec.partition(":")
        return make_dimfn(family.strip(), parse_rational(rest), d)
    except (RejectNonPositive, RejectNotDominated):
        raise
    except Exception as exc:
        raise RejectNotDominated(f"bad gauge spec {spec!r}: {exc}") from exc
