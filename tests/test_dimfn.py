from __future__ import annotations

import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lacuna.dimfn import POWER, POWERLOG, make_dimfn, parse_dimfn
from lacuna.errors import OutOfDomain, RejectNonPositive, RejectNotDominated
from reference import eval_bounds, gauge_ge, gauge_ratio_ge, powlog_cap

mpmath.mp.dps = 60


def as_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def domain_cap(h) -> Fraction:
    """The right end of h's domain as the reference draws it."""
    return Fraction(1) if h.family == POWER else powlog_cap(h.s)


def outcome(fn):
    """fn()'s value, or OutOfDomain if it raised that."""
    try:
        return fn()
    except OutOfDomain:
        return OutOfDomain


class TestConstruction:
    def test_sqrt_gauge_valid(self):
        h = make_dimfn(POWER, Fraction(1, 2), 1)
        assert h.ge(Fraction(1), Fraction(1))
        with pytest.raises(OutOfDomain):
            h.ge(1 + Fraction(1, 2**64), Fraction(0))
        assert h.spec_string() == "pow:1/2"

    def test_identity_not_dominated(self):
        with pytest.raises(RejectNotDominated):
            make_dimfn(POWER, Fraction(1), 1)

    def test_full_dimension_powlog_valid(self):
        h = make_dimfn(POWERLOG, Fraction(2), 2)
        assert powlog_cap(h.s) == Fraction(1, 2)
        assert h.ratio_ge(Fraction(1, 2), Fraction(0))
        with pytest.raises(OutOfDomain):
            h.ratio_ge(Fraction(1, 2) + Fraction(1, 2**64), Fraction(0))

    def test_powlog_above_d_rejected(self):
        with pytest.raises(RejectNotDominated):
            make_dimfn(POWERLOG, Fraction(3), 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(RejectNonPositive):
            make_dimfn(POWER, Fraction(-1, 2), 1)
        with pytest.raises(RejectNonPositive):
            make_dimfn(POWERLOG, 0, 1)

    def test_powlog_cap_sits_below_its_maximum(self):
        # -x^s ln x increases only up to e^(-1/s); the cap must stay below.
        for s in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            assert as_mpf(powlog_cap(s)) <= mpmath.e ** (-1 / as_mpf(s))

    def test_parse_spec_strings(self):
        assert parse_dimfn("pow:1/2", 1).family == POWER
        assert parse_dimfn("powlog:2/1", 2).s == 2
        with pytest.raises(RejectNotDominated):
            parse_dimfn("pow:1/1", 1)
        with pytest.raises(RejectNotDominated):
            parse_dimfn("nonsense:1/2", 1)


#: Powlog exponents in (0, 3/2] with small denominators: below 3/2 the
#: domain ends at e^(-1/s) < 1/2 (for s < 1/ln 2), above it at 1/2.
EXPONENTS = st.builds(Fraction, st.integers(1, 18), st.integers(1, 12)).filter(
    lambda s: s <= Fraction(3, 2)
)


class TestDomain:
    """Each comparison decides the domain from its own ln enclosure: the
    powlog domain is 0 < r <= 1/2 with -ln r >= 1/s, with no stored cap."""

    @pytest.mark.parametrize("s", [Fraction(1), Fraction(1, 2), Fraction(1, 10)])
    def test_powlog_domain_ends_at_its_maximum(self, s):
        # 2**-80 on either side of e^(-1/s): refined past 80 bits, inside
        # the domain below it and outside above it
        h = make_dimfn(POWERLOG, s, 1)
        end = mpmath.e ** (-1 / as_mpf(s)) * 2**80
        below = Fraction(int(mpmath.floor(end)) - 1, 2**80)
        above = Fraction(int(mpmath.ceil(end)) + 1, 2**80)
        assert h.ge(below, Fraction(0))
        for compare in (h.ge, h.ratio_ge):
            with pytest.raises(OutOfDomain):
                compare(above, Fraction(0))

    def test_small_exponent_is_refused_before_any_power(self):
        # -ln r <= ln 8 is far below 1/s = 10^7: refused from the first
        # enclosure, before a q-th power with q = 10^7 is formed ((5/3)^q *
        # (7/3)^(q - 1) runs for minutes), and before the answer True that
        # a threshold <= 0 would give
        h = make_dimfn(POWERLOG, Fraction(1, 10**7), 1)
        start = time.perf_counter()
        with pytest.raises(OutOfDomain):
            h.ratio_ge(Fraction(1, 8), Fraction(1))
        with pytest.raises(OutOfDomain):
            h.ratio_ge(Fraction(3, 7), Fraction(5, 3))
        with pytest.raises(OutOfDomain):
            h.ge(Fraction(1, 8), Fraction(0))
        assert time.perf_counter() - start < 1

    @settings(max_examples=150, deadline=None)
    @given(s=EXPONENTS, data=st.data())
    def test_decides_as_the_reference_cap(self, s, data):
        """Anywhere but within 2**-47 above the reference's 48-bit cap,
        OutOfDomain exactly where the cap refuses, and else its answer."""
        cap = powlog_cap(s)
        step = Fraction(1, 2**47)
        r = data.draw(st.one_of(
            st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**6),
            st.fractions(min_value=0, max_value=1, max_denominator=10**6).map(cap.__mul__),
            st.sampled_from([-2, -1, 0, 2, 3]).map(lambda k: cap + k * step),
        ).filter(bool))
        assume(not cap < r <= cap + step)
        h = make_dimfn(POWERLOG, s, data.draw(st.integers(1 if s <= 1 else 2, 3)))
        threshold = data.draw(st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-1, max_value=50, max_denominator=10**6),
        ))
        ge = outcome(lambda: h.ge(r, threshold))
        ratio_ge = outcome(lambda: h.ratio_ge(r, threshold))
        assert ge == outcome(lambda: gauge_ge(h, r, threshold, 64))
        assert ratio_ge == outcome(lambda: gauge_ratio_ge(h, r, threshold, 64))
        assert (ge is OutOfDomain) == (ratio_ge is OutOfDomain) == (r > cap)


class TestEvalBounds:
    def test_exact_square_roots(self):
        h = make_dimfn(POWER, Fraction(1, 2), 1)
        assert eval_bounds(h, Fraction(1, 4), 20) == (Fraction(1, 2), Fraction(1, 2))
        assert eval_bounds(h, Fraction(1, 576), 20) == (Fraction(1, 24), Fraction(1, 24))

    def test_powlog_near_inverse_e(self):
        # h(x) = -x ln x evaluated at a rational hugging 1/e gives ~1/e.
        h = make_dimfn(POWERLOG, Fraction(1), 1)
        r = Fraction(36787944117, 10**11)
        assert r <= powlog_cap(h.s)
        lo, hi = eval_bounds(h, r, 20)
        true = -as_mpf(r) * mpmath.log(as_mpf(r))
        assert as_mpf(lo) <= true <= as_mpf(hi)
        assert hi - lo <= Fraction(1, 2**20)
        assert abs(true - 1 / mpmath.e) < mpmath.mpf("1e-10")

    def test_out_of_domain(self):
        # 2/5 > e^-1: h = -x ln x decreases there
        h = make_dimfn(POWERLOG, Fraction(1), 1)
        for r in (Fraction(2, 5), Fraction(0)):
            with pytest.raises(OutOfDomain):
                eval_bounds(h, r, 20)
            with pytest.raises(OutOfDomain):
                h.ge(r, Fraction(1, 10))

    @given(
        r=st.fractions(
            min_value=Fraction(1, 10**6), max_value=Fraction(9, 10), max_denominator=10**6
        ),
        s=st.fractions(
            min_value=Fraction(1, 4), max_value=Fraction(7, 4), max_denominator=12
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_bounds_enclose(self, r, s):
        h = make_dimfn(POWER, s, 2)
        lo, hi = eval_bounds(h, r, 36)
        assert hi - lo <= Fraction(1, 2**36)
        if lo == hi:
            # exact rational root: verify algebraically, floats would lie
            assert lo**s.denominator == r**s.numerator
        else:
            true = as_mpf(r) ** as_mpf(s)
            assert as_mpf(lo) <= true <= as_mpf(hi)


class TestRatioGe:
    def test_sqrt_gauge_examples(self):
        # h(r)/r = r^(-1/2): at r=1/576 the ratio is exactly 24.
        h = make_dimfn(POWER, Fraction(1, 2), 1)
        assert h.ratio_ge(Fraction(1, 576), Fraction(18))
        assert not h.ratio_ge(Fraction(1, 288), Fraction(18))  # 288 < 324
        assert h.ratio_ge(Fraction(1, 100), Fraction(0))

    def test_powlog_threshold(self):
        # ratio of powlog:1/1 in d=1 is -ln r; e^14 sits between the two.
        h = make_dimfn(POWERLOG, Fraction(1), 1)
        assert h.ratio_ge(Fraction(1, 7 * 2**18), Fraction(14))
        assert not h.ratio_ge(Fraction(1, 7 * 2**17), Fraction(14))

    def test_powlog_below_full_dimension(self):
        h = make_dimfn(POWERLOG, Fraction(1), 2)
        # ratio = -ln(r)/r: at r = 1/8 it is 8*ln 8 = 16.63...
        assert h.ratio_ge(Fraction(1, 8), Fraction(16))
        assert not h.ratio_ge(Fraction(1, 8), Fraction(17))

    def test_powlog_root_below_the_working_precision(self):
        # ratio = -ln(r) / r^(5/2) = 5.786e12 at r = 1/(3*2^14): r^(5/2) is
        # about 2^-39, below every precision up to 32 bits, and is decided
        # as (-ln r)^2 >= t^2 * r^5, with no root of r
        h = make_dimfn(POWERLOG, Fraction(1, 2), 3)
        r = Fraction(1, 3 * 2**14)
        assert h.ratio_ge(r, Fraction(10))
        assert h.ratio_ge(r, Fraction(5786 * 10**9))
        assert not h.ratio_ge(r, Fraction(5787 * 10**9))


class TestWitness:
    """Sampled evidence for the monotonicity facts the schedule relies on."""

    gauges = [
        make_dimfn(POWER, Fraction(1, 2), 1),
        make_dimfn(POWER, Fraction(13, 10), 2),
        make_dimfn(POWERLOG, Fraction(1), 1),
        make_dimfn(POWERLOG, Fraction(2), 2),
    ]

    @pytest.mark.parametrize("h", gauges, ids=lambda h: h.spec_string())
    def test_strictly_increasing(self, h):
        samples = [domain_cap(h) * Fraction(i, 40) for i in range(1, 41)]
        precision = 48
        for r1, r2 in zip(samples, samples[1:]):
            while True:
                _, hi1 = eval_bounds(h, r1, precision)
                lo2, _ = eval_bounds(h, r2, precision)
                if hi1 < lo2:
                    break
                precision *= 2
                assert precision <= 2048, f"could not separate h({r1}) < h({r2})"

    @pytest.mark.parametrize("h", gauges, ids=lambda h: h.spec_string())
    def test_ratio_nonincreasing_on_samples(self, h):
        # If the ratio clears t at r2, it must clear t at every r1 < r2:
        # probe t between the two ratio values.
        samples = [domain_cap(h) * Fraction(i, 12) for i in (1, 3, 5, 8, 12)]
        for r1, r2 in zip(samples, samples[1:]):
            for t_num in (1, 3, 17, 111):
                t = Fraction(t_num, 7)
                if h.ratio_ge(r2, t):
                    assert h.ratio_ge(r1, t)

    def test_positive_on_domain(self):
        for h in self.gauges:
            lo, _ = eval_bounds(h, domain_cap(h) / 3, 48)
            assert lo > 0
