from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import dimfn
from lacuna.dimfn import POWER, POWERLOG, make_dimfn, parse_dimfn
from lacuna.errors import OutOfDomain, RejectNonPositive, RejectNotDominated
from reference import eval_bounds

mpmath.mp.dps = 60


def as_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


class TestConstruction:
    def test_sqrt_gauge_valid(self):
        h = make_dimfn(POWER, Fraction(1, 2), 1)
        assert h.domain_cap == 1
        assert h.spec_string() == "pow:1/2"

    def test_identity_not_dominated(self):
        with pytest.raises(RejectNotDominated):
            make_dimfn(POWER, Fraction(1), 1)

    def test_full_dimension_powlog_valid(self):
        h = make_dimfn(POWERLOG, Fraction(2), 2)
        assert h.domain_cap == Fraction(1, 2)

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
            h = make_dimfn(POWERLOG, s, 1)
            assert as_mpf(h.domain_cap) <= mpmath.e ** (-1 / as_mpf(s))

    def test_powlog_cap_is_made_once_on_first_use(self, monkeypatch):
        # parsing a gauge makes no cap; its first domain check makes it, as
        # before, and every later read keeps that one
        made, cap = [], dimfn._powlog_cap
        monkeypatch.setattr(dimfn, "_powlog_cap", lambda s: made.append(s) or cap(s))
        h = parse_dimfn("powlog:63/64", 1)
        assert made == []
        assert h.ratio_ge(Fraction(1, 4096), Fraction(1))
        assert h.ge(Fraction(1, 8), Fraction(1, 4))
        assert made == [Fraction(63, 64)]
        assert h.domain_cap == cap(Fraction(63, 64))
        assert made == [Fraction(63, 64)]

    def test_parse_spec_strings(self):
        assert parse_dimfn("pow:1/2", 1).family == POWER
        assert parse_dimfn("powlog:2/1", 2).s == 2
        with pytest.raises(RejectNotDominated):
            parse_dimfn("pow:1/1", 1)
        with pytest.raises(RejectNotDominated):
            parse_dimfn("nonsense:1/2", 1)


class TestEvalBounds:
    def test_exact_square_roots(self):
        h = make_dimfn(POWER, Fraction(1, 2), 1)
        assert eval_bounds(h, Fraction(1, 4), 20) == (Fraction(1, 2), Fraction(1, 2))
        assert eval_bounds(h, Fraction(1, 576), 20) == (Fraction(1, 24), Fraction(1, 24))

    def test_powlog_near_inverse_e(self):
        # h(x) = -x ln x evaluated at a rational hugging 1/e gives ~1/e.
        h = make_dimfn(POWERLOG, Fraction(1), 1)
        r = Fraction(36787944117, 10**11)
        assert r <= h.domain_cap
        lo, hi = eval_bounds(h, r, 20)
        true = -as_mpf(r) * mpmath.log(as_mpf(r))
        assert as_mpf(lo) <= true <= as_mpf(hi)
        assert hi - lo <= Fraction(1, 2**20)
        assert abs(true - 1 / mpmath.e) < mpmath.mpf("1e-10")

    def test_out_of_domain(self):
        h = make_dimfn(POWERLOG, Fraction(1), 1)
        with pytest.raises(OutOfDomain):
            eval_bounds(h, Fraction(2, 5), 20)
        with pytest.raises(OutOfDomain):
            eval_bounds(h, Fraction(0), 20)

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
        samples = [h.domain_cap * Fraction(i, 40) for i in range(1, 41)]
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
        samples = [h.domain_cap * Fraction(i, 12) for i in (1, 3, 5, 8, 12)]
        for r1, r2 in zip(samples, samples[1:]):
            for t_num in (1, 3, 17, 111):
                t = Fraction(t_num, 7)
                if h.ratio_ge(r2, t):
                    assert h.ratio_ge(r1, t)

    def test_positive_on_domain(self):
        for h in self.gauges:
            lo, _ = eval_bounds(h, h.domain_cap / 3, 48)
            assert lo > 0
