from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.errors import DimensionMismatch, ZeroPattern
from lacuna.pattern import make_pattern, normalize
from reference import eval_pattern, key_inequality_check, lattice_value, phi

F = Fraction

rational = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=1000)


class TestNormalize:
    def test_three_term_ap(self, ap_pattern):
        n = normalize(ap_pattern)
        assert n.pivot == 0
        assert n.scale == 1
        assert n.peak == 2
        assert n.scales == ((F(1),), (F(1, 2),), (F(1),))
        assert n.max_scale == 1
        assert n.base.coeffs[-1][n.pivot] == 1

    def test_quotient_two(self, quotient2_pattern):
        n = normalize(quotient2_pattern)
        assert n.scale == -1
        assert n.base.coeffs == ((F(-2),), (F(1),))
        assert n.peak == F(3, 2)
        assert n.scales == ((F(1, 2),), (F(1),))

    def test_zero_pattern_rejected(self):
        with pytest.raises(ZeroPattern):
            normalize(make_pattern(1, [[0], [0]]))

    def test_sign_identity(self):
        n = normalize(make_pattern(2, [[3, 0], [F(-1, 2), 5], [7, F(2, 3)]]))
        for row, srow in zip(n.base.coeffs, n.scales):
            for b, s in zip(row, srow):
                if b != 0:
                    assert s * b in (F(1), F(-1))
                else:
                    assert s == 1

    def test_pivot_is_smallest_magnitude(self):
        n = normalize(make_pattern(1, [[4], [-3], [8]]))
        # -3 has the smallest |b|: its block moves last and scales to 1.
        assert n.base.coeffs[-1][0] == 1
        assert n.scale == F(-1, 3)

    @given(xs=st.lists(st.tuples(rational), min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_zero_set_preserved(self, xs):
        p = make_pattern(1, [[1], [-3], [2]])
        n = normalize(p)
        orig = eval_pattern(p, xs)
        permuted = eval_pattern(n, [xs[n.perm[i]] for i in range(3)])
        assert permuted == n.scale * orig
        assert (orig == 0) == (permuted == 0)

    @given(
        rows=st.lists(
            st.tuples(rational, rational), min_size=2, max_size=4
        ).filter(lambda rs: any(v != 0 for r in rs for v in r))
    )
    @settings(max_examples=150)
    def test_zero_set_preserved_d2(self, rows):
        p = make_pattern(2, rows)
        n = normalize(p)
        xs = [(F(3, 7) * i, F(-2, 5) + i) for i in range(p.m)]
        assert eval_pattern(n, [xs[n.perm[i]] for i in range(p.m)]) == n.scale * eval_pattern(p, xs)


class TestPeak:
    """peak = max |psi| over the centered unit box, attained at sign corners."""

    @pytest.mark.parametrize(
        "rows",
        [[[1], [-2], [1]], [[2], [-1]], [[3, 0], [F(-1, 2), 5], [7, F(2, 3)]]],
    )
    def test_corner_attainment(self, rows):
        p = make_pattern(len(rows[0]) if isinstance(rows[0], list) else 1, rows)
        n = normalize(p)
        half = F(1, 2)
        best = F(0)
        for corner in product((-half, half), repeat=n.m * n.d):
            pts = [corner[i * n.d : (i + 1) * n.d] for i in range(n.m)]
            val = abs(eval_pattern(n, pts))
            assert val <= n.peak
            best = max(best, val)
        assert best == n.peak


class TestPhi:
    def test_middle_block_halves(self, ap_pattern):
        n = normalize(ap_pattern)
        assert phi(n, 1, [6]) == (F(3),)

    def test_last_block_shifts(self, ap_pattern):
        n = normalize(ap_pattern)
        assert phi(n, 2, [73]) == (F(147, 2),)

    def test_zero_vector(self, ap_pattern):
        n = normalize(ap_pattern)
        assert phi(n, 0, [0]) == (F(0),)
        assert phi(n, 2, [0]) == (F(1, 2),)


class TestEval:
    def test_ap_vanishes_on_progression(self, ap_pattern):
        assert eval_pattern(ap_pattern, [[F(1)], [F(5, 4)], [F(3, 2)]]) == 0

    def test_ap_nonzero(self, ap_pattern):
        assert eval_pattern(ap_pattern, [[F(1)], [F(1)], [F(2)]]) == 1

    def test_quotient_vanishes_on_doubling(self, quotient2_pattern):
        assert eval_pattern(quotient2_pattern, [[F(1)], [F(2)]]) == 0

    def test_dimension_mismatch(self, ap_pattern):
        with pytest.raises(DimensionMismatch):
            eval_pattern(ap_pattern, [[F(1)], [F(2)]])


class TestKeyInequality:
    def test_ap_window_five(self, ap_pattern):
        assert key_inequality_check(normalize(ap_pattern), 5)

    def test_quotient_window_five(self, quotient2_pattern):
        assert key_inequality_check(normalize(quotient2_pattern), 5)

    def test_zero_tuple_value_is_half(self, ap_pattern):
        n = normalize(ap_pattern)
        assert lattice_value(n, [[0], [0], [0]]) == F(1, 2)

    def test_lattice_identity_exhaustive(self, ap_pattern):
        # psi(phi(z)) - 1/2 equals the signed residue sum, an integer.
        n = normalize(ap_pattern)
        signs = [
            [1 if b > 0 else -1 if b < 0 else 0 for b in row]
            for row in n.base.coeffs
        ]
        for flat in product(range(-3, 4), repeat=3):
            zs = [flat[i : i + 1] for i in range(3)]
            val = lattice_value(n, zs)
            residue = sum(
                s * z for srow, zrow in zip(signs, zs) for s, z in zip(srow, zrow)
            )
            assert val == residue + F(1, 2)

    def test_pattern_with_zero_columns(self):
        # d=2 pattern touching only the first axis still lands in Z + 1/2.
        p = make_pattern(2, [[1, 0], [-2, 0], [1, 0]])
        assert key_inequality_check(normalize(p), 2)
