"""The flat per-axis kernels against their tuple-layout references.

lacuna holds each level as one flat integer list (d numerators per cube);
tests/reference.py keeps the per-cube tuple versions of the same kernels.
On random integer corners for d = 1, 2, 3 and on the three golden builds,
both must give the same values, or raise the same exception type.  The
integer spot check and center cross-check must give the verdicts and
messages of their Fraction forms there.  The integer atanh and exp series
must return exactly the rationals of their Fraction forms, and the powlog
comparisons, which start their refinement at START_PRECISION, must decide
as a refinement started at 64 bits does.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import reference as ref
from lacuna import certify
from lacuna.certify import (
    _cross_check_centers,
    _draws,
    _min_half_offset,
    _recover_residue,
    certify_gap,
    placed_blocks,
    spot_check_gap,
)
from lacuna import lnexp
from lacuna.differences import _exp_pos_attempt
from lacuna.dimfn import START_PRECISION, make_dimfn, parse_dimfn
from lacuna.engine import build, compute_beta, init_state, lattice_denominator, sqrt_d_bounds
from lacuna.errors import GapViolated, PlacementFailure
from lacuna.geometry import _dyadic_children, block_lattice, place_on_lattice
from lacuna.lnexp import _atanh_series, ln_bounds
from lacuna.pattern import make_pattern, normalize
from test_golden import PARALLELOGRAM, TRAPEZOIDS, _ap_state, _app_state

#: One normalized pattern per dimension, with distinct steps per axis and
#: a shift.
PATTERNS = {
    1: normalize(make_pattern(1, [[1], [-2], [1]])),
    2: normalize(make_pattern(2, [[1, 2], [-3, 1], [2, -3]])),
    3: normalize(make_pattern(3, [[1, 0, 2], [-1, 1, -1], [1, -1, 1], [-1, 1, 0]])),
}

COORD = hs.integers(min_value=-(10**6), max_value=10**6)


def _outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except (PlacementFailure, GapViolated) as exc:
        return type(exc)


def _reference_placement(parents, parent_side, lattice, d):
    """place_on_lattice in the tuple layout, cube by cube, flattened: the
    lower corners and the lattice vectors z."""
    placed = [ref.place_on_lattice(c, parent_side, lattice) for c in ref.corners(parents, d)]
    return ref.flatten(lo for lo, _ in placed), ref.flatten(z for _, z in placed)


def _placement(parents, parent_side, lattice):
    """place_on_lattice's lower corners, and the lattice vectors z derived
    from them."""
    lowers = place_on_lattice(parents, parent_side, lattice)
    return lowers, ref.lattice_vectors(lowers, lattice)


def _reference_residues(lattice, signs, block, d):
    return [ref._recover_residue(lattice, signs, c) for c in ref.corners(block, d)]


@hs.composite
def _pattern(draw):
    """A normalized pattern of d = 1..3 and m = 2..4 with small rational
    coefficients, not all zero."""
    d, m = draw(hs.integers(1, 3)), draw(hs.integers(2, 4))
    coeff = hs.fractions(min_value=-4, max_value=4, max_denominator=4)
    rows = draw(
        hs.lists(hs.lists(coeff, min_size=d, max_size=d), min_size=m, max_size=m).filter(
            lambda rows: any(map(any, rows))
        )
    )
    return normalize(make_pattern(d, rows))


@hs.composite
def _lattice(draw, d):
    """A pattern block's lattice for a random admissible side."""
    np_ = PATTERNS[d]
    side = lattice_denominator([np_]) * draw(hs.integers(1, 3))
    return np_, block_lattice(np_, draw(hs.integers(0, np_.m - 1)), side)


class TestRandomCorners:
    @settings(max_examples=150, deadline=None)
    @given(
        d=hs.sampled_from([1, 2, 3]),
        cubes=hs.integers(1, 6),
        side=hs.integers(1, 50),
        data=hs.data(),
    )
    def test_dyadic_children(self, d, cubes, side, data):
        flat = data.draw(hs.lists(COORD, min_size=d * cubes, max_size=d * cubes))
        expected = ref.flatten(ref._dyadic_children(ref.corners(flat, d), side, d))
        assert _dyadic_children(flat, side, d) == expected

    @settings(max_examples=200, deadline=None)
    @given(d=hs.sampled_from([1, 2, 3]), cubes=hs.integers(1, 6), data=hs.data())
    def test_place_on_lattice(self, d, cubes, data):
        np_, lattice = data.draw(_lattice(d))
        # up to twice the parent side of a real avoidance level, and often
        # a few child sides, so that some parents cannot hold their child
        ratio = data.draw(
            hs.one_of(hs.integers(1, 4), hs.integers(1, 4 * compute_beta(np_, d)))
        )
        parents = data.draw(hs.lists(COORD, min_size=d * cubes, max_size=d * cubes))
        parent_side = ratio * lattice.side
        assert _outcome(
            lambda: _placement(parents, parent_side, lattice)
        ) == _outcome(lambda: _reference_placement(parents, parent_side, lattice, d))

    @settings(max_examples=200, deadline=None)
    @given(np_=_pattern(), cubes=hs.integers(1, 6), data=hs.data())
    def test_placement_is_within_the_certified_ball(self, np_, cubes, data):
        """The bounds place_on_lattice leaves to its rounding, on random
        patterns and admissible sides: each child center misses its parent
        center by at most steps[v]/2 on axis v, and the steps fit the
        certified ball, sum steps_v^2 <= (4*peak*max_scale*sqrt_hi*side)^2.
        With a shrink factor 2*beta of at least 2*compute_beta, every child
        lies in its parent."""
        d = np_.d
        side = lattice_denominator([np_]) * data.draw(hs.integers(1, 3))
        lattice = block_lattice(np_, data.draw(hs.integers(0, np_.m - 1)), side)
        _, sqrt_hi = sqrt_d_bounds(d)
        radius = 4 * np_.peak * np_.max_scale * sqrt_hi * side
        assert sum(s * s for s in lattice.steps) <= radius**2
        beta = compute_beta(np_, d)
        parent_side = 2 * data.draw(hs.integers(beta, 2 * beta)) * side
        parents = data.draw(hs.lists(COORD, min_size=d * cubes, max_size=d * cubes))
        lowers = place_on_lattice(parents, parent_side, lattice)
        for j, (x, p) in enumerate(zip(lowers, parents)):
            # twice the miss: twice the parent center less twice the child's
            assert abs((2 * p + parent_side) - (2 * x + side)) <= lattice.steps[j % d]

    @settings(max_examples=200, deadline=None)
    @given(d=hs.sampled_from([1, 2, 3]), cubes=hs.integers(1, 6), data=hs.data())
    def test_recover_residue(self, d, cubes, data):
        _, lattice = data.draw(_lattice(d))
        signs = data.draw(hs.lists(hs.sampled_from([-1, 0, 1]), min_size=d, max_size=d))
        # lattice corners step*z + shift - side/2, some of them knocked off
        n = d * cubes
        zs = data.draw(hs.lists(hs.integers(-1000, 1000), min_size=n, max_size=n))
        offs = data.draw(hs.lists(hs.sampled_from([0, 0, 0, -2, 1, 3]), min_size=n, max_size=n))
        block = [
            lattice.steps[j % d] * z + lattice.shifts[j % d] - lattice.side // 2 + off
            for j, (z, off) in enumerate(zip(zs, offs))
        ]
        assert _outcome(lambda: _recover_residue(lattice, signs, block)) == _outcome(
            lambda: _reference_residues(lattice, signs, block, d)
        )


#: randrange bounds: anywhere up to 2^20 (the most cubes a level holds),
#: powers of two (where nearly half the draws are redrawn) and 65537, the
#: spot check's grid span.
_BOUND = hs.one_of(
    hs.integers(1, 1 << 20), hs.integers(0, 20).map(lambda k: 1 << k), hs.just(65537)
)

#: Per-block residue lists: m = 2..5 blocks of 1..8 residues.
_RESIDUES = hs.lists(
    hs.lists(hs.integers(-40, 40), min_size=1, max_size=8), min_size=2, max_size=5
)


class TestGapSearch:
    @settings(max_examples=300, deadline=None)
    @given(seed=hs.integers(0, 2**64), bounds=hs.lists(_BOUND, min_size=1, max_size=4))
    def test_draws_are_randrange(self, seed, bounds):
        """Three rounds through the bounds, as randrange draws them."""
        rng = random.Random(seed)
        expected = [[rng.randrange(n) for n in bounds] for _ in range(3)]
        assert list(islice(_draws(seed, bounds), 3)) == expected

    @settings(max_examples=300, deadline=None)
    @given(residues=_RESIDUES)
    def test_min_half_offset_is_the_minimum(self, residues):
        best = min(abs(2 * sum(choice) + 1) for choice in product(*residues))
        assert _min_half_offset(residues) == (Fraction(best, 2), True)

    @settings(max_examples=400, deadline=None)
    @given(residues=_RESIDUES, cap=hs.integers(1, 80))
    def test_exact_min_matches_the_fold_of_all_sets(self, residues, cap):
        """Under a small COMBO_CAP the fallback and the minimum are those of
        folding every set but the largest, joined or not."""
        with mock.patch.object(certify, "COMBO_CAP", cap):
            assert _min_half_offset(residues) == ref.min_half_offset(residues)


@pytest.fixture(
    scope="module",
    params=[_ap_state, lambda: _app_state(PARALLELOGRAM), lambda: _app_state(TRAPEZOIDS)],
    ids=["ap-d1-depth12", "parallelogram-d2-depth6", "trapezoids-d3-depth5"],
)
def golden(request):
    """The three builds of test_golden.py."""
    return request.param()


def test_golden_levels_match_the_tuple_kernels(golden):
    """Every level of the build, rebuilt from its parent level by the tuple
    kernels, is the flat level the build holds."""
    st = golden
    d = st.d
    by_level = {e.m_level: e for e in st.entries}
    for k in range(1, st.depth + 1):
        prev = ref.corners(st.levels[k - 1].lowers, d)
        side = st.side_num
        entry = by_level.get(k)
        if entry is None:
            lowers = ref._dyadic_children(prev, side, d)
        else:
            np_ = st.normalized[entry.pattern_id]
            ratio = 2 * entry.beta
            lowers = [tuple(ratio * x for x in lower) for lower in prev]
            shift = d * (st.ndigits(k - 1) - st.ndigits(entry.level))
            for block, member in enumerate(entry.tuple_codes):
                lattice = block_lattice(np_, block, side)
                for i in range(member << shift, (member + 1) << shift):
                    lowers[i], _ = ref.place_on_lattice(lowers[i], ratio * side, lattice)
        assert ref.flatten(lowers) == st.levels[k].lowers, f"level {k}"


def test_golden_residues_match_the_tuple_kernel(golden):
    st = golden
    d = st.d
    assert st.entries
    for entry in st.entries:
        np_ = st.normalized[entry.pattern_id]
        side = st.side_num
        for b, blk in enumerate(placed_blocks(st, entry)):
            lattice = block_lattice(np_, b, side)
            signs = [(c > 0) - (c < 0) for c in np_.base.coeffs[b]]
            assert _recover_residue(lattice, signs, blk) == _reference_residues(
                lattice, signs, blk, d
            )


def _message(check, *args):
    """The GapViolated message of a check, or None if it passes."""
    try:
        check(*args)
    except GapViolated as exc:
        return str(exc)
    return None


def test_spot_check_matches_the_fraction_reference(golden):
    """At the certified gap both spot checks pass.  With the gap raised
    above the true minimum, the integer check and its Fraction reference
    fail on the same draw with the same |psi| (the draws that fail come
    anywhere from the 1st to the 54th of 100), or both pass."""
    st = golden
    failed = 0
    for entry in st.entries:
        cert = certify_gap(st, entry)
        spot_check_gap(st, entry, cert)
        ref.spot_check_gap(st, entry, cert)
        for factor in (2, 4, 8, 64):
            raised = cert.replace(gap=cert.gap * factor)
            message = _message(spot_check_gap, st, entry, raised)
            assert message == _message(ref.spot_check_gap, st, entry, raised)
            failed += message is not None
    assert failed


def _assert_cross_checks_agree(st):
    """Both forms of the center cross-check pass on every entry.  With one
    tuple block moved by one numerator unit on one axis, they give the same
    verdict and the same message, and some of the moved blocks fail."""
    failed = 0
    for entry in st.entries:
        np_ = st.normalized[entry.pattern_id]
        blocks = placed_blocks(st, entry)
        assert _message(_cross_check_centers, st, entry, np_, blocks) is None
        assert _message(ref.cross_check_centers, st, entry, np_, blocks) is None
        for b, blk in enumerate(blocks):
            for v in range(st.d):
                moved = list(blocks)
                moved[b] = [x + (j % st.d == v) for j, x in enumerate(blk)]
                message = _message(_cross_check_centers, st, entry, np_, moved)
                assert message == _message(ref.cross_check_centers, st, entry, np_, moved)
                failed += message is not None
    assert failed


def test_cross_check_matches_the_fraction_reference(golden):
    _assert_cross_checks_agree(golden)


def test_cross_check_matches_on_a_quotient_build():
    """Quotient 2 (coefficients 2, -1), whose coefficients, unlike those of
    the golden patterns, do not sum to zero."""
    pattern = make_pattern(1, [[2], [-1]])
    state = init_state(1, [pattern], parse_dimfn("pow:1/2", 1))
    _assert_cross_checks_agree(build(state, 12))


# -- ln/exp series and powlog comparisons ---------------------------------------

@hs.composite
def _rational(draw, below):
    """A rational in [0, below): dyadic, or with any denominator up to 10**6."""
    if draw(hs.booleans()):
        bits = draw(hs.integers(1, 64))
        return Fraction(draw(hs.integers(0, (below << bits) - 1)), 1 << bits)
    den = draw(hs.integers(1, 10**6))
    return Fraction(draw(hs.integers(0, below * den - 1)), den)


#: 2**-k as the series' callers pass it, or any small positive rational.
_TAIL = hs.one_of(
    hs.integers(1, 160).map(lambda k: Fraction(1, 1 << k)),
    hs.fractions(min_value=Fraction(1, 10**40), max_value=1, max_denominator=10**40),
)


class TestSeries:
    @settings(max_examples=300, deadline=None)
    @given(t=hs.one_of(hs.just(Fraction(1, 3)), _rational(1).map(lambda f: f / 2)), tail=_TAIL)
    def test_atanh_matches_the_fraction_form(self, t, tail):
        assert _atanh_series(t, tail) == ref.atanh_series(t, tail)

    @settings(max_examples=300, deadline=None)
    @given(
        # up to 1/2 the series runs as is; above, x is halved k times and
        # the enclosure squared back k times
        x=hs.one_of(hs.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]),
                    _rational(1), _rational(40)),
        shift=hs.integers(1, 160),
    )
    def test_exp_matches_the_fraction_form(self, x, shift):
        assert _exp_pos_attempt(x, shift) == ref.exp_pos_attempt(x, shift)


#: Powlog gauges up to full dimension (s = d) for d = 1, 2, 3, and
#: exponents with large denominators q, where the q-th powers of lacuna's
#: comparison are largest.
POWLOG = [
    make_dimfn("powlog", Fraction(s), d)
    for d in (1, 2, 3)
    for s in ("1/2", "63/64", "1", "3/2", "2", "3")
    if Fraction(s) <= d
] + [
    make_dimfn("powlog", Fraction(s), d)
    for s, d in (("99/100", 1), ("5/7", 1), ("7/3", 3))
]


class TestPowlogComparisons:
    @settings(max_examples=120, deadline=None)
    @given(h=hs.sampled_from(POWLOG), data=hs.data())
    def test_decisions_match_a_64_bit_start(self, h, data):
        """On random arguments, with thresholds anywhere or at an end of a
        close enclosure of the compared value, so that deciding takes from
        one to several doublings."""
        r = ref.powlog_cap(h.s) * data.draw(
            hs.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(bool)
        )
        if data.draw(hs.booleans()):
            value = data.draw(hs.fractions(min_value=0, max_value=50, max_denominator=10**6))
            ratio = value
        else:
            bounds = ref.eval_bounds(h, r, data.draw(hs.integers(4, 200)))
            value = data.draw(hs.sampled_from(bounds))
            ratio = value / r**h.d  # h(r)/r^d, with r^d exact
        assert h.ge(r, value) == ref.gauge_ge(h, r, value, 64)
        assert h.ratio_ge(r, ratio) == ref.gauge_ratio_ge(h, r, ratio, 64)

    @pytest.mark.parametrize("above", [False, True])
    def test_near_threshold_takes_several_doublings(self, monkeypatch, above):
        """The ratio of powlog:1/1 in d=1 is -ln r.  A threshold 2**-90
        from it is decided only past 64 bits, after four doublings from
        START_PRECISION, and as the 64-bit start decides it."""
        h = make_dimfn("powlog", Fraction(1), 1)
        r = Fraction(1, 7 * 2**17)
        lo, hi = ln_bounds(r, 400)
        step = Fraction(1, 1 << 90)
        threshold = -lo + step if above else -hi - step
        tried = []

        def counting(x, precision):
            tried.append(precision)
            return ln_bounds(x, precision)

        monkeypatch.setattr(lnexp, "ln_bounds", counting)
        assert h.ratio_ge(r, threshold) is not above
        assert tried[:5] == [START_PRECISION << i for i in range(5)]
        assert tried[-1] > 64
        assert ref.gauge_ratio_ge(h, r, threshold, 64) is not above
