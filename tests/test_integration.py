"""Randomized end-to-end property: arbitrary small patterns build and certify.

For any nonzero integer-coefficient pattern and any of the stock gauges,
the pipeline must reach its first avoidance level, survive structural
validation, certify the gap of every processed entry, and hold up under
random point sampling.  This is the whole contract exercised at once.

The trust property runs the same through the CLI: `lacuna build` writes
its recipe without making geometry, so it runs no placement; a build that
exits 0 must be followed by a `certify --mode all` that exits 0, and by an
`export --format points` whose points read back as the leaf centers of
the built state.  certify_tree, which walks the levels to the last
avoidance level, must certify as the reference route over every level
(reference.certify_tree).  Every state a build makes passes the checks
of its own recipe, and reads back from its tree file as itself.
"""

from __future__ import annotations

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lacuna.certify import (
    certificates_to_doc,
    certify_gap,
    certify_measure,
    certify_tree,
    spot_check_gap,
)
from lacuna.cli import main
from lacuna.dimfn import make_dimfn
from lacuna.engine import (
    build,
    build_tree,
    compute_beta,
    init_state,
    state_to_doc,
    validate_structure,
)
from lacuna.errors import LacunaError, ScheduleOverflow
from lacuna.export import read_points
from lacuna.pattern import make_pattern, normalize, patterns_to_doc
from lacuna.reader import doc_to_state
from lacuna.schedule import compute_levels
import reference
from conftest import walk_levels

F = Fraction

coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def small_patterns(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    rows = [[draw(coeff)] for _ in range(m)]
    assume(any(r[0] != 0 for r in rows))
    return make_pattern(1, rows)


@st.composite
def gauges(draw):
    s = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
    return make_dimfn("pow", s, 1)


class TestRandomPipelines:
    @given(p=small_patterns(), h=gauges())
    @settings(max_examples=40, deadline=None)
    def test_build_and_certify_first_entry(self, p, h):
        beta = compute_beta(normalize(p), 1)
        try:
            m1 = compute_levels(h, [beta], level_cap=12)[0]
        except ScheduleOverflow:
            assume(False)
        depth = min(m1 + 1, 12)
        assume(depth >= m1)
        st_ = build(init_state(1, [p], h, level_cap=12), depth)
        validate_structure(st_)
        assume(st_.entries)  # starvation pushes small-m schedules past 12
        entry = st_.entries[0]
        level = walk_levels(st_, entry.m_level)[-1]
        cert = certify_gap(st_, entry, level)
        assert cert.gap >= cert.threshold > 0
        spot_check_gap(st_, entry, level, cert, count=20)
        measure = certify_measure(st_)
        assert all(v.mass_ok and v.ratio_ok for v in measure.per_level)

    @given(p=small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_normalization_feeds_valid_constants(self, p):
        n = normalize(p)
        assert n.peak >= F(1, 2)
        assert n.base.coeffs[-1][n.pivot] == 1
        beta = compute_beta(n, 1)
        assert beta >= max(n.m, 2)
        assert F(beta, 2) >= n.max_scale * 2 * n.peak + F(1, 2)


#: The trust property builds to the deepest level of at most this many cubes.
LEAF_BUDGET = 2**14


@st.composite
def recipes(draw, max_d=3):
    """(d, patterns, gauge spec): d <= max_d, one or two patterns of arity
    2-3 with rational coefficients, and a pow or powlog gauge for d."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    value = st.builds(
        Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
    )

    def pattern(m):
        rows = st.lists(st.lists(value, min_size=d, max_size=d), min_size=m, max_size=m)
        return rows.filter(lambda rs: any(any(r) for r in rs)).map(
            lambda rs: make_pattern(d, rs)
        )

    arities = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=2))
    patterns = [draw(pattern(m)) for m in arities]
    family = draw(st.sampled_from(["pow", "powlog"]))
    # s < d for pow, s <= d for powlog, in quarters
    quarters = draw(st.integers(min_value=1, max_value=4 * d - (family == "pow")))
    s = Fraction(quarters, 4)
    return d, patterns, f"{family}:{s.numerator}/{s.denominator}"


def _budget_depth(d, patterns, h) -> int:
    """The deepest level of at most LEAF_BUDGET cubes, from a recipe walked
    to 20 // d (2^20 cubes at most, the build's cap).  Every recipe is a
    prefix of a deeper one, so its level counts hold for every depth."""
    top = 20 // d
    try:
        recipe = build_tree(d, patterns, h, top)
    except LacunaError:
        return (LEAF_BUDGET.bit_length() - 1) // d
    return max(k for k in range(top + 1) if recipe.expected_count(k) <= LEAF_BUDGET)


class TestTrustProperty:
    @given(recipe=recipes())
    @settings(max_examples=40, deadline=None)
    def test_a_build_that_exits_0_certifies(self, recipe):
        d, patterns, spec = recipe
        h = make_dimfn(*spec.split(":"), d)
        depth = _budget_depth(d, patterns, h)
        with tempfile.TemporaryDirectory() as tmp:
            pfile, tree, pts = (Path(tmp, name) for name in ("p.json", "tree.json", "pts.txt"))
            pfile.write_text(json.dumps(patterns_to_doc(d, patterns)))
            argv = ["build", str(pfile), "--dimfn", spec, "--depth", str(depth)]
            if main([*argv, "--out", str(tree)]) != 0:
                return
            code = main(["certify", str(tree), "--mode", "all", "--spot-checks", "10"])
            # a tree with no entry has nothing to certify, and says so
            assert code == (0 if json.loads(tree.read_text())["schedule"] else 1)
            assert main(["export", str(tree), "--format", "points", "--out", str(pts)]) == 0
            leaf_den, centers = build_tree(d, patterns, h, depth).leaf_center_numerators()
            points = read_points(pts)
            # X / den == c / leaf_den for each coordinate, cross-multiplied
            assert points.d == d
            assert [x * leaf_den for x in points.flat] == [c * points.den for c in centers]


class TestOnePassCertify:
    @given(recipe=recipes(max_d=2), mode=st.sampled_from(["all", "gap"]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_certifies_as_over_every_level(self, recipe, mode, data):
        # certify_tree walks to the last M_i and holds one level; the
        # reference makes and holds every level 0..depth first: the same
        # certificates, or the same refusal, at any depth from M_1 to the
        # leaf budget
        d, patterns, spec = recipe
        h = make_dimfn(*spec.split(":"), d)
        budget = _budget_depth(d, patterns, h)
        try:
            m_levels = build_tree(d, patterns, h, budget).m_levels
        except LacunaError:
            m_levels = []
        assume(m_levels)
        state = build_tree(d, patterns, h, data.draw(st.integers(m_levels[0], budget)))

        def doc(route):
            try:
                return certificates_to_doc(*route(state, mode, 10))
            except LacunaError as exc:
                return type(exc), str(exc)

        assert doc(certify_tree) == doc(reference.certify_tree)


class TestBuiltStatesCheckThemselves:
    @given(recipe=recipes(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_built_state_passes_its_own_checks(self, recipe, data):
        # a depth of at most 20 // d holds at most 2^20 cubes, so every
        # build here is within the leaf cap
        d, patterns, spec = recipe
        h = make_dimfn(*spec.split(":"), d)
        state = build_tree(d, patterns, h, data.draw(st.integers(0, 20 // d)))
        assert state.replace() == state
        assert doc_to_state(json.loads(json.dumps(state_to_doc(state)))) == state
