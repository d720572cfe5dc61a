from __future__ import annotations

import json
import random
import time
import traceback
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from lacuna import certify, geometry
from lacuna.certify import (
    COMBO_CAP,
    brute_oracle,
    certificates_to_doc,
    certify_gap,
    certify_measure,
    certify_tree,
    placed_blocks,
    spot_check_gap,
)
from lacuna.cli import main
from lacuna.dimfn import make_dimfn
from lacuna.engine import build, build_tree, init_state, state_to_doc
from lacuna.errors import (
    EntryNotProcessed,
    GapViolated,
    MeasureViolated,
    PlacementFailure,
)
from lacuna.export import Points, read_points
from lacuna.pattern import make_pattern
from lacuna.schedule import walk_schedule
from conftest import walk_levels
from reference import (
    corners,
    covered_instance_scan,
    covered_violations,
    eval_bounds,
    eval_pattern,
    exact_points,
    flatten,
    instance_covered,
    leaf_centers,
)

F = Fraction


def placed_points(st, entry):
    """placed_blocks with the lower corners as exact rationals."""
    level = walk_levels(st, entry.m_level)[-1]
    return [
        corners([F(x, level.den) for x in blk], st.d)
        for blk in placed_blocks(st, entry, level)
    ]


class TestGapCertificates:
    def test_first_ap_entry_threshold(self, ap_tree_12):
        st = ap_tree_12
        cert = certify_gap(st, st.entries[0], walk_levels(st, 6)[-1])
        assert cert.threshold == F(1, 288)  # peak * side = 2/576
        assert cert.gap >= cert.threshold
        assert cert.placed_counts == (8, 8, 8)
        assert cert.exact_min

    def test_second_entry(self, ap_tree_12):
        st = ap_tree_12
        cert = certify_gap(st, st.entries[1], walk_levels(st, 11)[-1])
        assert cert.threshold == F(1, 82944)
        assert cert.gap >= cert.threshold

    def test_center_values_are_lattice_residues(self, ap_tree_12):
        # |psi(centers)|/side must be 4*peak*(n + 1/2): odd multiples of 4.
        st = ap_tree_12
        entry = st.entries[0]
        side = st.side(entry.m_level)
        half = side / 2
        blocks = placed_points(st, entry)
        np_ = st.normalized[entry.pattern_id]
        rng = random.Random(7)
        for _ in range(50):
            centers = [
                tuple(x + half for x in blk[rng.randrange(len(blk))])
                for blk in blocks
            ]
            scaled = eval_pattern(np_, centers) / side
            assert (scaled / (4 * np_.peak) - F(1, 2)).denominator == 1
            assert abs(scaled) >= 2 * np_.peak

    def test_spot_checks(self, ap_tree_12):
        levels = walk_levels(ap_tree_12)
        for entry in ap_tree_12.entries:
            cert = certify_gap(ap_tree_12, entry, levels[entry.m_level])
            spot_check_gap(ap_tree_12, entry, levels[entry.m_level], cert, count=100)

    def test_oracle_cross_check_below_gap(self, ap_tree_12):
        # Random points from the placed cubes, oracle tolerance one ulp
        # below the certified gap: any hit would contradict the certificate.
        st = ap_tree_12
        entry = st.entries[0]
        cert = certify_gap(st, entry, walk_levels(st, entry.m_level)[-1])
        blocks = placed_points(st, entry)
        side = st.side(entry.m_level)
        rng = random.Random(5)
        pool = set()
        drawn = []
        for _ in range(12):
            drawn.append([])
            for blk in blocks:
                lo = blk[rng.randrange(len(blk))]
                x = tuple(y + F(rng.randint(0, 2**12), 2**12) * side for y in lo)
                pool.add(x)
                drawn[-1].append(x)
        pts = sorted(pool)
        # one point drawn from each block is a covered instance: not vacuous
        perm = st.normalized[entry.pattern_id].perm
        inst = [0] * len(blocks)
        for b, x in enumerate(drawn[0]):
            inst[perm[b]] = pts.index(x)
        cache = {}  # placed blocks, made from one walk
        assert instance_covered(st, entry, pts, tuple(inst), cache)
        hits = brute_oracle(exact_points(pts, st.d), st.patterns[entry.pattern_id], cert.gap - F(1, 2**40))
        assert not any(instance_covered(st, entry, pts, h, cache) for h in hits)

    def test_gap_matches_lattice_minimum(self, ap_tree_12):
        # (gap + threshold) / (4*peak*side) recovers min|n + 1/2| >= 1/2.
        st = ap_tree_12
        levels = walk_levels(st)
        for entry in st.entries:
            cert = certify_gap(st, entry, levels[entry.m_level])
            np_ = st.normalized[entry.pattern_id]
            side = st.side(entry.m_level)
            q_min = (cert.gap + cert.threshold) / (4 * np_.peak * side)
            assert q_min >= F(1, 2)
            assert (q_min - F(1, 2)).denominator == 1  # half-integer ladder

    def test_unprocessed_entry_rejected(self, ap_tree_12):
        # entry 3 is served at level 12, with its floor 13 past the depth,
        # and lands at 16 in a deeper schedule
        st = ap_tree_12
        entry = walk_schedule(st.normalized, st.h, 16)[2]
        assert (entry.index, entry.m_level) == (3, 16)
        with pytest.raises(EntryNotProcessed):
            certify_gap(st, entry, walk_levels(st, st.depth)[-1])

    def test_combo_cap_falls_back_to_the_structural_bound(self):
        # quotient 2 under pow:41/50 lands entry 1, the level-1 tuple (0, 1),
        # at M_1 = 19 over 2^18 leaves: each block holds 2^17 distinct
        # residues, more than COMBO_CAP, and the cap test runs even on the
        # first fold, so the gap is the structural bound
        # 4*peak*delta/2 - peak*delta
        h = make_dimfn("pow", F(41, 50), 1)
        st = build(init_state(1, [make_pattern(1, [[2], [-1]])], h), 19)
        levels = walk_levels(st)
        assert st.m_levels == [19] and len(levels[19].lowers) // st.d == 2**18
        entry = st.entries[0]
        assert (entry.level, entry.tuple_codes) == (1, (0, 1))
        cert = certify_gap(st, entry, levels[entry.m_level])
        assert cert.placed_counts == (2**17, 2**17) and 2**17 > COMBO_CAP
        assert not cert.exact_min
        assert cert.gap == cert.threshold == F(3, 7 * 2**20)
        spot_check_gap(st, entry, levels[entry.m_level], cert, count=20)
        assert certificates_to_doc([cert], None)["gaps"][0]["exact_min"] is False

    def test_corrupted_placement_fails(self, ap_tree_12, move_cube):
        # Shift one placed cube off the lattice by side/4.
        level = walk_levels(ap_tree_12, 6)[-1]
        x = F(level.lowers[0], level.den)
        broken = move_cube(ap_tree_12, 6, 0, [x + F(1, 4 * 576)])
        with pytest.raises(GapViolated):
            certify_gap(broken, broken.entries[0], walk_levels(broken, 6)[-1])

    def test_unshifted_lattice_fails_the_cross_check(self, ap_pattern, sqrt_gauge, monkeypatch):
        """Without the half-step pivot shift of the last block, placement and
        residue recovery still agree with each other; only the center
        cross-check sees psi land on whole multiples of 4*peak*delta."""
        real = geometry.block_lattice

        def unshifted(np_, block, side):
            lattice = real(np_, block, side)
            return lattice.replace(shifts=(0,) * len(lattice.shifts))

        monkeypatch.setattr(geometry, "block_lattice", unshifted)
        st = build(init_state(1, [ap_pattern], sqrt_gauge), 7)
        with pytest.raises(GapViolated, match="is not a half-integer multiple"):
            certify_gap(st, st.entries[0], walk_levels(st, 6)[-1])


class TestMeasureCertificate:
    def test_values(self, ap_tree_12):
        cert = certify_measure(ap_tree_12)
        assert cert.c1 == 1 and cert.c2 == 2
        assert cert.c3_upper == 10
        assert cert.lower_bound == F(1, 10)
        assert cert.k0 == 6
        assert [v.level for v in cert.per_level] == list(range(6, 13))
        assert all(v.mass_ok and v.ratio_ok for v in cert.per_level)

    def test_level_seven_inequality_by_hand(self, ap_tree_12):
        # 1/N_7 = 1/64 <= sqrt(1/1152) holds because 64^2 >= 1152.
        v = next(v for v in certify_measure(ap_tree_12).per_level if v.level == 7)
        assert v.count == 64 and v.side == F(1, 1152)
        assert 64**2 >= 1152

    def test_cover_sums_at_least_one(self, ap_tree_12):
        # N_k * h(sqrt(d) * side_k) >= 1 for k >= k0: the greedy cover sum
        # of the actual level never drops below the mass it must carry.
        st = ap_tree_12
        levels = walk_levels(st)
        for k in range(6, 13):
            lo, _ = eval_bounds(st.h, st.side(k), 64)
            assert len(levels[k].lowers) * lo >= 1

    def test_radius_outside_the_gauge_domain_fails_the_mass_bound(self, ap_tree_12):
        # With a gauge certified only below e^-100 (powlog:1/100), h at the
        # level-6 radius 1/576 is not certified: the mass bound fails at k0
        # rather than the OutOfDomain escaping
        capped = ap_tree_12.replace(h=make_dimfn("powlog", F(1, 100), 1))
        with pytest.raises(MeasureViolated) as exc:
            certify_measure(capped)
        assert exc.value.level == 6

    def test_truncated_build_rejected(self, ap_pattern, sqrt_gauge):
        st = build_tree(1, [ap_pattern], sqrt_gauge, 5)  # below M_1 = 6
        with pytest.raises(EntryNotProcessed):
            certify_measure(st)

    def test_d2_constants(self):
        from lacuna.engine import sqrt_d_bounds

        p = make_pattern(2, [[1, 0], [-1, 0], [1, 0], [-1, 0]])
        st = build_tree(2, [p], make_dimfn("pow", F(1, 4), 2), 3)
        cert = certify_measure(st)
        _, hi = sqrt_d_bounds(2)
        assert cert.c2 == 4
        assert cert.c3_upper == 4 * (2 * hi + 3) ** 2
        assert F(135) < cert.c3_upper < F(136)
        assert cert.lower_bound == 1 / cert.c3_upper

    def test_wrong_schedule_detected(self, ap_tree_12, tmp_path, capsys):
        # Pretend the first avoidance level had been 5: level-5 counts stay
        # dyadic (32 cubes) but the side would shrink to 2^-5/9, failing mass.
        broken = ap_tree_12.replace(
            entries=[ap_tree_12.entries[0].replace(m_level=5), ap_tree_12.entries[1]]
        )
        with pytest.raises(MeasureViolated):
            certify_measure(broken)
        # A tree file is rebuilt from its schedule: with M_1 = 5 in the file,
        # level 5 becomes the avoidance level, and the ratio condition fails.
        doc = json.loads(json.dumps(state_to_doc(ap_tree_12)))
        doc["schedule"][0]["M_i"] = 5
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(doc))
        assert main(["certify", str(tree), "--mode", "all"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "MeasureViolated"


class TestCertifyTree:
    @pytest.mark.parametrize("mode", ["all", "gap", "measure"])
    def test_a_recipe_certifies_as_its_built_state(
        self, ap_pattern, sqrt_gauge, ap_tree_12, mode
    ):
        # build_tree makes no level; certify_tree walks them, and certifies
        # as a state whose levels were walked beforehand
        recipe = build_tree(1, [ap_pattern], sqrt_gauge, 12)
        assert len(walk_levels(ap_tree_12)) == 13
        assert certificates_to_doc(*certify_tree(recipe, mode, 5)) == certificates_to_doc(
            *certify_tree(ap_tree_12, mode, 5)
        )

    @pytest.mark.parametrize("mode", ["all", "measure"])
    def test_the_measure_is_settled_before_any_level_is_made(
        self, ap_pattern, sqrt_gauge, monkeypatch, mode
    ):
        # a beta_i of 51 digits shrinks every side past the mass bound; the
        # recipe alone decides it, so no level's numerators that long are made
        recipe = build_tree(1, [ap_pattern], sqrt_gauge, 12)
        first, second = recipe.entries
        recipe = recipe.replace(entries=(first.replace(beta=10**50), second))
        made = []
        monkeypatch.setattr(geometry, "advance", lambda *args: made.append(args))
        with pytest.raises(MeasureViolated, match="^mass/ratio bound fails at level 6$"):
            certify_tree(recipe, mode)
        assert made == []

    def test_spot_checks_run_on_each_entrys_level(
        self, ap_pattern, sqrt_gauge, ap_tree_12, monkeypatch
    ):
        # certify_tree calls the checks through the module's globals, with
        # the level M_i that its walk holds when it reaches the entry
        recipe = build_tree(1, [ap_pattern], sqrt_gauge, 12)
        levels = walk_levels(ap_tree_12)
        seen = []

        def spot(state, entry, level, cert, count):
            seen.append((entry.index, level == levels[entry.m_level], count))

        monkeypatch.setattr(certify, "spot_check_gap", spot)
        certify_tree(recipe, "all", 7)
        assert seen == [(1, True, 7), (2, True, 7)]

    @pytest.mark.parametrize("mode", ["gap", "all"])
    def test_a_placement_failure_is_raised_inside_the_walk(
        self, ap_pattern, sqrt_gauge, mode
    ):
        # beta 2 < compute_beta 9, which every state refuses, so it is set
        # through __dict__, as engine.build extends a state: the lattice
        # cubes of entry 1 escape their parents as level 6 is made
        recipe = build_tree(1, [ap_pattern], sqrt_gauge, 12)
        first, second = recipe.entries
        recipe.__dict__["entries"] = (first.replace(beta=2), second)
        with pytest.raises(PlacementFailure, match="escapes its parent") as raised:
            certify_tree(recipe, mode)
        frames = [frame.f_code.co_name for frame, _ in traceback.walk_tb(raised.tb)]
        assert frames[-3:] == ["walk", "advance", "place_on_lattice"]

    def test_mode_measure_makes_no_level(
        self, ap_pattern, sqrt_gauge, ap_tree_12, monkeypatch
    ):
        # the measure reads only the recipe, so mode measure certifies a
        # recipe as its built state without making a cube
        recipe = build_tree(1, [ap_pattern], sqrt_gauge, 12)
        made = []
        monkeypatch.setattr(geometry, "advance", lambda *args: made.append(args))
        gaps, measure = certify_tree(recipe, "measure")
        assert gaps == [] and made == []
        assert measure == certify_tree(ap_tree_12, "measure")[1]


class TestCoverage:
    def test_cube_faces_are_closed_and_tight(self, ap_tree_12):
        # A placed cube covers its closed faces and nothing beyond them.
        st = ap_tree_12
        entry = st.entries[0]
        side = st.side(entry.m_level)
        blocks = placed_points(st, entry)
        perm = st.normalized[entry.pattern_id].perm
        eps = F(1, 10**9)

        def covered(offset):
            pts = [(blk[0][0] + offset,) for blk in blocks]
            inst = [0] * len(blocks)
            for b in range(len(blocks)):
                inst[perm[b]] = b
            return instance_covered(st, entry, pts, tuple(inst))

        assert covered(F(0)) and covered(side)
        assert not covered(-eps) and not covered(side + eps)


class TestOracle:
    def test_finds_explicit_progression(self, ap_pattern):
        pts = Points(1, 4, [4, 5, 6])  # 1, 5/4, 3/2
        assert brute_oracle(pts, ap_pattern, F(0)) == [(0, 1, 2), (2, 1, 0)]

    def test_tolerance_window(self, ap_pattern):
        pts = exact_points([(F(1),), (F(5, 4),), (F(3, 2) + F(1, 100),)], 1)
        assert brute_oracle(pts, ap_pattern, F(0)) == []
        hits = brute_oracle(pts, ap_pattern, F(1, 100))
        assert (0, 1, 2) in hits

    def test_single_point_empty(self, ap_pattern):
        assert brute_oracle(Points(1, 1, [1]), ap_pattern, F(0)) == []

    def test_duplicate_points_rejected(self, ap_pattern):
        with pytest.raises(ValueError, match="pairwise distinct"):
            Points(1, 1, [1, 1])

    def test_points_of_another_dimension_are_refused(self, ap_pattern):
        with pytest.raises(ValueError, match="points are d=2 but the pattern is d=1"):
            brute_oracle(Points(2, 1, [1, 1, 3, 2, 5, 1]), ap_pattern)

    def test_covered_tuples_clean_depth7(self, ap_tree_7):
        centers = leaf_centers(ap_tree_7)
        assert covered_violations(ap_tree_7, centers) == {}

    def test_covered_product_scan_matches_oracle(self, ap_tree_7):
        # Dual route on a size where the exhaustive oracle is feasible: the
        # covered subset of oracle hits must equal the product-scan hits.
        st = ap_tree_7
        centers = leaf_centers(st)
        entry = st.entries[0]
        oracle_hits = brute_oracle(exact_points(centers, st.d), st.patterns[entry.pattern_id], F(0))
        np_ = st.normalized[entry.pattern_id]
        cache = {}  # placed blocks, made from one walk
        covered = {
            tuple(h[np_.perm[b]] for b in range(np_.m))
            for h in oracle_hits
            if instance_covered(st, entry, centers, h, cache)
        }
        scanned = set(covered_instance_scan(st, centers, entry))
        assert covered == scanned == set()

    def test_covered_scan_clean_depth12(self, ap_tree_12):
        centers = leaf_centers(ap_tree_12)
        for entry in ap_tree_12.entries:
            assert covered_instance_scan(ap_tree_12, centers, entry) == []

    def test_planted_instance_is_caught(self, ap_tree_12, move_cube):
        # Move one placed cube so the three block centers form an exact
        # progression; the oracle must find it and coverage must flag it.
        st = ap_tree_12
        entry = st.entries[0]
        blocks = placed_points(st, entry)
        side = st.side(entry.m_level)
        a = blocks[0][0][0] + side / 2
        b = blocks[1][0][0] + side / 2
        target_center = 2 * b - a  # completes psi = x - 2y + z = 0
        old_lower = blocks[2][0][0]
        level = walk_levels(st, 6)[-1]
        for i, x in enumerate(level.lowers):
            if F(x, level.den) == old_lower:
                broken = move_cube(st, 6, i, [target_center - side / 2])
                break
        else:
            pytest.fail("the placed cube to move is not in level 6")
        pts = [(a,), (b,), (target_center,)]
        hits = brute_oracle(exact_points(pts, 1), st.patterns[0], F(0))
        assert hits
        assert any(
            instance_covered(broken, broken.entries[0], pts, h) for h in hits
        )
        # and the same corruption breaks the gap certificate
        with pytest.raises(GapViolated):
            certify_gap(broken, broken.entries[0], walk_levels(broken, 6)[-1])


@hs.composite
def flat_numerators(draw):
    """(d, flat) for d = 1, 2 or 3: small, also negative, numerators, with
    points that differ from one point on one axis only, then up to d - 1
    numerators that make no whole point."""
    d = draw(hs.integers(1, 3))
    coord = hs.integers(-2, 2)
    base = draw(hs.tuples(*[coord] * d))
    moves = draw(hs.lists(hs.tuples(hs.integers(0, d - 1), coord), max_size=4))
    near = [base[:v] + (x,) + base[v + 1 :] for v, x in moves]
    others = draw(hs.lists(hs.tuples(*[coord] * d), max_size=4))
    points = draw(hs.permutations([base, *near, *others]))
    return d, flatten(points) + draw(hs.lists(coord, max_size=d - 1))


class TestPoints:
    @settings(max_examples=300, deadline=None)
    @given(flat_numerators())
    def test_refuses_what_a_tuple_set_refuses(self, drawn):
        d, flat = drawn
        tuples = corners(flat, d)
        refused = len(flat) % d != 0 or len(set(tuples)) < len(tuples)
        try:
            points = Points(d, 1, flat)
        except ValueError:
            assert refused
        else:
            assert not refused and len(points) == len(tuples)

    def test_len_is_the_number_of_points(self):
        assert len(Points(2, 1, [1, 1, 3, 2, 5, 1])) == 3
        assert len(Points(3, 7, [])) == 0

    def test_a_trailing_numerator_is_refused(self):
        with pytest.raises(ValueError, match="7 numerators are not d=2 per point"):
            Points(2, 1, [1, 1, 3, 2, 5, 1, 7])

    @pytest.mark.parametrize("d, den", [(0, 1), (1, 0), (-1, 1)])
    def test_needs_positive_dimension_and_denominator(self, d, den):
        with pytest.raises(ValueError, match="need d >= 1 and den >= 1"):
            Points(d, den, [])


def fraction_oracle(points, pattern, tolerance):
    """The oracle in plain Fraction arithmetic on the coordinates of a
    Points record: the reference for brute_oracle."""
    coords = corners([F(x, points.den) for x in points.flat], points.d)
    hits = []
    for combo in permutations(range(len(points)), pattern.m):
        val = sum(
            (
                b * coords[i][v]
                for row, i in zip(pattern.coeffs, combo)
                for v, b in enumerate(row)
            ),
            F(0),
        )
        if abs(val) <= tolerance:
            hits.append(combo)
    return hits


@hs.composite
def oracle_inputs(draw, max_m=4):
    d = draw(hs.integers(1, 2))
    m = draw(hs.integers(2, max_m))
    coef = hs.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = draw(hs.lists(hs.lists(coef, min_size=d, max_size=d), min_size=m, max_size=m))
    # a few coordinates on a coarse grid make many partial sums tie
    coord = draw(hs.sampled_from([
        hs.fractions(min_value=1, max_value=2, max_denominator=6),
        hs.sampled_from([F(1), F(5, 4), F(3, 2), F(2)]),
    ]))
    points = draw(hs.lists(hs.tuples(*[coord] * d), max_size=7, unique=True))
    tolerance = draw(hs.one_of(
        hs.just(F(0)),
        hs.fractions(min_value=F(1, 12), max_value=1, max_denominator=12),
    ))
    return make_pattern(d, coeffs), points, tolerance


class TestIntegerOracle:
    @settings(max_examples=120, deadline=None)
    @given(oracle_inputs())
    def test_matches_fraction_reference(self, inputs):
        pattern, points, tolerance = inputs
        pts = exact_points(points, pattern.d)
        assert corners([F(x, pts.den) for x in pts.flat], pattern.d) == points
        assert brute_oracle(pts, pattern, tolerance) == fraction_oracle(pts, pattern, tolerance)

    @settings(max_examples=80, deadline=None)
    @given(oracle_inputs(max_m=3), hs.data())
    def test_from_a_points_file_matches_fraction_reference(
        self, tmp_path_factory, inputs, data
    ):
        # the CLI's path: coordinates spelled reduced or not ("3/2", "6/4",
        # "2/1"), read back as integers over the file's one denominator
        pattern, points, tolerance = inputs

        def spell(x):
            k = data.draw(hs.integers(0, 3))
            return f"{x.numerator * k}/{x.denominator * k}" if k else str(x)

        path = tmp_path_factory.mktemp("oracle-file") / "pts.txt"
        lines = [" ".join(spell(x) for x in point) + "\n" for point in points]
        path.write_text(f"# lacuna-points/1 d={pattern.d}\n" + "".join(lines))
        pts = read_points(path)
        assert pts.d == pattern.d
        assert corners([F(x, pts.den) for x in pts.flat], pts.d) == points
        assert brute_oracle(pts, pattern, tolerance) == fraction_oracle(pts, pattern, tolerance)

    def test_warns_past_the_prefix_count(self, ap_pattern, monkeypatch):
        monkeypatch.setattr(certify, "ORACLE_TUPLE_WARN", 0)
        pts = Points(1, 4, [4, 5, 6])
        with pytest.warns(UserWarning, match="^oracle will walk 6 prefixes$"):
            assert brute_oracle(pts, ap_pattern) == [(0, 1, 2), (2, 1, 0)]

    def test_ap_grid_300(self, ap_pattern, tmp_path):
        # every ordered (i - t, i, i + t); a scan of all perm(300, 3) = 26,730,600
        # ordered triples would take seconds.  The points take the CLI's
        # path: a points file read back as integers over one denominator
        n = 300
        path = tmp_path / "pts.txt"
        path.write_text("# lacuna-points/1 d=1\n" + "".join(f"{n + i}/{n}\n" for i in range(n)))
        pts = read_points(path)
        assert pts == Points(1, n, [n + i for i in range(n)])
        expected = sorted(
            (i - t, i, i + t)
            for i in range(n)
            for t in range(1 - n, n)
            if t and 0 <= i - t < n and 0 <= i + t < n
        )
        start = time.perf_counter()
        hits = brute_oracle(pts, ap_pattern, F(0))
        elapsed = time.perf_counter() - start
        assert len(hits) == 44_700
        assert hits == expected
        assert elapsed < 2


class TestCoveringConstant:
    def test_small_sets_meet_few_cubes(self, ap_tree_12):
        """Any set of diameter below the level-k ladder meets at most
        c2*(2*sqrt(d)+3)^d cubes of level k+1 (the covering-lemma constant)."""
        st = ap_tree_12
        cap = 2 * (2 + 3)  # d = 1
        levels = walk_levels(st)
        rng = random.Random(42)
        for _ in range(200):
            k = rng.randint(6, 11)
            dia = st.side(k + 1) + (st.side(k) - st.side(k + 1)) * F(
                rng.randint(0, 999), 1000
            )
            left = F(1) + F(rng.randint(0, 10**6), 10**6)
            right = left + dia
            level = levels[k + 1]
            side = st.side(k + 1)
            hits = sum(
                1
                for lo in level.lowers
                if F(lo, level.den) <= right and left <= F(lo, level.den) + side
            )
            assert hits <= cap
