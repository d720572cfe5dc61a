from __future__ import annotations

import json
import sys
from fractions import Fraction

import mpmath
import pytest

from lacuna.apps import (
    AppSpec,
    app_patterns,
    app_spec_from_doc,
    parallelogram_patterns,
    plane_patterns,
    quotient_patterns,
    ratio_patterns,
    run_app,
    split_vector_pattern,
    trapezoid_patterns,
)
from lacuna.certify import certify_tree
from lacuna.differences import (
    DifferenceTarget,
    _difference_target,
    difference_report,
    difference_targets,
    exp_bounds,
)
from lacuna.dimfn import make_dimfn
from lacuna.engine import build, init_state, read_tree
from lacuna.errors import (
    AllRowsZero,
    DegenerateTriplet,
    EnclosureTooWide,
    RejectRange,
    RejectUnit,
    UsageError,
    ZeroPattern,
)
from lacuna.qmath import format_rational
from lacuna.triplets import GaussianRational, complex_triplet_patterns
from conftest import walk_levels
from reference import covered_violations, eval_pattern, gaussian_add, gaussian_mul, leaf_centers

F = Fraction
mpmath.mp.dps = 50


def G(re, im=0):
    return GaussianRational(F(re), F(im))


class TestQuotients:
    def test_patterns(self):
        pats = quotient_patterns([F(2)])
        assert pats[0].coeffs == ((F(2),), (F(-1),))
        assert eval_pattern(pats[0], [[F(1)], [F(2)]]) == 0

    def test_unit_rejected(self):
        with pytest.raises(RejectUnit):
            quotient_patterns([F(2), F(1)])

    def test_build_avoids_doublings(self, sqrt_gauge):
        pats = quotient_patterns([F(2), F(3, 2)])
        st = build(init_state(1, pats, sqrt_gauge), 10)
        assert len(st.entries) >= 2
        # both registered patterns get served before depth 10
        assert {e.pattern_id for e in st.entries} == {0, 1}
        centers = leaf_centers(st)
        vals = {c[0] for c in centers}
        assert all(2 * v not in vals for v in vals)
        assert all(F(3, 2) * v not in vals for v in vals)
        assert covered_violations(st, centers) == {}


class TestPlanes:
    def test_ap_plane(self):
        pats = plane_patterns([(1, -2, 1)])
        assert eval_pattern(pats[0], [[F(1)], [F(2)], [F(3)]]) == 0

    def test_zero_plane_rejected(self):
        with pytest.raises(ZeroPattern):
            plane_patterns([(0, 0, 0)])


class TestRatios:
    def test_two_is_the_ap_pattern(self):
        pats = ratio_patterns([F(2)])
        assert pats[0].coeffs == ((F(1),), (F(-2),), (F(1),))

    def test_range_guard(self):
        with pytest.raises(RejectRange):
            ratio_patterns([F(1)])
        with pytest.raises(RejectRange):
            ratio_patterns([F(1, 2)])

    def test_ratio_three_positive_instance(self):
        # (z-x)/(z-y) = 3 at x=1, y=2, z=5/2: (5/2-1)/(5/2-2) = 3.
        pats = ratio_patterns([F(3)])
        assert eval_pattern(pats[0], [[F(1)], [F(2)], [F(5, 2)]]) == 0

    def test_ratio_three_build_covered_clean(self, sqrt_gauge):
        pats = ratio_patterns([F(3)])
        st = build(init_state(1, pats, sqrt_gauge), 6)
        assert st.entries  # M_1 = 6 for beta = 13
        assert covered_violations(st, leaf_centers(st)) == {}


class TestVectorSplit:
    def test_parallelogram_rows(self):
        pats = parallelogram_patterns(2)
        assert len(pats) == 2
        verts = [(F(0), F(0)), (F(2), F(1)), (F(3), F(4)), (F(1), F(3))]
        for p in pats:
            assert eval_pattern(p, verts) == 0

    def test_zero_rows_dropped(self):
        pats = split_vector_pattern(1, 2, [[0, 0], [2, -1]])
        assert len(pats) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(AllRowsZero):
            split_vector_pattern(1, 2, [[0, 0], [0, 0]])

    def test_trapezoid_proportion(self):
        pats = trapezoid_patterns(2, [F(2)])
        quad = [(F(5), F(0)), (F(1), F(0)), (F(3), F(2)), (F(1), F(2))]
        for p in pats:
            assert eval_pattern(p, quad) == 0
        with pytest.raises(RejectRange):
            trapezoid_patterns(2, [F(0)])


class TestComplexTriplets:
    def test_real_triplet_becomes_planar_ap(self):
        pats = complex_triplet_patterns([[G(0), G(1), G(2)]])
        assert [p.coeffs for p in pats] == [
            ((F(1), F(0)), (F(-2), F(0)), (F(1), F(0))),
            ((F(0), F(1)), (F(0), F(-2)), (F(0), F(1))),
        ]

    def test_gaussian_triplet_vanishes_on_itself(self):
        pats = complex_triplet_patterns([[G(0), G(1), G(1, 1)]])
        tri = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1))]
        for p in pats:
            assert eval_pattern(p, tri) == 0

    def test_similar_copy_vanishes(self):
        pats = complex_triplet_patterns([[G(0), G(1), G(1, 1)]])
        a, b = G(2, 1), G(5, -3)
        copy = [gaussian_add(gaussian_mul(a, z), b) for z in (G(0), G(1), G(1, 1))]
        pts = [(w.re, w.im) for w in copy]
        for p in pats:
            assert eval_pattern(p, pts) == 0

    def test_identification_commutes(self):
        # The split patterns evaluate to the real/imaginary parts of the
        # complex form, on 100 random Gaussian-rational inputs.
        import random

        trip = [G(0), G(1), G(1, 1)]
        pats = complex_triplet_patterns([trip])
        alpha = (trip[2] - trip[0]) / (trip[2] - trip[1])
        coeffs = [G(1), G(0) - alpha, alpha - G(1)]
        rng = random.Random(11)

        def rand_g():
            return G(
                F(rng.randint(-40, 40), rng.randint(1, 9)),
                F(rng.randint(-40, 40), rng.randint(1, 9)),
            )

        for _ in range(100):
            zs = [rand_g() for _ in range(3)]
            complex_val = G(0)
            for c, z in zip(coeffs, zs):
                complex_val = gaussian_add(complex_val, gaussian_mul(c, z))
            pts = [(z.re, z.im) for z in zs]
            assert eval_pattern(pats[0], pts) == complex_val.re
            assert eval_pattern(pats[1], pts) == complex_val.im

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriplet):
            complex_triplet_patterns([[G(0), G(0), G(1)]])


def difference_app(targets, h, depth, precision=64):
    """A difference app as run_app takes it: the quotient targets, one
    build, the gap certificates, then report.json's document."""
    params = [{"kind": t.kind, "value": format_rational(t.value)} for t in targets]
    targets, mids = difference_targets(params, precision)
    state = build(init_state(1, quotient_patterns(mids), h), depth)
    gaps, _ = certify_tree(state, "gap")
    return state, difference_report(targets, mids, state, gaps, precision)


def rational(text):
    """A "p/q" string of a document as a Fraction; None stays None."""
    return None if text is None else F(text)


class TestDifferences:
    def test_exact_log_target(self, sqrt_gauge):
        state, rep = difference_app(
            [DifferenceTarget("log_of", F(2))], sqrt_gauge, depth=5
        )
        t = rep["targets"][0]
        gap, margin = rational(t["gap"]), rational(t["difference_margin"])
        assert rational(t["quotient_mid"]) == 2
        assert t["enclosure"] is None  # exact path
        assert gap is not None and margin == gap / 4
        assert tuple(map(rational, rep["bilipschitz"])) == (F(1, 2), F(1))

    def test_irrational_target_margin(self, sqrt_gauge):
        state, rep = difference_app(
            [DifferenceTarget("rational", F(1, 2))], sqrt_gauge, depth=5
        )
        t = rep["targets"][0]
        lo, hi = map(rational, t["enclosure"])
        mid = rational(t["quotient_mid"])
        true = mpmath.e ** mpmath.mpf(0.5)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= true
        assert true <= mpmath.mpf(hi.numerator) / hi.denominator
        assert rational(t["difference_margin"]) > 0
        assert 2 * max(abs(mid - lo), abs(hi - mid)) < rational(t["gap"])

    def test_margin_transfers_to_log_points(self, sqrt_gauge):
        # ln-enclosures of certified pairs stay margin-away from ln 2.
        state, rep = difference_app(
            [DifferenceTarget("log_of", F(2))], sqrt_gauge, depth=5
        )
        t = rep["targets"][0]
        ln2 = mpmath.log(2)
        difference_margin = rational(t["difference_margin"])
        margin = mpmath.mpf(difference_margin.numerator) / difference_margin.denominator
        from lacuna.certify import placed_blocks

        entry = state.entries[0]
        level = walk_levels(state, entry.m_level)[-1]
        blocks = placed_blocks(state, entry, level)
        den = level.den
        side = state.side(entry.m_level)
        xs = [F(blk[0], den) + side / 2 for blk in blocks]
        diff = mpmath.log(mpmath.mpf(xs[1].numerator) / xs[1].denominator) - mpmath.log(
            mpmath.mpf(xs[0].numerator) / xs[0].denominator
        )
        assert abs(diff - ln2) >= margin

    def test_zero_target_rejected(self, sqrt_gauge):
        with pytest.raises(RejectUnit):
            difference_app([DifferenceTarget("rational", F(0))], sqrt_gauge, 5)
        with pytest.raises(RejectUnit):
            difference_app([DifferenceTarget("log_of", F(1))], sqrt_gauge, 5)

    def test_enclosure_too_wide_contract(self, sqrt_gauge, monkeypatch):
        # An enclosure that never shrinks below the gap must be reported,
        # not silently accepted.
        import lacuna.differences as differences_mod

        def stuck_bounds(x, precision):
            return F(3, 2), F(9, 5)

        monkeypatch.setattr(differences_mod, "exp_bounds", stuck_bounds)
        with pytest.raises(EnclosureTooWide):
            difference_app(
                [DifferenceTarget("rational", F(1, 2))], sqrt_gauge, depth=5
            )

    def test_dense_prefix_gets_holes(self):
        # Four forbidden differences served by depth 9 under a small gauge:
        # every target ends up with a positive certified margin, so the
        # difference set of the log image has a hole around each.
        h = make_dimfn("pow", F(1, 10), 1)
        targets = [
            DifferenceTarget("rational", F(1, 2)),
            DifferenceTarget("rational", F(-1, 2)),
            DifferenceTarget("rational", F(1, 3)),
            DifferenceTarget("log_of", F(2)),
        ]
        state, rep = difference_app(targets, h, depth=9)
        assert {e.pattern_id for e in state.entries} == {0, 1, 2, 3}
        assert all(
            t["difference_margin"] and rational(t["difference_margin"]) > 0
            for t in rep["targets"]
        )


class _Stop(Exception):
    pass


class TestPrecisionBound:
    """A rational target's precision is refused before exp_bounds runs once
    its enclosure could not be written: the endpoint denominators of an
    enclosure of width 2**-precision multiply to at least 2**precision, so
    at the default digit limit of 4,300 one of them has more digits from
    precision 28,570 (28,570 / 2 > 4,300 * log2(10)).  A log_of target
    takes no bound: its quotient target is exact."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        """run(kind, value, precision) -> (the precisions exp_bounds was
        called with, what run_app raised or None, whether out-dir exists)
        for a depth-5 difference app at the default digit limit.  exp_bounds
        stops the run at its first call, so no enclosure is made."""
        import lacuna.differences as differences_mod

        calls = []

        def stop(x, precision):
            calls.append(precision)
            raise _Stop

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        monkeypatch.setattr(differences_mod, "exp_bounds", stop)

        def run(kind, value, precision):
            calls.clear()
            out = tmp_path / f"{kind}-{precision}"
            params = [{"kind": kind, "value": value}]
            spec = AppSpec("differences", params, "pow:1/2", 5, 1, precision)
            try:
                run_app(spec, out)
                error = None
            except (_Stop, UsageError) as exc:
                error = exc
            return calls[:], error, out.exists()

        return run

    def test_rational_below_the_bound_runs(self, run):
        calls, error, made = run("rational", "1", 28_569)
        assert calls == [28_569] and isinstance(error, _Stop) and not made

    @pytest.mark.parametrize("precision", [28_570, 1_000_000])
    def test_rational_past_the_bound_is_refused_first(self, run, precision):
        calls, error, made = run("rational", "1", precision)
        assert calls == [] and not made and type(error) is UsageError
        assert str(error) == (
            f"precision {precision}: an enclosure of e^1 that narrow has more "
            "digits than the interpreter writes (4300)"
        )

    @pytest.mark.parametrize("precision", [28_569, 28_570, 100_000])
    def test_log_of_takes_no_bound(self, run, precision):
        assert run("log_of", "2", precision) == ([], None, True)

    # The midpoint of e^t, always written, has a numerator of at least
    # e^t - 1/2: from t * 4342944 >= 4301 * 10**7 (4342944 < 10**7 * log10(e))
    # it has more than 4,300 digits, and the target is refused first.
    BOUND = F(4301 * 10**7, 4342944)

    @pytest.mark.parametrize("t", [BOUND - F(1, 4342944), F(9903), F(-100_000)],
                             ids=["just-below", "9903", "negative"])
    def test_target_below_the_digit_bound_runs(self, run, t):
        calls, error, made = run("rational", format_rational(t), 64)
        assert calls == [64] and isinstance(error, _Stop) and not made

    @pytest.mark.parametrize("t", [BOUND, F(9904), F(1_000_000)],
                             ids=["at-the-bound", "9904", "1000000"])
    def test_target_past_the_digit_bound_is_refused_first(self, run, t):
        text = format_rational(t)
        calls, error, made = run("rational", text, 64)
        assert calls == [] and not made and type(error) is UsageError
        assert str(error) == (
            f"difference target {text}: e^{text} has more digits than the "
            "interpreter writes (4300)"
        )

    def test_no_digit_limit_refuses_nothing(self, run, monkeypatch):
        """PYTHONINTMAXSTRDIGITS=0 lifts the limit: sys.get_int_max_str_digits()
        reads 0, and neither bound refuses."""
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        calls, error, made = run("rational", "1000000", 1_000_000)
        assert calls == [1_000_000] and isinstance(error, _Stop) and not made

    def test_negative_target_with_an_unwritable_midpoint_is_refused(
        self, tmp_path, monkeypatch
    ):
        """t = -20,000: the enclosure's upper end is below 10^-4300, so the
        midpoint p/q <= hi (p >= 1) has q >= 10^4300, which the tree and
        report.json would write.  Refused after exp_bounds, before the build."""
        from lacuna import engine

        built = []
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        monkeypatch.setattr(engine, "build_tree", lambda *args: built.append(args))
        params = [{"kind": "rational", "value": "-20000"}]
        with pytest.raises(UsageError) as raised:
            run_app(AppSpec("differences", params, "pow:1/10", 4, 1), tmp_path / "out")
        assert type(raised.value) is UsageError
        assert str(raised.value) == (
            "difference target -20000: the midpoint of an enclosure of e^-20000 has "
            "more digits than the interpreter writes (4300)"
        )
        assert built == [] and not (tmp_path / "out").exists()

    def test_negative_target_5000_is_refused_at_the_write(self, tmp_path):
        """Below the new bound, as before: the midpoint's denominator has
        more digits than the interpreter writes, refused as it is rendered."""
        params = [{"kind": "rational", "value": "-5000"}]
        with pytest.raises(UsageError) as raised:
            run_app(AppSpec("differences", params, "pow:1/10", 4, 1), tmp_path / "out")
        assert str(raised.value).startswith("rational too large to write: ")
        assert not (tmp_path / "out").exists()

    def test_no_digit_limit_makes_the_negative_midpoint(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        target = DifferenceTarget("rational", F(-20_000))
        lo, hi = exp_bounds(F(-20_000), 64)
        assert _difference_target(target, 64) == (lo + hi) / 2
        assert hi.numerator * 10**4300 <= hi.denominator

    def test_target_minus_3000_keeps_its_bytes(self, tmp_path):
        """Digests of the run before the negative-target bound was added."""
        import hashlib

        params = [{"kind": "rational", "value": "-3000"}]
        run_app(AppSpec("differences", params, "pow:1/10", 4, 1), tmp_path)
        assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("tree.json", "cert.json", "report.json")} == {
            "tree.json": "9afc4adaa9d3a41bcfbc9dd527fe7a22583fcf96e32a63b74110be4c8aca3782",
            "cert.json": "3caad7060c8baddb510cb02e29a5e4a72186d5a65cadfeb8ff98e7e441001006",
            "report.json": "bac492dad79fbac9764746e005495d1948691ecb5bac162c0834d2a80219e2d3",
        }

    def test_target_3000_keeps_its_bytes(self, tmp_path):
        """Digests of the run before the target bound was added."""
        import hashlib

        params = [{"kind": "rational", "value": "3000"}]
        run_app(AppSpec("differences", params, "pow:1/10", 4, 1), tmp_path)
        assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("tree.json", "cert.json", "report.json")} == {
            "tree.json": "a7441d65609888d418d9efa81b16660ecc400cfe47cd199a5eb0fc44fb00c83a",
            "cert.json": "3caad7060c8baddb510cb02e29a5e4a72186d5a65cadfeb8ff98e7e441001006",
            "report.json": "7a0153c894c5b4278a7ade3c624a645f5fec0365c0fb69361456fff6a32da175",
        }


class TestAppRunner:
    def test_spec_parsing(self):
        spec = app_spec_from_doc(
            {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 7}
        )
        d, pats = app_patterns(spec)
        assert d == 1 and len(pats) == 1

    def test_run_ratios_app(self, tmp_path):
        spec = AppSpec(kind="ratios", params=["2"], h_spec="pow:1/2", depth=7)
        summary = run_app(spec, tmp_path)
        assert summary["entries"] == 1
        assert summary["measure_lower_bound"] == "1/10"
        assert (tmp_path / "tree.json").exists()
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["gaps"][0]["threshold"] == "1/288"
        assert cert["measure"]["lower_bound"] == "1/10"

    def test_run_differences_app(self, tmp_path):
        spec = AppSpec(
            kind="differences",
            params=[{"kind": "log_of", "value": "2"}],
            h_spec="pow:1/2",
            depth=5,
        )
        summary = run_app(spec, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["targets"][0]["target"] == "ln(2)"
        assert report["targets"][0]["difference_margin"] is not None
        assert len(report["points_ln"]) == summary["entries"] * 0 + len(
            walk_levels(read_tree(tmp_path / "tree.json"), 5)[-1].lowers
        )

    def test_parallelogram_app(self, tmp_path):
        spec = AppSpec(
            kind="parallelogram", params=[], h_spec="pow:1/4", depth=3, d=2
        )
        summary = run_app(spec, tmp_path)
        assert summary["d"] == 2 and summary["entries"] == 1

    def test_trapezoids_app(self, tmp_path):
        spec = AppSpec(
            kind="trapezoids", params=["2"], h_spec="pow:1/4", depth=3, d=2
        )
        summary = run_app(spec, tmp_path)
        assert summary["patterns"] == 2 and summary["entries"] >= 1

    def test_planes_app(self, tmp_path):
        spec = AppSpec(
            kind="planes", params=[["1", "-3", "2"]], h_spec="pow:1/2", depth=7
        )
        summary = run_app(spec, tmp_path)
        assert summary["entries"] >= 1
        assert summary["measure_lower_bound"] == "1/10"

    def test_vector_split_app(self, tmp_path):
        spec = AppSpec(
            kind="vector_split",
            params={"m": 2, "d": 1, "rows": [["0", "0"], ["2", "-1"]]},
            h_spec="pow:1/2",
            depth=5,
        )
        summary = run_app(spec, tmp_path)
        assert summary["patterns"] == 1 and summary["entries"] == 1

    def test_complex_triplets_app(self, tmp_path):
        spec = AppSpec(
            kind="complex_triplets",
            params=[[["0", "0"], ["1", "0"], ["2", "0"]]],
            h_spec="pow:1/4",
            depth=3,
        )
        summary = run_app(spec, tmp_path)
        assert summary["d"] == 2 and summary["patterns"] == 2

    def test_app_below_first_avoidance_level(self, tmp_path):
        # Nothing processed: no gaps, no measure, still a valid artifact.
        spec = AppSpec(kind="ratios", params=["2"], h_spec="pow:1/2", depth=3)
        summary = run_app(spec, tmp_path)
        assert summary["entries"] == 0
        assert summary["measure_lower_bound"] is None
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["gaps"] == [] and cert["measure"] is None

    def test_powlog_below_full_dimension_pipeline(self, tmp_path):
        # Mixed gauge path: -x^(1/2) ln x in d=1 certifies end to end.
        spec = AppSpec(kind="quotients", params=["2"], h_spec="powlog:1/2", depth=7)
        summary = run_app(spec, tmp_path)
        assert summary["entries"] >= 1
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert all(v["mass_ok"] and v["ratio_ok"] for v in cert["measure"]["per_level"])
