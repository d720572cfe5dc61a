"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is pinned: either derived by hand in the module
tests (schedule constants, thresholds, profile formulas) or checked against
an independent route (exhaustive oracle, random point tuples).  Runtime
budgets are asserted, not aspirational.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from lacuna.apps import AppSpec, app_patterns
from lacuna.certify import brute_oracle, certify_gap, certify_measure, spot_check_gap
from lacuna.cli import main as cli_main
from lacuna.dimfn import make_dimfn
from lacuna.engine import build, build_tree, compute_beta, init_state, validate_structure
from lacuna.errors import GapViolated
from lacuna.pattern import make_pattern, normalize
from lacuna.qmath import parse_rational
from lacuna.schedule import compute_levels
from reference import (
    covered_violations,
    instance_covered,
    key_inequality_check,
    leaf_centers,
)

F = Fraction


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_1_key_inequality_exhaustive(self):
        start = time.perf_counter()
        ap = normalize(make_pattern(1, [[1], [-2], [1]]))
        quot = normalize(make_pattern(1, [[2], [-1]]))
        ok = key_inequality_check(ap, 5) and key_inequality_check(quot, 5)
        elapsed = time.perf_counter() - start
        verdict(
            1,
            ok and elapsed < 1.0,
            f"|psi(phi(z))| >= 1/2 on [-5,5]^(m) for AP (11^3 tuples) and "
            f"quotient a=2 (11^2 tuples), zero violations, {elapsed:.2f}s",
        )

    def test_2_schedule_constants(self):
        start = time.perf_counter()
        h = make_dimfn("pow", F(1, 2), 1)
        ap = normalize(make_pattern(1, [[1], [-2], [1]]))
        quot = normalize(make_pattern(1, [[2], [-1]]))
        beta_ap = compute_beta(ap, 1)
        beta_q = compute_beta(quot, 1)
        levels = compute_levels(h, [beta_ap, beta_ap])
        elapsed = time.perf_counter() - start
        ok = beta_ap == 9 and beta_q == 7 and levels == [6, 11]
        verdict(
            2,
            ok and elapsed < 1.0,
            f"beta(AP)={beta_ap} (=9), beta(quotient 2)={beta_q} (=7), "
            f"M_1..M_2={levels} (=[6, 11]), {elapsed:.2f}s",
        )

    def test_3_structure_invariants_depth_12(self):
        start = time.perf_counter()
        h = make_dimfn("pow", F(1, 2), 1)
        st = build(init_state(1, [make_pattern(1, [[1], [-2], [1]])], h), 12)
        betas = st.processed_betas()
        ok = st.m_levels == [6, 11]
        for k in range(13):
            applied = [b for M, b in zip(st.m_levels, betas) if M <= k]
            prod = 1
            for b in applied:
                prod *= b
            ok = ok and st.side(k) == F(1, 2**k * prod)
            ok = ok and len(st.levels[k].lowers) == 2 ** (k - len(applied))
        # nestedness and non-overlap, exact: d = 1, so a cube is one
        # numerator, and a dyadic cube i has parent i >> 1
        for k in range(1, 13):
            level, parent = st.levels[k], st.levels[k - 1]
            side, parent_side = st.side(k), st.side(k - 1)
            shift = 0 if k in st.m_levels else 1
            lowers = [F(x, level.den) for x in level.lowers]
            for i, x in enumerate(lowers):
                p = F(parent.lowers[i >> shift], parent.den)
                ok = ok and p <= x and x + side <= p + parent_side
            ok = ok and all(b - a >= side for a, b in zip(lowers, lowers[1:]))
        elapsed = time.perf_counter() - start
        verdict(
            3,
            ok and elapsed < 10.0,
            f"depth-12 build: side 2^-k/prod(beta) and count 2^(k-#M) at all "
            f"13 levels, nestedness and non-overlap exact, {elapsed:.2f}s",
        )

    def test_4_gap_certificates_twenty_entries(self):
        start = time.perf_counter()
        h2 = make_dimfn("pow", F(1, 2), 1)
        h10 = make_dimfn("pow", F(1, 10), 1)
        builds = [
            build(init_state(1, [make_pattern(1, [[1], [-2], [1]])], h2), 12),
            build(
                init_state(
                    1,
                    [make_pattern(1, [[2], [-1]]), make_pattern(1, [[F(3, 2)], [-1]])],
                    h2,
                ),
                10,
            ),
            build(init_state(1, [make_pattern(1, [[2], [-1]])], h10), 21),
            build(init_state(1, [make_pattern(1, [[3], [-1]])], h10), 21),
        ]
        entries = 0
        ok = True
        ap_threshold_seen = None
        for st in builds:
            for entry in st.entries:
                cert = certify_gap(st, entry)
                ok = ok and cert.gap >= cert.threshold
                ok = ok and cert.threshold == st.normalized[
                    entry.pattern_id
                ].peak * st.side(entry.m_level)
                spot_check_gap(st, entry, cert, count=100)
                entries += 1
                if st is builds[0] and entry.m_level == 6:
                    ap_threshold_seen = cert.threshold
        ok = ok and ap_threshold_seen == F(1, 288) and entries >= 20
        elapsed = time.perf_counter() - start
        verdict(
            4,
            ok and elapsed < 30.0,
            f"{entries} processed entries across 4 builds, every gap >= "
            f"peak*side (AP at M_1=6: threshold exactly 1/288), 100 random "
            f"point tuples per entry respect the gap, {elapsed:.1f}s",
        )

    def test_5_measure_certificate(self):
        start = time.perf_counter()
        h = make_dimfn("pow", F(1, 2), 1)
        st = build_tree(1, [make_pattern(1, [[1], [-2], [1]])], h, 12)
        cert = certify_measure(st)
        ok = (
            cert.k0 == 6
            and [v.level for v in cert.per_level] == list(range(6, 13))
            and all(v.mass_ok and v.ratio_ok for v in cert.per_level)
            and cert.c3_upper == 10
            and cert.lower_bound == F(1, 10)
        )
        elapsed = time.perf_counter() - start
        verdict(
            5,
            ok and elapsed < 5.0,
            f"1/N_k <= h(sqrt(d)*side_k) for k=6..12, H^h lower bound exactly "
            f"1/10 via c3 = c2*(2*sqrt(d)+3)^d, {elapsed:.2f}s",
        )

    def test_6_oracle_equivalence_and_mutation(self, move_cube):
        start = time.perf_counter()
        apps = [
            ("ratios A={2}", AppSpec("ratios", ["2"], "pow:1/2", 7)),
            (
                "quotients A={2,3/2}",
                AppSpec("quotients", ["2", "3/2"], "pow:1/2", 10),
            ),
            ("parallelogram d=2", AppSpec("parallelogram", [], "pow:1/4", 3, d=2)),
            (
                "complex triplet (0,1,2)",
                AppSpec(
                    "complex_triplets",
                    [[["0", "0"], ["1", "0"], ["2", "0"]]],
                    "pow:1/4",
                    3,
                ),
            ),
        ]
        details = []
        ok = True
        ratios_state = None
        for name, spec in apps:
            d, pats = app_patterns(spec)
            h = make_dimfn(spec.h_spec.split(":")[0], parse_rational(spec.h_spec.split(":")[1]), d)
            st = build(init_state(d, pats, h), spec.depth)
            centers = leaf_centers(st)
            bad = covered_violations(st, centers)
            ok = ok and st.entries and bad == {}
            details.append(f"{name}: {len(centers)} pts, covered clean")
            if spec.kind == "ratios":
                ratios_state = st
        # mutation: shove one placed cube off the lattice by side/4
        entry = ratios_state.entries[0]
        shift = ratios_state.side(entry.m_level) / 4
        level = ratios_state.levels[entry.m_level]
        x = F(level.lowers[0], level.den)
        mutated = move_cube(ratios_state, entry.m_level, 0, [x + shift])
        gap_failed = False
        oracle_failed = False
        try:
            certify_gap(mutated, entry)
        except GapViolated:
            gap_failed = True
        if not gap_failed:
            pts = leaf_centers(mutated)
            hits = brute_oracle(pts, mutated.patterns[entry.pattern_id], F(0))
            oracle_failed = any(
                instance_covered(mutated, mutated.entries[0], pts, inst)
                for inst in hits
            )
        ok = ok and (gap_failed or oracle_failed)
        elapsed = time.perf_counter() - start
        verdict(
            6,
            ok and elapsed < 120.0,
            "; ".join(details)
            + f"; mutation breaks {'gap certificate' if gap_failed else 'oracle'}, "
            f"{elapsed:.1f}s",
        )

    def test_7_determinism(self, tmp_path):
        pat = tmp_path / "ap.json"
        pat.write_text(
            json.dumps({"d": 1, "patterns": [{"m": 3, "coeffs": [["1"], ["-2"], ["1"]]}]})
        )
        for name in ("a", "b"):
            assert cli_main([
                "build", str(pat), "--dimfn", "pow:1/2", "--depth", "12",
                "--out", str(tmp_path / f"{name}.tree.json"),
            ]) == 0
            assert cli_main([
                "certify", str(tmp_path / f"{name}.tree.json"), "--mode", "all",
                "--out", str(tmp_path / f"{name}.cert.json"),
            ]) == 0
        trees_equal = (
            (tmp_path / "a.tree.json").read_bytes()
            == (tmp_path / "b.tree.json").read_bytes()
        )
        certs_equal = (
            (tmp_path / "a.cert.json").read_bytes()
            == (tmp_path / "b.cert.json").read_bytes()
        )
        verdict(
            7,
            trees_equal and certs_equal,
            "two independent runs: tree and certificate files byte-identical",
        )

    def test_8_full_dimension_powlog(self):
        start = time.perf_counter()
        h = make_dimfn("powlog", F(1), 1)  # h(x) = -x ln x, full dimension in d=1
        st = build(init_state(1, [make_pattern(1, [[2], [-1]])], h), 18)
        ok = bool(st.m_levels) and st.depth >= st.m_levels[0] == 18
        validate_structure(st)
        cert = certify_gap(st, st.entries[0])
        ok = ok and cert.gap >= cert.threshold
        measure = certify_measure(st)
        ok = ok and all(v.mass_ok and v.ratio_ok for v in measure.per_level)
        elapsed = time.perf_counter() - start
        verdict(
            8,
            ok and elapsed < 60.0,
            f"powlog:1/1 quotient build reaches M_1=18 ({len(st.levels[18].lowers)} "
            f"cubes), gap and all per-level measure checks certified under "
            f"directed rounding, {elapsed:.1f}s",
        )
