from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import lacuna
from lacuna.cli import main
from lacuna.engine import build_tree, read_tree, state_to_doc
from lacuna.errors import FormatError
from lacuna.export import read_points

from treedoc import set_lower

F = Fraction

AP_DOC = {"d": 1, "patterns": [{"m": 3, "coeffs": [["1"], ["-2"], ["1"]]}]}
Q_DOC = {"d": 1, "patterns": [{"m": 2, "coeffs": [["2"], ["-1"]]}]}
P2_DOC = {
    "d": 2,
    "patterns": [{"m": 4, "coeffs": [["1", "0"], ["-1", "0"], ["1", "0"], ["-1", "0"]]}],
}


@pytest.fixture
def ap_file(tmp_path):
    p = tmp_path / "ap.json"
    p.write_text(json.dumps(AP_DOC))
    return str(p)


@pytest.fixture
def q_file(tmp_path):
    p = tmp_path / "q.json"
    p.write_text(json.dumps(Q_DOC))
    return str(p)


def build_args(ap_file, tmp_path, depth=7, out="tree.json", dimfn="pow:1/2"):
    return [
        "build", ap_file, "--dimfn", dimfn, "--depth", str(depth),
        "--out", str(tmp_path / out),
    ]


class TestBuild:
    def test_depth_seven(self, ap_file, tmp_path, capsys):
        assert main(build_args(ap_file, tmp_path)) == 0
        st = read_tree(tmp_path / "tree.json")
        assert len(st.levels[7].lowers) == 64

    def test_depth_zero(self, ap_file, tmp_path):
        assert main(build_args(ap_file, tmp_path, depth=0)) == 0
        st = read_tree(tmp_path / "tree.json")
        assert st.depth == 0

    def test_not_dominated_gauge_is_config_error(self, ap_file, tmp_path, capsys):
        code = main(build_args(ap_file, tmp_path, dimfn="pow:1/1"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "RejectNotDominated"

    def test_depth_over_cap_is_config_error(self, ap_file, tmp_path, capsys):
        assert main(build_args(ap_file, tmp_path, depth=7) + ["--level-cap", "5"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ScheduleOverflow"

    def test_schedule_log(self, ap_file, tmp_path):
        args = build_args(ap_file, tmp_path) + [
            "--schedule-log", str(tmp_path / "log.jsonl")
        ]
        assert main(args) == 0
        recs = [json.loads(x) for x in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert recs[0]["M_i"] == 6


class TestCertify:
    def test_all_modes_pass(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path, depth=12))
        tree = str(tmp_path / "tree.json")
        for mode in ("gap", "measure", "all"):
            assert main(["certify", tree, "--mode", mode]) == 0

    def test_cert_file_content(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path, depth=12))
        cert = str(tmp_path / "cert.json")
        assert main([
            "certify", str(tmp_path / "tree.json"), "--mode", "all",
            "--out", cert, "--spot-checks", "25",
        ]) == 0
        doc = json.loads((tmp_path / "cert.json").read_text())
        assert doc["gaps"][0]["threshold"] == "1/288"
        assert doc["measure"]["lower_bound"] == "1/10"
        assert doc["measure"]["c3_upper"] == "10"

    def test_truncated_tree_fails_measure(self, ap_file, tmp_path, capsys):
        main(build_args(ap_file, tmp_path, depth=5))
        code = main(["certify", str(tmp_path / "tree.json"), "--mode", "measure"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "EntryNotProcessed"

    def test_corrupted_coordinate_fails(self, ap_file, tmp_path, capsys):
        main(build_args(ap_file, tmp_path, depth=12))
        tree = tmp_path / "tree.json"
        doc = json.loads(tree.read_text())
        set_lower(doc, 6, 0, [F(5039, 5040)])
        tree.write_text(json.dumps(doc))
        code = main(["certify", str(tree), "--mode", "all"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] in ("GapViolated", "StructureViolation")


def _float_lower(doc):
    doc["levels"][6]["lowers"][0] = 1.0078125


def _bool_lower(doc):
    doc["levels"][6]["lowers"][0] = True


def _zero_den(doc):
    doc["levels"][6]["den"] = 0


def _pattern_id_out_of_range(doc):
    doc["schedule"][0]["pattern_id"] = 5


def _tuple_level_at_m(doc):
    doc["schedule"][0]["level"] = doc["schedule"][0]["M_i"]


def _negative_depth(doc):
    doc["depth"] = -1


def _beta_below_compute_beta(doc):
    doc["schedule"][0]["beta_i"] = 8


def _levels_too_close(doc):
    doc["schedule"][1]["M_i"] = doc["schedule"][0]["M_i"] + 1


def _infinite_arity(doc):
    doc["patterns"][0]["m"] = float("inf")


def _cubes_swapped(doc):
    lowers = doc["levels"][7]["lowers"]
    lowers[0], lowers[1] = lowers[1], lowers[0]


def _tree_v1(doc):
    """The same d=1 tree in the lacuna-tree/1 layout."""
    schedule = doc["schedule"]
    doc["format"] = "lacuna-tree/1"
    doc["betas"] = [e["beta_i"] for e in schedule]
    doc["levels_M"] = [e["M_i"] for e in schedule]
    doc["cubes"] = {}
    for k, lvl in enumerate(doc.pop("levels")):
        ndigits = k - sum(1 for e in schedule if e["M_i"] <= k)
        doc["cubes"][str(k)] = [
            {"addr": format(i, "b").zfill(ndigits) if ndigits else "",
             "lower": [str(F(x, lvl["den"]))]}
            for i, x in enumerate(lvl["lowers"])
        ]


class TestTamperedTree:
    @pytest.mark.parametrize(
        "mutate, error",
        [
            (_float_lower, "FormatError"),
            (_bool_lower, "FormatError"),
            (_zero_den, "FormatError"),
            (_tree_v1, "FormatError"),
            (_pattern_id_out_of_range, "FormatError"),
            (_tuple_level_at_m, "FormatError"),
            (_negative_depth, "FormatError"),
            (_beta_below_compute_beta, "FormatError"),
            (_levels_too_close, "FormatError"),
            (_infinite_arity, "FormatError"),
            (_cubes_swapped, "StructureViolation"),
        ],
        ids=lambda v: v.__name__.strip("_") if callable(v) else v,
    )
    def test_exits_with_envelope(self, ap_file, tmp_path, capsys, mutate, error):
        assert main(build_args(ap_file, tmp_path, depth=12)) == 0
        tree = tmp_path / "tree.json"
        doc = json.loads(tree.read_text())
        mutate(doc)
        tree.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["certify", str(tree), "--mode", "all"])
        err = capsys.readouterr().err
        assert code == (2 if error == "FormatError" else 1)
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == error

    def test_lowers_not_a_multiple_of_d(self, tmp_path, capsys):
        pat = tmp_path / "p2.json"
        pat.write_text(json.dumps(P2_DOC))
        tree = tmp_path / "t2.json"
        assert main([
            "build", str(pat), "--dimfn", "pow:1/4", "--depth", "3", "--out", str(tree)
        ]) == 0
        doc = json.loads(tree.read_text())
        doc["levels"][3]["lowers"].pop()
        tree.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["certify", str(tree)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "FormatError"

    def test_truncated_file(self, ap_file, tmp_path, capsys):
        assert main(build_args(ap_file, tmp_path, depth=7)) == 0
        tree = tmp_path / "tree.json"
        tree.write_text(tree.read_text()[:100])
        capsys.readouterr()
        assert main(["certify", str(tree)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "FormatError"


def _bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "patterns": [')
    return str(bad)


def _points_file(tmp_path, header, body=b"1\n"):
    pts = tmp_path / "pts.txt"
    pts.write_bytes(f"# lacuna-points/1 {header}\n".encode() + body)
    return str(pts)


def _pattern_file(tmp_path, **fields):
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps({**AP_DOC, **fields}))
    return str(pat)


def _build_argv(pattern_file, tmp_path):
    return ["build", pattern_file, "--dimfn", "pow:1/2", "--depth", "3",
            "--out", str(tmp_path / "tree.json")]


def _spec_file(tmp_path, **fields):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 3, **fields}
    ))
    return str(spec)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            lambda t, ap: ["build", _bad_json(t), "--dimfn", "pow:1/2", "--depth", "3",
                           "--out", str(t / "tree.json")],
            lambda t, ap: ["app", _bad_json(t), "--out-dir", str(t / "o")],
            lambda t, ap: ["oracle", _points_file(t, "d=1"), "--patterns", _bad_json(t)],
            lambda t, ap: ["oracle", _points_file(t, "d=x"), "--patterns", ap],
            lambda t, ap: ["oracle", _points_file(t, "d=1", b"\xff\n"), "--patterns", ap],
            lambda t, ap: ["app", _spec_file(t, depth=float("inf")), "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, depth=7.9), "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, kind="vector_split", params={
                "d": 1, "m": 2.0, "rows": [["2", "-1"]]}), "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, kind="vector_split", params={
                "d": 1, "rows": [["2", "-1"]]}), "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, kind="vector_split", params=["2"]),
                           "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, params=5), "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, kind="differences", params=5),
                           "--out-dir", str(t / "o")],
            lambda t, ap: ["app", _spec_file(t, kind="planes", params=[5]),
                           "--out-dir", str(t / "o")],
            lambda t, ap: _build_argv(_pattern_file(t, d="1"), t),
            lambda t, ap: _build_argv(_pattern_file(t, patterns=[
                {"m": 3.0, "coeffs": [["1"], ["-2"], ["1"]]}]), t),
        ],
        ids=["build-bad-json", "app-bad-json", "oracle-bad-patterns",
             "oracle-header-d-x", "oracle-not-utf8", "app-infinite-depth",
             "app-float-depth", "app-vector-split-float-m", "app-vector-split-no-m",
             "app-vector-split-list", "app-ratios-int-params", "app-differences-int-params",
             "app-planes-int-row", "build-string-d",
             "build-float-m"],
    )
    def test_format_error_envelope(self, ap_file, tmp_path, capsys, argv):
        code = main(argv(tmp_path, ap_file))
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "FormatError"


@pytest.fixture(scope="module")
def ap_doc_8(ap_pattern, sqrt_gauge):
    return json.loads(json.dumps(state_to_doc(build_tree(1, [ap_pattern], sqrt_gauge, 8))))


def _json_paths(node, path=()):
    """Every (path, node) pair of a JSON document, containers included."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_paths(child, path + (i,))


_JSON_VALUES = hs.one_of(
    hs.integers(min_value=-(10**6), max_value=10**6),
    hs.floats(),
    hs.text(max_size=6),
    hs.none(),
    hs.lists(hs.integers(min_value=-3, max_value=3), max_size=3),
    hs.dictionaries(hs.text(max_size=3), hs.integers(), max_size=2),
)


class TestCertifyFuzz:
    """certify is a trust boundary: a mutated tree never ends in a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(data=hs.data())
    def test_mutated_tree(self, ap_doc_8, tmp_path_factory, data):
        doc = json.loads(json.dumps(ap_doc_8))
        nodes = list(_json_paths(doc))
        leaves = [p for p, n in nodes if p and not isinstance(n, (dict, list))]
        lists = [p for p, n in nodes if isinstance(n, list) and n]
        dicts = [p for p, n in nodes if isinstance(n, dict) and n]
        kind = data.draw(hs.sampled_from(["replace", "delete", "truncate"]))
        path = data.draw(hs.sampled_from({"replace": leaves, "delete": dicts,
                                          "truncate": lists}[kind]))
        parent = doc
        for key in path[:-1] if kind == "replace" else path:
            parent = parent[key]
        if kind == "replace":
            parent[path[-1]] = data.draw(_JSON_VALUES)
        elif kind == "delete":
            del parent[data.draw(hs.sampled_from(sorted(parent)))]
        else:
            del parent[data.draw(hs.integers(0, len(parent) - 1)):]
        tree = tmp_path_factory.mktemp("fuzz") / "tree.json"
        tree.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["certify", str(tree), "--mode", "all"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert "error" in json.loads(err.getvalue())


class TestExport:
    def test_points_roundtrip(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path))
        pts = str(tmp_path / "pts.txt")
        assert main(["export", str(tmp_path / "tree.json"), "--format", "points", "--out", pts]) == 0
        d, points = read_points(pts)
        st = read_tree(tmp_path / "tree.json")
        assert d == 1 and points == st.leaf_centers()

    def test_points_header_needs_positive_d(self, tmp_path):
        with pytest.raises(FormatError):
            read_points(_points_file(tmp_path, "d=0", b""))

    def test_csv_row_count(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path))
        csv = tmp_path / "pts.csv"
        assert main([
            "export", str(tmp_path / "tree.json"), "--format", "csv",
            "--out", str(csv), "--decimals", "8",
        ]) == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "x0" and len(rows) == 65

    def test_svg_rect_count_matches_levels(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path, depth=5))
        svg = tmp_path / "tree.svg"
        assert main([
            "export", str(tmp_path / "tree.json"), "--format", "svg", "--out", str(svg)
        ]) == 0
        text = svg.read_text()
        assert text.count("<rect") == 1 + 2 + 4 + 8 + 16 + 32

    def test_svg_d2_rect_count(self, tmp_path):
        pat = tmp_path / "p2.json"
        pat.write_text(json.dumps(P2_DOC))
        assert main([
            "build", str(pat), "--dimfn", "pow:1/4", "--depth", "3",
            "--out", str(tmp_path / "t2.json"),
        ]) == 0
        svg = tmp_path / "t2.svg"
        assert main([
            "export", str(tmp_path / "t2.json"), "--format", "svg", "--out", str(svg)
        ]) == 0
        assert svg.read_text().count("<rect") == 1 + 4 + 16 + 16

    def test_svg_dimension_guard(self, tmp_path, capsys):
        doc = {
            "d": 3,
            "patterns": [{"m": 2, "coeffs": [["1", "0", "0"], ["-2", "0", "0"]]}],
        }
        pat = tmp_path / "p3.json"
        pat.write_text(json.dumps(doc))
        assert main([
            "build", str(pat), "--dimfn", "pow:1/2", "--depth", "1",
            "--out", str(tmp_path / "t3.json"),
        ]) == 0
        code = main([
            "export", str(tmp_path / "t3.json"), "--format", "svg",
            "--out", str(tmp_path / "t3.svg"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "UnsupportedDimension"


class TestOracleCommand:
    def test_finds_known_progression(self, ap_file, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("# lacuna-points/1 d=1\n1\n5/4\n3/2\n")
        code = main([
            "oracle", str(pts), "--patterns", ap_file, "--tol", "0",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["runs"][0]["instances"] == [[0, 1, 2], [2, 1, 0]]

    def test_clean_quotient_build_exits_zero(self, q_file, tmp_path):
        assert main([
            "build", q_file, "--dimfn", "pow:1/2", "--depth", "10",
            "--out", str(tmp_path / "qt.json"),
        ]) == 0
        pts = str(tmp_path / "qpts.txt")
        main(["export", str(tmp_path / "qt.json"), "--format", "points", "--out", pts])
        assert main(["oracle", pts, "--patterns", q_file, "--tol", "0"]) == 0


class TestAppCommand:
    def test_ratios_app(self, tmp_path):
        spec = tmp_path / "app.json"
        spec.write_text(json.dumps(
            {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 7}
        ))
        out = tmp_path / "out"
        assert main(["app", str(spec), "--out-dir", str(out)]) == 0
        assert (out / "tree.json").exists() and (out / "cert.json").exists()

    def test_unknown_kind_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "app.json"
        spec.write_text(json.dumps(
            {"kind": "frobnicate", "params": [], "h": "pow:1/2", "depth": 3}
        ))
        assert main(["app", str(spec), "--out-dir", str(tmp_path / "o")]) == 2

    def test_level_cap_override(self, tmp_path, capsys):
        spec = tmp_path / "app.json"
        spec.write_text(json.dumps(
            {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 7}
        ))
        code = main([
            "app", str(spec), "--out-dir", str(tmp_path / "o"), "--level-cap", "4"
        ])
        assert code == 2  # depth 7 cannot fit under a cap of 4
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ScheduleOverflow"


# Runs one command in a fresh interpreter and lists the lacuna modules it
# loaded; in-process tests cannot see this, since other tests import them all.
_FOOTPRINT = (
    "import sys\n"
    "from lacuna.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(' '.join(m for m in sys.modules if m.startswith('lacuna.')))\n"
    "sys.exit(code)\n"
)


class TestImportFootprint:
    """Each command loads only the layers it runs."""

    def loaded(self, tmp_path, argv, code=0):
        out = tmp_path / "modules.txt"
        src = str(Path(lacuna.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, str(out), *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == code, run.stderr
        return {m.removeprefix("lacuna.") for m in out.read_text().split()}

    def test_each_command_loads_only_its_layers(self, ap_file, tmp_path):
        tree, pts = str(tmp_path / "tree.json"), str(tmp_path / "pts.txt")
        build = self.loaded(tmp_path, build_args(ap_file, tmp_path))
        assert "engine" in build and not build & {"apps", "certify", "export"}
        cert = self.loaded(tmp_path, ["certify", tree])
        assert "certify" in cert and not cert & {"apps", "export"}
        export = self.loaded(tmp_path, ["export", tree, "--format", "points", "--out", pts])
        assert "export" in export and not export & {"apps", "certify"}
        # a depth-7 tree leaves uncovered progressions: the oracle finds them
        oracle = self.loaded(tmp_path, ["oracle", pts, "--patterns", ap_file], code=1)
        assert "apps" not in oracle


class TestDeterminism:
    def test_byte_identical_tree_and_certs(self, ap_file, tmp_path):
        for name in ("a", "b"):
            main(build_args(ap_file, tmp_path, depth=12, out=f"{name}.json"))
            main([
                "certify", str(tmp_path / f"{name}.json"), "--mode", "all",
                "--out", str(tmp_path / f"{name}.cert.json"),
            ])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (
            (tmp_path / "a.cert.json").read_bytes()
            == (tmp_path / "b.cert.json").read_bytes()
        )
