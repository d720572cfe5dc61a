"""Golden bytes: tree and certificate files of three fixed builds, the
oracle files of two, the CSV and SVG exports of three, the files of one
differences app run, and the files of three powlog builds.

The certificate digests were recorded from the rational-geometry
implementation that preceded the integer lattice core, the tree digests
from the first lacuna-tree/3 writer, the oracle digests are the ones
bench/run.py pins for its ap-oracle workload, and the export and
differences digests were recorded from the Fraction-based writers that
preceded rendering from integer numerators, except the d=2 SVG digest,
re-pinned when its y axis was mended to draw every cube inside the
viewBox.  The powlog digests are the quotient-powlog ones bench/run.py
pins and a d=3 tree and certificate, both recorded while the powlog
comparison still enclosed q-th roots.  Any change in these bytes is a
format change and must be deliberate.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import walk_levels
from lacuna import geometry
from lacuna.apps import app_patterns, app_spec_from_doc
from lacuna.cli import main
from lacuna.dimfn import parse_dimfn
from lacuna.engine import build, build_tree, init_state, state_to_doc, write_tree
from lacuna.pattern import patterns_from_doc
from lacuna.reader import doc_to_state

AP_DOC = {"d": 1, "patterns": [{"m": 3, "coeffs": [["1"], ["-2"], ["1"]]}]}
PARALLELOGRAM = {"kind": "parallelogram", "params": [], "h": "pow:1/4", "d": 2, "depth": 6}
TRAPEZOIDS = {"kind": "trapezoids", "params": ["1"], "h": "pow:1/4", "d": 3, "depth": 5}
DIFFERENCES = {
    "kind": "differences",
    "params": [
        {"kind": "rational", "value": "1/2"},
        {"kind": "rational", "value": "-1/2"},
        {"kind": "rational", "value": "1/3"},
        {"kind": "log_of", "value": "2"},
    ],
    "h": "pow:1/10",
    "depth": 9,
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_ap_d1_depth_12(tmp_path):
    pat = tmp_path / "ap.json"
    pat.write_text(json.dumps(AP_DOC))
    tree, cert = tmp_path / "tree.json", tmp_path / "cert.json"
    assert main([
        "build", str(pat), "--dimfn", "pow:1/2", "--depth", "12", "--out", str(tree)
    ]) == 0
    assert main(["certify", str(tree), "--mode", "all", "--out", str(cert)]) == 0
    assert _sha(tree) == "14f4c34437db478dd81deb77069db3f22632abbc8d47d7541c2a0b8b301691cf"
    assert _sha(cert) == "76bf1a5fc2dc2d84bf5aab7d1d85f1a0538dbfbfb2bc78931a65d4c0a85b1f24"


@pytest.mark.parametrize(
    "spec, tree_sha, cert_sha",
    [
        (
            PARALLELOGRAM,
            "896103b52203c962ee971250d730d03d7e24c2a68751c43ec3baa38c358362a6",
            "e88623526ce5b882d4f00f92e606d461decde0d8fb2bf0da089e46a676e5f7f0",
        ),
        (
            TRAPEZOIDS,
            "c1ea0add6a64b0b7a69e5568cfcb05f6ca98ec2f3da95175a61d9aad64b40386",
            "db89223cea70719423ed5ca0f3c617e8b284e70ef2e3097e06a8d5ed26190611",
        ),
    ],
    ids=["parallelogram-d2-depth6", "trapezoids-d3-depth5"],
)
def test_app_builds(tmp_path, spec, tree_sha, cert_sha):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["app", str(path), "--out-dir", str(out)]) == 0
    assert _sha(out / "tree.json") == tree_sha
    assert _sha(out / "cert.json") == cert_sha


@pytest.mark.parametrize(
    "coeffs, oracle_sha",
    [
        (
            [["1"], ["-2"], ["1"]],
            "3a222e8a82cdb650e4f86c9a33c2a475551a0e0735c9ccad20e515e7cb26e6f2",
        ),
        (
            [["1"], ["1"], ["-2"]],
            "7148ca7f118d4b3261a7d1c9013324eec07e7e7db050ec32876c539834d78162",
        ),
    ],
    ids=["ap-1-2-1", "ap-1-1-2"],
)
def test_oracle_d1_depth_7(tmp_path, coeffs, oracle_sha):
    pat = tmp_path / "patterns.json"
    pat.write_text(json.dumps({"d": 1, "patterns": [{"m": 3, "coeffs": coeffs}]}))
    tree, pts, oracle = tmp_path / "tree.json", tmp_path / "points.txt", tmp_path / "oracle.json"
    assert main([
        "build", str(pat), "--dimfn", "pow:1/2", "--depth", "7", "--out", str(tree)
    ]) == 0
    assert main(["export", str(tree), "--format", "points", "--out", str(pts)]) == 0
    # unprocessed tuples hold instances, so the oracle exits 1
    assert main([
        "oracle", str(pts), "--patterns", str(pat), "--tol", "0", "--out", str(oracle)
    ]) == 1
    assert _sha(oracle) == oracle_sha


def _ap_tree(tmp_path):
    pat = tmp_path / "ap.json"
    pat.write_text(json.dumps(AP_DOC))
    tree = tmp_path / "tree.json"
    assert main([
        "build", str(pat), "--dimfn", "pow:1/2", "--depth", "12", "--out", str(tree)
    ]) == 0
    return tree


def _app_tree(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["app", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / "tree.json"


@pytest.mark.parametrize(
    "make, args, sha",
    [
        (
            _ap_tree,
            ["--format", "csv"],
            "68b223dd7eddd987f72e37bd76fe3da8fa4ed39e17dbd89d60e3fea1147e60e3",
        ),
        (
            _ap_tree,
            ["--format", "csv", "--decimals", "0"],
            "1c340b1c4a5d36bda76877b0b7c85667347347462f1c8149970212f8b7d33948",
        ),
        (
            _ap_tree,
            ["--format", "svg"],
            "ff35b0fb93e5d21bb27068dff5fb16d91a381d281760f166de5bdb027bb127f8",
        ),
        (
            lambda tmp: _app_tree(tmp, PARALLELOGRAM),
            ["--format", "csv"],
            "b9630747607a377607e47aaa9b7cda70fb7d52d4ed6a10aaf964f0fddec8cff3",
        ),
        (
            lambda tmp: _app_tree(tmp, PARALLELOGRAM),
            ["--format", "svg"],
            "0e64afdef30c5fdc69b8d4200f67bee4e0c7fefefbf3a95a57df80be0a3ad341",
        ),
        (
            lambda tmp: _app_tree(tmp, TRAPEZOIDS),
            ["--format", "csv"],
            "007207b0fcff42f187c1dc2feec37b1a236187bf471eb38be781e9a501122df6",
        ),
    ],
    ids=[
        "ap-d1-depth12-csv",
        "ap-d1-depth12-csv-decimals0",
        "ap-d1-depth12-svg",
        "parallelogram-d2-depth6-csv",
        "parallelogram-d2-depth6-svg",
        "trapezoids-d3-depth5-csv",
    ],
)
def test_exports(tmp_path, make, args, sha):
    tree, out = make(tmp_path), tmp_path / "export.out"
    assert main(["export", str(tree), *args, "--out", str(out)]) == 0
    assert _sha(out) == sha


def test_differences_app(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(DIFFERENCES))
    out = tmp_path / "out"
    assert main(["app", str(path), "--out-dir", str(out)]) == 0
    assert _sha(out / "report.json") == (
        "d7ac32b7cc440f0e39ba7a32c1f0ffd16f1c8a41b03246b952208fcff5b5e76e"
    )
    assert _sha(out / "cert.json") == (
        "fa51ba7cbc07dcf0ac6f7e5fbb5c1049bce73b09d1a67cb103f27f17e9d68e9a"
    )


def test_leaf_cap_tree_from_the_schedule_alone(tmp_path, monkeypatch):
    """The leaf-cap build (quotient 2, pow:1/2, depth 25, 2^20 leaves)
    makes no level, and writes the tree file CI pins."""
    made = []
    monkeypatch.setattr(geometry, "advance", lambda *args: made.append(args))
    d, patterns = patterns_from_doc({"d": 1, "patterns": [{"m": 2, "coeffs": [["2"], ["-1"]]}]})
    state = build_tree(d, patterns, parse_dimfn("pow:1/2", d), 25)
    assert (state.depth, state.m_levels) == (25, [5, 10, 15, 20, 25])
    tree = tmp_path / "tree.json"
    write_tree(state, tree)
    assert _sha(tree) == "072d778206d28b5101185ae1d2f65741c9817d1cb34951c7270f219ca601d28e"
    assert made == []


def _ap_state():
    d, patterns = patterns_from_doc(AP_DOC)
    return build(init_state(d, patterns, parse_dimfn("pow:1/2", d)), 12)


def _app_state(doc):
    spec = app_spec_from_doc(doc)
    d, patterns = app_patterns(spec)
    return build(init_state(d, patterns, parse_dimfn(spec.h_spec, d)), spec.depth)


@pytest.mark.parametrize(
    "make",
    [_ap_state, lambda: _app_state(PARALLELOGRAM), lambda: _app_state(TRAPEZOIDS)],
    ids=["ap-d1-depth12", "parallelogram-d2-depth6", "trapezoids-d3-depth5"],
)
def test_tree_round_trip(make):
    built = make()
    doc = json.loads(json.dumps(state_to_doc(built)))
    assert set(doc) == {"format", "d", "h", "depth", "patterns", "schedule"}
    back = doc_to_state(doc)
    assert [(lvl.den, lvl.lowers) for lvl in walk_levels(back)] == [
        (lvl.den, lvl.lowers) for lvl in walk_levels(built)
    ]
    assert back.entries == built.entries


@pytest.mark.parametrize(
    "coeffs, cert_sha, points_sha",
    [
        (
            [["3/2"], ["-1"]],
            "8ef1883619c8837a4b980dec069cb9b5efeb2be7e3ef8908b9622a81b2d43052",
            "abdecc1490cff7df2ff0e4c878d0bbacae03cff58cdfef06e4a047ed2f0151a7",
        ),
        (
            [["4/3"], ["-1"]],
            "d72aea92191f6bd47d0cce76c3845e1858354e533b1a61edd4ccf22ef0eefea1",
            "fe9525eb50c9a47930c0535e28ec102afe6328214dde236122092b8094bf9119",
        ),
    ],
    ids=["quotient-3/2", "quotient-4/3"],
)
def test_quotient_powlog_depth_14(tmp_path, coeffs, cert_sha, points_sha):
    """The steps of bench/run.py's quotient-powlog workload, with the
    digests it pins."""
    pat = tmp_path / "patterns.json"
    pat.write_text(json.dumps({"d": 1, "patterns": [{"m": 2, "coeffs": coeffs}]}))
    tree, cert, pts = tmp_path / "tree.json", tmp_path / "cert.json", tmp_path / "points.txt"
    assert main([
        "build", str(pat), "--dimfn", "powlog:63/64", "--depth", "14", "--out", str(tree)
    ]) == 0
    assert main([
        "certify", str(tree), "--mode", "all", "--spot-checks", "100", "--out", str(cert)
    ]) == 0
    assert main(["export", str(tree), "--format", "points", "--out", str(pts)]) == 0
    assert _sha(cert) == cert_sha
    assert _sha(pts) == points_sha


def test_powlog_d3_depth_7(tmp_path):
    """powlog:1/2 in d=3 compares ratios -ln(r)/r^(5/2), an exponent a < 0."""
    pat = tmp_path / "q3.json"
    pat.write_text(json.dumps(
        {"d": 3, "patterns": [{"m": 2, "coeffs": [["2", "0", "0"], ["-1", "0", "0"]]}]}
    ))
    tree, cert = tmp_path / "tree.json", tmp_path / "cert.json"
    assert main([
        "build", str(pat), "--dimfn", "powlog:1/2", "--depth", "7", "--out", str(tree)
    ]) == 0
    assert len(json.loads(tree.read_text())["schedule"]) == 3
    assert main(["certify", str(tree), "--out", str(cert)]) == 0
    assert _sha(tree) == "eb4183f5e6e362d8a6ccc02daf8f2c5bf43048338e12c857fff4babf16fc3a88"
    assert _sha(cert) == "22889644ee3882490377c5e7bc7685c22c252e9abb39a2e228ad8f3f2acc230c"
