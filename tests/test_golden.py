"""Golden bytes: tree and certificate files of three fixed builds.

The digests were recorded from the rational-geometry implementation that
preceded the integer lattice core; any change in the tree or certificate
bytes of these builds is a format change and must be deliberate.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from lacuna.cli import main

AP_DOC = {"d": 1, "patterns": [{"m": 3, "coeffs": [["1"], ["-2"], ["1"]]}]}


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
    assert _sha(tree) == "292987dcb8e943b99b8e674d6868e10a9032e29dcc8e3cdb7272f45c9d529aea"
    assert _sha(cert) == "76bf1a5fc2dc2d84bf5aab7d1d85f1a0538dbfbfb2bc78931a65d4c0a85b1f24"


@pytest.mark.parametrize(
    "spec, tree_sha, cert_sha",
    [
        (
            {"kind": "parallelogram", "params": [], "h": "pow:1/4", "d": 2, "depth": 6},
            "823cf49fa6cd85ed30453bc393dd6816ff4f39730deccf07a58f4a78ebd39513",
            "e88623526ce5b882d4f00f92e606d461decde0d8fb2bf0da089e46a676e5f7f0",
        ),
        (
            {"kind": "trapezoids", "params": ["1"], "h": "pow:1/4", "d": 3, "depth": 5},
            "4b7c7f856bf167c25d1fffec26856cbde8bc78a0854b72edbe8ff1cc14370080",
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
