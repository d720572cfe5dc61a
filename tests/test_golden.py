"""Golden bytes: every row of tests/pins.py but the leaf-cap ones, by name;
the leaf-cap tree made from its schedule alone; bench/run.py's digests
against the rows of the same recipes; and tree round trips."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from ci_checks import ROOT
from conftest import walk_levels
from lacuna import geometry
from lacuna.apps import app_patterns, app_spec_from_doc
from lacuna.dimfn import parse_dimfn
from lacuna.engine import build, build_tree, init_state, state_to_doc, write_tree
from lacuna.pattern import patterns_from_doc
from lacuna.reader import doc_to_state
from pins import AP_DOC, PARALLELOGRAM, PINS, Q_DOC, TRAPEZOIDS


def test_ap_d1_depth_12(check_pin):
    check_pin("ap-d1-depth12")


@pytest.mark.parametrize("name", [
    "parallelogram-d2-depth6", "trapezoids-d3-depth5", "ratios-2-depth7", "differences-ln2-depth5",
])
def test_app_builds(check_pin, name):
    check_pin(name)


@pytest.mark.parametrize("name", ["ap-1-2-1", "ap-1-1-2"])
def test_oracle_d1_depth_7(check_pin, name):
    check_pin(name)


@pytest.mark.parametrize("name", [
    "ap-d1-depth12-csv", "ap-d1-depth12-csv-decimals0", "ap-d1-depth12-svg",
    "parallelogram-d2-depth6-csv", "parallelogram-d2-depth6-svg", "trapezoids-d3-depth5-csv",
])
def test_exports(check_pin, name):
    check_pin(name)


def test_differences_app(check_pin):
    check_pin("differences")


@pytest.mark.parametrize("name", ["quotient-3/2", "quotient-4/3"])
def test_quotient_powlog_depth_14(check_pin, name):
    check_pin(name)


def test_powlog_d3_depth_7(check_pin):
    check_pin("powlog-d3-depth7")
    assert len(json.loads(Path("tree.json").read_text())["schedule"]) == 3


def test_leaf_cap_tree_from_the_schedule_alone(tmp_path, monkeypatch):
    """The leaf-cap build (quotient 2, pow:1/2, depth 25, 2^20 leaves)
    makes no level, and writes the tree file of its row."""
    made = []
    monkeypatch.setattr(geometry, "advance", lambda *args: made.append(args))
    d, patterns = patterns_from_doc(Q_DOC)
    state = build_tree(d, patterns, parse_dimfn("pow:1/2", d), 25)
    assert (state.depth, state.m_levels) == (25, [5, 10, 15, 20, 25])
    tree = tmp_path / "tree.json"
    write_tree(state, tree)
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == PINS["leaf-cap-d1"].sha256["tree.json"]
    assert made == []


def test_bench_digests_equal_the_rows_of_their_recipes():
    """Each digest of bench/run.py's WORKLOADS (read without running the
    benchmark) equals that of the same file in the row of the same recipe."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    compared = []
    for workload in bench.WORKLOADS.values():
        steps = [(tuple(args), code) for args, code in workload["steps"]]
        for given, (name, row) in itertools.product(workload["inputs"], PINS.items()):
            if (row.files, [s[:2] for s in row.steps]) == (given["files"], steps):
                for path in row.sha256.keys() & given["digests"].keys():
                    assert row.sha256[path] == given["digests"][path], (name, path)
                    compared.append((name, path))
    assert sorted(compared) == [
        ("ap-1-1-2", "oracle.json"), ("ap-1-2-1", "oracle.json"),
        ("quotient-3/2", "cert.json"), ("quotient-3/2", "points.txt"),
        ("quotient-4/3", "cert.json"), ("quotient-4/3", "points.txt"),
    ]


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


