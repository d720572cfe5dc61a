"""Refusals that no other in-process test reaches, one case each: the call
raises its exception type with its message.  Then the refusals that bound
work, each of which must come before any level is made."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from lacuna import dimfn, engine, geometry, schedule
from lacuna.apps import AppSpec, app_patterns
from lacuna.certify import brute_oracle
from lacuna.cli import main
from lacuna.differences import difference_targets
from lacuna.engine import build, init_state
from lacuna.errors import DimensionMismatch, FormatError, StructureViolation, Undecidable
from lacuna.export import Points, read_points
from lacuna.lnexp import ln_bounds
from lacuna.pattern import LinearPattern
from lacuna.qmath import decimal_ratio

F = Fraction


def _negative_depth(tmp_path, monkeypatch, ap_pattern, sqrt_gauge):
    build(init_state(1, [ap_pattern], sqrt_gauge), -1)


def _negative_tolerance(tmp_path, monkeypatch, ap_pattern, sqrt_gauge):
    brute_oracle(Points(1, 1, [1, 2, 3]), ap_pattern, F(-1, 2))


def _undecided_at_the_cap(tmp_path, monkeypatch, ap_pattern, sqrt_gauge):
    # ln 4 to 200 bits: one refinement at 8 bits cannot tell it from -ln(1/4)
    lo, hi = ln_bounds(F(4), 200)
    monkeypatch.setattr(dimfn, "PRECISION_CAP", dimfn.START_PRECISION)
    dimfn.make_dimfn("powlog", 1, 1).ratio_ge(F(1, 4), (lo + hi) / 2)


def _points_not_utf8_past_the_header(tmp_path, monkeypatch, ap_pattern, sqrt_gauge):
    # past the first 8 KiB, which the header's read decodes
    body = "".join(f"{i}\n" for i in range(1, 3000)).encode()
    path = tmp_path / "pts.txt"
    path.write_bytes(b"# lacuna-points/1 d=1\n" + body + b"\xff\n")
    read_points(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (_negative_depth, StructureViolation, "depth must be >= 0"),
        (_negative_tolerance, ValueError, "tolerance must be >= 0"),
        (lambda *_: ln_bounds(F(0), 64), ValueError, "ln needs a positive argument"),
        (lambda *_: decimal_ratio(1, 3, -1), ValueError, "digits must be >= 0"),
        (lambda *_: LinearPattern(0, ((), ())), DimensionMismatch,
         "ambient dimension must be >= 1"),
        (_undecided_at_the_cap, Undecidable,
         re.compile(r"comparison with \d+/\d+ undecided at 8 bits")),
        (lambda *_: app_patterns(AppSpec("differences", ["1"], "pow:1/2", 3, 1)), FormatError,
         "app kind 'differences' has no direct pattern list"),
        (lambda *_: difference_targets(["1/2", 5], 64), FormatError,
         "not a rational 'p/q' literal: 5"),
        (_points_not_utf8_past_the_header, FormatError,
         re.compile(r"malformed points file: 'utf-8' codec can't decode byte 0xff .*")),
    ],
    ids=["build-negative-depth", "oracle-negative-tolerance", "ln-of-zero",
         "decimal-ratio-negative-digits", "pattern-d-0", "powlog-undecidable-at-cap",
         "app-patterns-of-differences", "differences-bare-int-target",
         "points-not-utf8-after-header"],
)
def test_refusal(tmp_path, monkeypatch, ap_pattern, sqrt_gauge, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path, monkeypatch, ap_pattern, sqrt_gauge)
    assert type(raised.value) is error
    if isinstance(message, str):
        assert str(raised.value) == message
    else:
        assert message.fullmatch(str(raised.value))


Q_DOC = {"d": 1, "patterns": [{"m": 2, "coeffs": [["2"], ["-1"]]}]}


def _differences(value, **extra):
    params = [{"kind": "rational", "value": value}]
    return {"kind": "differences", "params": params, "h": "pow:1/10", "d": 1, "depth": 4, **extra}


@pytest.mark.parametrize(
    "argv, spec, spied, error",
    [
        (["build", "q.json", "--dimfn", "pow:1/2", "--depth", "97"], None,
         ["schedule.walk_schedule"], "ScheduleOverflow"),
        (["export", "tree.json", "--format", "csv", "--decimals", "4301", "--out", "x.csv"],
         None, [], "UsageError"),
        (["certify", "deep.json"], None, [], "FormatError"),
        (["app", "spec.json", "--out-dir", "out"],
         {"kind": "parallelogram", "params": [], "h": "pow:1/2", "d": 6, "depth": 3},
         ["engine.build_tree"], "UnsupportedDimension"),
        (["app", "spec.json", "--out-dir", "out"], _differences("1", precision=28_570),
         ["engine.build_tree"], "UsageError"),
        (["app", "spec.json", "--out-dir", "out"], _differences("9904"),
         ["engine.build_tree"], "UsageError"),
    ],
    ids=["level-cap", "csv-decimals", "tree-past-the-leaf-cap", "app-d-past-max-d",
         "app-precision", "app-positive-target"],
)
def test_refusal_makes_no_level(tmp_path, monkeypatch, capsys, argv, spec, spied, error):
    """Each refusal exits 2 with its envelope before geometry.advance makes
    a level (and before the schedule walk or an app's build, where spied).
    The leaf cap's test is TestBuild.test_depth_over_leaf_cap_is_config_error
    in test_cli.py, a negative difference target's is in test_apps.py's
    TestPrecisionBound."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(Q_DOC))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["build", "q.json", "--dimfn", "pow:1/2", "--depth", "10", "--out", "tree.json"]) == 0
    deep = json.loads((tmp_path / "tree.json").read_text())
    (tmp_path / "deep.json").write_text(json.dumps({**deep, "depth": 40}))
    capsys.readouterr()
    calls = []
    modules = {"engine": engine, "geometry": geometry, "schedule": schedule}
    for name in ["geometry.advance", *spied]:
        module, attr = name.split(".")
        monkeypatch.setattr(modules[module], attr, lambda *args, name=name: calls.append(name))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["type"] == error
    assert calls == []
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "out").exists()
