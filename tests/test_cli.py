from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import lacuna
from lacuna import cli, engine, geometry, schedule
from lacuna.cli import main, parse_args
from lacuna.engine import build_tree, read_tree, state_to_doc
from lacuna.errors import FormatError, UsageError
from lacuna.export import read_points
from lacuna.reader import doc_to_state
import reference
from conftest import walk_levels
from reference import leaf_centers

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


def _count_levels_made(monkeypatch) -> list[int | None]:
    """Per call of geometry.advance from now on, the M_i of the entry it
    makes the avoidance level of, or None for a dyadic level."""
    made = []
    advance = geometry.advance

    def counted(state, prev, entry):
        made.append(entry and entry.m_level)
        return advance(state, prev, entry)

    monkeypatch.setattr(geometry, "advance", counted)
    return made


def build_args(ap_file, tmp_path, depth=7, out="tree.json", dimfn="pow:1/2"):
    return [
        "build", ap_file, "--dimfn", dimfn, "--depth", str(depth),
        "--out", str(tmp_path / out),
    ]


class TestBuild:
    def test_depth_seven(self, ap_file, tmp_path, capsys):
        assert main(build_args(ap_file, tmp_path)) == 0
        st = read_tree(tmp_path / "tree.json")
        assert len(walk_levels(st, 7)[-1].lowers) == 64

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
        # the level cap is 96: refused before any level is built
        assert main(build_args(ap_file, tmp_path, depth=97)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ScheduleOverflow"
        # not the leaf cap, which a build reaches only at level 26
        assert err["message"] == "depth 97 exceeds the level cap 96"

    @pytest.mark.parametrize(
        "pattern, cap, message",
        [
            ("ap_file", 2**10, "level 13 would hold more than 1024 cubes"),
            ("ap_file", schedule.MAX_LEAF_CUBES, "level 25 would hold more than 1048576 cubes"),
            ("q_file", schedule.MAX_LEAF_CUBES, "level 26 would hold more than 1048576 cubes"),
        ],
        ids=["ap-1024", "ap", "quotient-2"],
    )
    def test_depth_over_leaf_cap_is_config_error(
        self, request, tmp_path, capsys, monkeypatch, pattern, cap, message
    ):
        # The schedule is walked from the level counts, so the first level
        # past the cap is refused before any level's geometry is made.
        advanced = []
        advance = geometry.advance
        monkeypatch.setattr(
            geometry, "advance", lambda *args: advanced.append(args[1]) or advance(*args)
        )
        monkeypatch.setattr(schedule, "MAX_LEAF_CUBES", cap)
        pattern_file = request.getfixturevalue(pattern)
        assert main(build_args(pattern_file, tmp_path, depth=40)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ScheduleOverflow", "message": message}
        assert advanced == []
        assert not (tmp_path / "tree.json").exists()

    def test_d3_powlog_build(self, tmp_path):
        """powlog:1/2 in d=3 tests ratios -ln(r)/r^(5/2) whose power part
        falls below 2**-33 by level 7, decided as (-ln r)^2 >= t^2 * r^5."""
        patterns = tmp_path / "q3.json"
        patterns.write_text(json.dumps(
            {"d": 3, "patterns": [{"m": 2, "coeffs": [["2", "0", "0"], ["-1", "0", "0"]]}]}
        ))
        assert main(build_args(str(patterns), tmp_path, dimfn="powlog:1/2")) == 0

    def test_small_powlog_exponent_lands_no_entry(self, q_file, tmp_path):
        # the powlog domain ends at e^(-1/s), far below the radius the walk
        # tests at level 3: -ln r < 1/s there, so the ratio condition is out
        # of the domain and no entry lands.  Each comparison refuses from its
        # first ln enclosure, whatever 1/s is, and renders no number
        for spec in ("powlog:1/10000", "powlog:1/10000000"):
            run = _child(tmp_path, build_args(q_file, tmp_path, depth=3, dimfn=spec),
                         capture_output=True, timeout=30)
            assert (run.returncode, run.stderr) == (0, "")
            assert run.stdout.startswith("built d=1 depth=3: 8 leaf cubes, 0 schedule entries")
            assert read_tree(tmp_path / "tree.json").entries == []

    def test_d6_is_config_error(self, tmp_path, capsys):
        # Tuple addresses have 32 digits, so d <= 5: refused before a level
        # is built, by build and by the tree reader alike.
        rows = [["1"] + ["0"] * 5, ["-1"] + ["0"] * 5]
        pat = tmp_path / "p6.json"
        pat.write_text(json.dumps({"d": 6, "patterns": [{"m": 2, "coeffs": rows}]}))
        assert main(_build_argv(str(pat), tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "UnsupportedDimension"
        assert not (tmp_path / "tree.json").exists()
        tree = tmp_path / "t6.json"
        tree.write_text(json.dumps({
            "format": "lacuna-tree/3", "d": 6, "h": "pow:1/2", "depth": 3,
            "patterns": [{"m": 2, "coeffs": rows}], "schedule": [],
        }))
        assert main(["certify", str(tree)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "UnsupportedDimension"


#: The options of each command, and its help line (the argparse grammar
#: the command table replaced: reference.build_parser).
_OPTIONS = {
    "build": ["--dimfn", "--depth", "--out"],
    "certify": ["--mode", "--out", "--spot-checks"],
    "export": ["--format", "--out", "--decimals"],
    "app": ["--out-dir"],
    "oracle": ["--patterns", "--tol", "--out"],
}
_HELP_LINES = {
    "build": "build a tree from a pattern file",
    "certify": "re-derive certificates from a tree file",
    "export": "export points or pictures",
    "app": "run an application spec end to end",
    "oracle": "exhaustive pattern search over a point file",
}


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "q.json", "--dimfn", "pow:1/2", "--depth", "abc"],
            ["build", "q.json", "--dimfn", "pow:1/2", "--depth", "7", "--level-cap", "5"],
            ["build", "q.json", "--dimfn", "pow:1/2", "--depth", "7",
             "--schedule-log", "log.jsonl"],
            ["app", "spec.json", "--level-cap", "4"],
            [],
        ],
        ids=["bad-depth", "build-level-cap", "build-schedule-log", "app-level-cap",
             "no-subcommand"],
    )
    def test_argument_error_envelope(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage:" not in err
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("command", [None, *_OPTIONS], ids=lambda c: c or "top")
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        # the help line and every option of the command; every command's
        # name and help line at the top
        if command:
            assert all(word in out for word in [_HELP_LINES[command], *_OPTIONS[command]])
        else:
            assert all(f"{c}  " in out and _HELP_LINES[c] in out for c in _OPTIONS)
        assert "--level-cap" not in out and "--schedule-log" not in out


#: The differential parser test's vocabulary.  Left out: "--", which ends
#: the options for argparse and is refused by parse_args; "-", a value to
#: both; and -h/--help, which print the usage and exit.  argparse 3.10 and
#: 3.11 read every argv drawn from it alike (their _parse_optional and
#: _get_option_tuples are the same code).
_COMMAND_WORDS = list(_OPTIONS)
_OPTION_WORDS = [
    "--dimfn", "--depth", "--out", "--mode", "--spot-checks", "--format", "--decimals",
    "--out-dir", "--patterns", "--tol",
    # unique prefixes; --d is ambiguous in build (--dimfn, --depth) and
    # selects --decimals in export, --out selects --out-dir in app
    "--di", "--de", "--d", "--dec", "--o", "--ou", "--m", "--s", "--spot", "--f", "--p",
    "--t",
]
# the choices of --mode and --format, so that certify and export can pass
_VALUE_WORDS = ["7", "0", "-5", "abc", "-1/2", "x.json", "", "gap", "all", "svg", "points"]
_PASSING = {"--depth": "7", "--spot-checks": "0", "--decimals": "0", "--mode": "gap",
            "--format": "points"}
_WORD = hs.one_of(
    hs.sampled_from(_COMMAND_WORDS + _OPTION_WORDS + _VALUE_WORDS),
    hs.builds("{}={}".format, hs.sampled_from(_OPTION_WORDS), hs.sampled_from(_VALUE_WORDS)),
)


@hs.composite
def _argvs(draw):
    """A command, or a word that names none, then in a drawn order: a value
    (the positional), each option of the command none, one or two times,
    spelled in full or as a prefix, with a value after it or after '=',
    and at most one word of any kind."""
    command = draw(hs.sampled_from(_COMMAND_WORDS + ["", "-5", "--out", "x.json"]))
    value = hs.sampled_from(_VALUE_WORDS)
    chunks = [(draw(value),)]
    for name in _OPTIONS.get(command, []):
        spellings = hs.sampled_from([w for w in _OPTION_WORDS if name.startswith(w)])
        # half the time a value that passes the option's type or choices
        option_value = hs.one_of(value, hs.just(_PASSING.get(name, "x.json")))
        for _ in range(draw(hs.integers(0, 2))):
            spelled, given = draw(spellings), draw(option_value)
            chunks.append((spelled, given) if draw(hs.booleans()) else (f"{spelled}={given}",))
    chunks += draw(hs.lists(hs.tuples(_WORD), max_size=1))
    return [command, *(word for chunk in draw(hs.permutations(chunks)) for word in chunk)]


def _decision(parse, argv):
    """The namespace parse gives for argv, or "UsageError"."""
    try:
        return vars(parse(argv))
    except UsageError:
        return "UsageError"


@pytest.fixture(scope="module")
def argparse_parser():
    return reference.build_parser()


class TestParserMatchesArgparse:
    """parse_args reads every argv of the vocabulary as the argparse
    grammar it replaced (reference.build_parser): the same namespace when
    argparse accepts it, a UsageError when argparse refuses it."""

    @settings(max_examples=600, deadline=None)
    @given(argv=_argvs())
    def test_drawn_argv(self, argparse_parser, argv):
        want = _decision(argparse_parser.parse_args, argv)
        assert _decision(parse_args, argv) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["app", "s.json", "--out", "x"],
            ["build", "--de=3", "q.json", "--di", "pow:1/2", "--depth", "4"],
            ["certify", "t.json", "--spot", "5", "--m=gap"],
            ["certify", "t.json", "--spot-checks", "-5"],
            ["oracle", "-5", "--patterns", "q.json", "--tol", "-1"],
            ["oracle", "p.txt", "--patterns", "q.json", "--tol", "-1/2"],
            ["oracle", "p.txt", "--patterns=", "--tol=-1/2"],
            ["export", "t.json", "--out", "--format", "svg"],
            ["export", "t.json", "--out", "x", "--format", "pdf"],
            ["export", "t.json", "--d", "3", "--f", "csv", "--o", "x"],
            ["build", "q.json", "--d", "3"],
        ],
    )
    def test_fixed_argv(self, argparse_parser, argv):
        want = _decision(argparse_parser.parse_args, argv)
        assert _decision(parse_args, argv) == want


class TestCertify:
    def test_all_modes_pass(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path, depth=12))
        tree = str(tmp_path / "tree.json")
        for mode in ("gap", "measure", "all"):
            assert main(["certify", tree, "--mode", mode]) == 0

    def test_edited_small_powlog_gauge_fails_the_measure(self, q_file, tmp_path):
        # a pow:1/2 tree whose h is edited to a powlog gauge with a small s:
        # every radius is outside the gauge's domain, so the mass bound
        # fails at k0 = 5, for s = 10^-7 as fast as for s = 10^-4
        assert main(build_args(q_file, tmp_path, depth=10)) == 0
        doc = json.loads((tmp_path / "tree.json").read_text())
        for spec in ("powlog:1/10000", "powlog:1/10000000"):
            doc["h"] = spec
            (tmp_path / "bad.json").write_text(json.dumps(doc))
            run = _child(tmp_path, ["certify", "bad.json", "--mode", "measure"],
                         capture_output=True, timeout=30)
            assert (run.returncode, run.stdout) == (1, "")
            assert json.loads(run.stderr)["error"] == {
                "type": "MeasureViolated", "message": "mass/ratio bound fails at level 5"
            }

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

    def test_gap_mode_refuses_a_tree_with_no_entry(
        self, ap_file, tmp_path, capsys, monkeypatch
    ):
        # depth 3 is below M_1 = 6: no gap to certify, so exit 0 would
        # claim what nothing checked; --mode gap fails as --mode all does,
        # from the recipe alone, before any level is made
        main(build_args(ap_file, tmp_path, depth=3))
        tree, cert = str(tmp_path / "tree.json"), tmp_path / "cert.json"
        capsys.readouterr()
        made = []
        monkeypatch.setattr(geometry, "advance", lambda *args: made.append(args))
        errors = []
        for mode in ("all", "gap"):
            assert main(["certify", tree, "--mode", mode, "--out", str(cert)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(json.loads(err)["error"])
        assert errors[0] == errors[1] == {
            "type": "EntryNotProcessed",
            "message": "no avoidance level was processed; build deeper",
        }
        assert not cert.exists()
        assert made == []

    @pytest.mark.parametrize("mode", ["gap", "all"])
    def test_certify_makes_the_levels_to_the_last_avoidance_level(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # the quotient-powlog tree of bench/run.py: M_1 = 13 at depth 14, so
        # levels 1..13 are made, each once, and level 14 is not
        patterns = tmp_path / "q.json"
        patterns.write_text(json.dumps(
            {"d": 1, "patterns": [{"m": 2, "coeffs": [["3/2"], ["-1"]]}]}
        ))
        tree = str(tmp_path / "tree.json")
        build = ["build", str(patterns), "--dimfn", "powlog:63/64", "--depth", "14"]
        assert main([*build, "--out", tree]) == 0
        made = _count_levels_made(monkeypatch)
        assert main(["certify", tree, "--mode", mode, "--spot-checks", "5"]) == 0
        assert made == [None] * 12 + [13]

    def test_corrupted_coordinate_fails(
        self, ap_file, tmp_path, capsys, monkeypatch, move_cube
    ):
        # A tree file carries no corners, so the corruption enters between
        # the read and the checks.
        main(build_args(ap_file, tmp_path, depth=12))
        read = engine.read_tree
        monkeypatch.setattr(
            engine, "read_tree", lambda path: move_cube(read(path), 6, 0, [F(5039, 5040)])
        )
        code = main(["certify", str(tmp_path / "tree.json"), "--mode", "all"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "GapViolated"


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


def _d_changed_to_2(doc):
    doc["d"] = 2


def _tree_v1(doc):
    """The same d=1 tree in the lacuna-tree/1 layout."""
    levels = walk_levels(doc_to_state(doc))
    schedule = doc["schedule"]
    doc["format"] = "lacuna-tree/1"
    doc["betas"] = [e["beta_i"] for e in schedule]
    doc["levels_M"] = [e["M_i"] for e in schedule]
    doc["cubes"] = {}
    for k, lvl in enumerate(levels):
        ndigits = k - sum(1 for e in schedule if e["M_i"] <= k)
        doc["cubes"][str(k)] = [
            {"addr": format(i, "b").zfill(ndigits) if ndigits else "",
             "lower": [str(F(x, lvl.den))]}
            for i, x in enumerate(lvl.lowers)
        ]


def _tree_v2(doc):
    """The same tree in the lacuna-tree/2 layout."""
    levels = walk_levels(doc_to_state(doc))
    doc["format"] = "lacuna-tree/2"
    doc["level_cap"] = 96
    doc["levels"] = [
        {"den": lvl.den, "lowers": lvl.lowers}
        for lvl in levels
    ]


class TestTamperedTree:
    @pytest.mark.parametrize(
        "mutate, error",
        [
            (_tree_v1, "FormatError"),
            (_tree_v2, "FormatError"),
            (_pattern_id_out_of_range, "FormatError"),
            (_tuple_level_at_m, "FormatError"),
            (_negative_depth, "FormatError"),
            (_beta_below_compute_beta, "FormatError"),
            (_levels_too_close, "FormatError"),
            (_infinite_arity, "FormatError"),
            (_d_changed_to_2, "FormatError"),
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
        if mutate in (_tree_v1, _tree_v2):
            assert "must be rebuilt" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("depth", [40, 10**6])
    def test_recipe_over_the_leaf_cap(self, ap_file, tmp_path, capsys, depth):
        # A few hundred bytes may ask for 2^38 cubes or more: the reader
        # refuses before it builds a level.
        assert main(build_args(ap_file, tmp_path, depth=12)) == 0
        tree = tmp_path / "tree.json"
        doc = json.loads(tree.read_text())
        doc["depth"] = depth
        tree.write_text(json.dumps(doc))
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["certify", str(tree)])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "FormatError"

    def test_long_beta_under_a_large_q_gauge_fails_the_measure(self, tmp_path, capsys):
        # powlog:999/1000 with a beta_i of 1,000 digits: the mass bound
        # compares radii r of 3,300-bit denominators, raised to the 999th
        # power, which a q-th root of r^999 took minutes to enclose
        pat = tmp_path / "q.json"
        pat.write_text(json.dumps({"d": 1, "patterns": [{"m": 2, "coeffs": [["3/2"], ["-1"]]}]}))
        assert main(build_args(str(pat), tmp_path, depth=14, dimfn="powlog:63/64")) == 0
        tree = tmp_path / "tree.json"
        doc = json.loads(tree.read_text())
        doc["h"] = "powlog:999/1000"
        doc["schedule"][0]["beta_i"] = int("9" * 1000)
        tree.write_text(json.dumps(doc))
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["certify", str(tree), "--mode", "measure"]) == 1
        assert time.perf_counter() - start < 10.0
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "MeasureViolated",
                         "message": "mass/ratio bound fails at level 13"}

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


def _tampered_tree(tmp_path, ap_file, mutate):
    """The path of the depth-12 AP tree (M_i = 6, 11), mutated in place."""
    assert main(build_args(ap_file, tmp_path, depth=12)) == 0
    tree = tmp_path / "tree.json"
    doc = json.loads(tree.read_text())
    mutate(doc)
    tree.write_text(json.dumps(doc))
    return str(tree)


def _entry_index_2(doc):
    doc["schedule"][0]["i"] = 2


def _depth_below_m_2(doc):
    doc["depth"] = 10


def _address_digit_2(doc):
    doc["schedule"][0]["tuple"][0] = "02"


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
            lambda t, ap: _build_argv(_pattern_file(t, d=2), t),
            lambda t, ap: ["oracle", _points_file(t, "d=1", b"1\n3/2\n2/2\n"),
                           "--patterns", ap],
            # more digits than the interpreter parses (sys.get_int_max_str_digits())
            lambda t, ap: ["app", _spec_file(t, params=["1" * 5000]), "--out-dir", str(t / "o")],
        ],
        ids=["build-bad-json", "app-bad-json", "oracle-bad-patterns",
             "oracle-header-d-x", "oracle-not-utf8", "app-infinite-depth",
             "app-float-depth", "app-vector-split-float-m", "app-vector-split-no-m",
             "app-vector-split-list", "app-ratios-int-params", "app-differences-int-params",
             "app-planes-int-row", "build-string-d",
             "build-float-m", "build-rows-not-d-wide", "oracle-repeated-point",
             "app-5000-digit-param"],
    )
    def test_format_error_envelope(self, ap_file, tmp_path, capsys, argv):
        code = main(argv(tmp_path, ap_file))
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "FormatError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (lambda t, ap: ["certify", _tampered_tree(t, ap, _entry_index_2)],
             "schedule entry 1 is stored with index 2"),
            (lambda t, ap: ["certify", _tampered_tree(t, ap, _depth_below_m_2)],
             "entry 2: M_i=11 exceeds the depth 10"),
            (lambda t, ap: ["certify", _tampered_tree(t, ap, _address_digit_2)],
             "address digit '2' out of range for d=1"),
            (lambda t, ap: ["oracle", _points_file(t, "d=2", b"1 1\n"), "--patterns", ap],
             "points are d=2 but patterns are d=1"),
            (lambda t, ap: ["app", _spec_file(t, kind="vector_split", params={
                "d": 1, "m": 2, "rows": [["2", "-1", "1"]]}), "--out-dir", str(t / "o")],
             "component row must have 2 coefficients"),
            (lambda t, ap: ["app", _spec_file(t, kind="differences", params=[
                {"kind": "log_of", "value": "-2"}]), "--out-dir", str(t / "o")],
             "log_of target needs a positive rational"),
            (lambda t, ap: ["app", _spec_file(t, kind="differences", params=[
                {"kind": "log_of"}]), "--out-dir", str(t / "o")],
             'a differences target needs a "value"'),
            (lambda t, ap: ["app", _spec_file(t, kind="differences", params=[]),
                            "--out-dir", str(t / "o")],
             "differences app needs at least one target"),
            (lambda t, ap: ["app", _spec_file(t, kind="differences", params=[
                {"kind": "sqrt", "value": "2"}]), "--out-dir", str(t / "o")],
             "unknown difference target kind 'sqrt'"),
        ],
        ids=["tree-entry-index", "tree-m-past-depth", "tree-address-digit", "oracle-d-mismatch",
             "app-row-length", "app-log-of-negative", "app-target-no-value",
             "app-no-targets", "app-unknown-target-kind"],
    )
    def test_format_error_message(self, ap_file, tmp_path, capsys, argv, message):
        argv = argv(tmp_path, ap_file)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "FormatError"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "step, field, value",
        [
            ("export", "schedule", {}),
            ("export", "schedule", ""),
            ("build", "coeffs", "31"),
            ("build", "a coefficient row", ["3", "1"]),
        ],
        ids=["tree-schedule-object", "tree-schedule-string", "pattern-coeffs-string",
             "pattern-rows-strings"],
    )
    def test_a_string_or_object_for_a_list_is_refused(self, tmp_path, capsys, step, field,
                                                      value):
        # the quotient-2 tree of depth 10 read with no schedule would export
        # 1,024 points, and "31" or ["3", "1"] would read as [["3"], ["1"]]
        pat = tmp_path / "q.json"
        pat.write_text(json.dumps({"d": 1, "patterns": [{"m": 2, "coeffs": [["2"], ["-1"]]}]}))
        out = tmp_path / "out"
        if step == "export":
            assert main(build_args(str(pat), tmp_path, depth=10)) == 0
            tree = tmp_path / "tree.json"
            doc = json.loads(tree.read_text())
            assert doc["schedule"]
            doc["schedule"] = value
            tree.write_text(json.dumps(doc))
            argv = ["export", str(tree), "--format", "points", "--out", str(out)]
        else:
            pat.write_text(json.dumps({"d": 1, "patterns": [{"m": 2, "coeffs": value}]}))
            argv = ["build", str(pat), "--dimfn", "pow:1/2", "--depth", "10", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "FormatError"
        assert error["message"].startswith(f"{field} must be a list")
        assert not out.exists()

    def test_value_too_large_to_write(self, tmp_path, capsys):
        # the report of e^5000 needs more digits than the interpreter renders
        spec = _spec_file(tmp_path, kind="differences", h="pow:1/10", d=1, depth=4,
                          params=[{"kind": "rational", "value": "5000"}])
        code = main(["app", spec, "--out-dir", str(tmp_path / "o")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert error["type"] == "UsageError"
        assert error["message"].startswith("rational too large to write: ")
        # report.json is rendered before the directory is made
        assert not (tmp_path / "o").exists()

    def test_oracle_negative_tolerance(self, ap_file, tmp_path, capsys):
        pts = _points_file(tmp_path, "d=1", b"1\n3/2\n")
        code = main(["oracle", pts, "--patterns", ap_file, "--tol", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize(
        "argv",
        [
            lambda t, ap: build_args(ap, t, depth=-1, out="negative.json"),
            lambda t, ap: ["certify", str(t / "tree.json"), "--spot-checks", "-5"],
            lambda t, ap: ["export", str(t / "tree.json"), "--format", "csv",
                           "--decimals", "-3", "--out", str(t / "out.csv")],
        ],
        ids=["build-depth", "certify-spot-checks", "export-decimals"],
    )
    def test_negative_count_is_usage_error(self, ap_file, tmp_path, capsys, argv):
        assert main(build_args(ap_file, tmp_path)) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        code = main(argv(tmp_path, ap_file))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"
        assert sorted(tmp_path.iterdir()) == before  # no output file is written

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "parallelogram", "params": [], "d": 400},
            {"kind": "trapezoids", "params": ["1"], "d": 400},
            {"kind": "vector_split", "params": {"d": 400, "m": 2, "rows": [["2"], ["-1"]]}},
        ],
        ids=["parallelogram", "trapezoids", "vector_split"],
    )
    def test_large_d_refused_before_building(self, tmp_path, capsys, fields):
        # d rows of 4d Fractions each would take seconds to build at d = 400
        start = time.perf_counter()
        code = main(["app", _spec_file(tmp_path, **fields), "--out-dir", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UnsupportedDimension"
        assert elapsed < 0.5


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


def _mutate(data, doc, below=()):
    """One drawn mutation of a JSON document at or under doc[below]: a leaf
    replaced by a drawn value, a key of an object deleted or a list
    truncated; nothing when that part holds none of these."""
    node = doc
    for key in below:
        node = node[key]
    nodes = list(_json_paths(node, below))
    targets = {
        "replace": [p for p, n in nodes if p and not isinstance(n, (dict, list))],
        "delete": [p for p, n in nodes if isinstance(n, dict) and n],
        "truncate": [p for p, n in nodes if isinstance(n, list) and n],
    }
    kinds = [kind for kind, paths in targets.items() if paths]
    if not kinds:
        return
    kind = data.draw(hs.sampled_from(kinds))
    path = data.draw(hs.sampled_from(targets[kind]))
    parent = doc
    for key in path[:-1] if kind == "replace" else path:
        parent = parent[key]
    if kind == "replace":
        parent[path[-1]] = data.draw(_JSON_VALUES)
    elif kind == "delete":
        del parent[data.draw(hs.sampled_from(sorted(parent)))]
    else:
        del parent[data.draw(hs.integers(0, len(parent) - 1)):]


def _assert_enveloped(argv, bare=()):
    """main(argv) ends in exit 0, 1 or 2, with the JSON envelope on 1 and 2,
    and raises nothing.  An exit code in `bare` may also come with nothing
    on stderr: the oracle's exit 1 for instances found."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code and not (code in bare and not err.getvalue()):
        assert "error" in json.loads(err.getvalue())


class TestCertifyFuzz:
    """certify is a trust boundary: a mutated tree never ends in a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(data=hs.data())
    def test_mutated_tree(self, ap_doc_8, tmp_path_factory, data):
        doc = json.loads(json.dumps(ap_doc_8))
        _mutate(data, doc)
        tree = tmp_path_factory.mktemp("fuzz") / "tree.json"
        tree.write_text(json.dumps(doc))
        _assert_enveloped(["certify", str(tree), "--mode", "all"])


#: A valid spec of every app kind; d, depth, h and precision are drawn.
_APP_SPECS = {
    "quotients": {"params": ["2", "3/2"]},
    "differences": {
        "params": [{"kind": "rational", "value": "1/2"}, {"kind": "log_of", "value": "2"}],
    },
    "planes": {"params": [["1", "-2", "1"]]},
    "ratios": {"params": ["2"]},
    "parallelogram": {"params": []},
    "trapezoids": {"params": ["1"]},
    "complex_triplets": {"params": [[["0", "0"], ["1", "0"], ["0", "1"]]]},
    "vector_split": {"params": {"d": 1, "m": 2, "rows": [["2", "-1"]]}},
}

#: Values that are not a JSON integer >= 1.
_BAD_INTS = [-1, 0, 2.5, "2", None, True, [], {}]
_BAD_FIELDS = {
    "kind": hs.one_of(hs.sampled_from(sorted(_APP_SPECS)), _JSON_VALUES),
    "h": hs.sampled_from(["pow:0", "pow:-1", "pow:7", "pow:x", "", "log:1", 3, None]),
    # past MAX_D and past the level cap
    "d": hs.sampled_from(_BAD_INTS + [6, 10**9]),
    "depth": hs.sampled_from(_BAD_INTS + [97, 10**9]),
    "precision": hs.sampled_from(_BAD_INTS),
}


class TestAppFuzz:
    """lacuna app reads a spec from outside: a mutated spec of any kind ends
    in exit 0, 1 or 2, with the envelope on 1 and 2, never in a traceback.

    A valid spec of a drawn kind gets up to two mutations: a new kind, a bad
    d, depth, h or precision, a top-level key deleted, or a mutation of its
    params (_mutate).  A valid depth is at most 6 (and d * depth at most 12)
    and a valid precision at most 128, so that every run stays small: a
    large precision is valid and makes the differences app's enclosures
    arbitrarily expensive."""

    @settings(max_examples=200, deadline=None)
    @given(data=hs.data())
    def test_mutated_spec(self, tmp_path_factory, data):
        kind = data.draw(hs.sampled_from(sorted(_APP_SPECS)))
        d = data.draw(hs.integers(1, 3))
        spec = {
            "kind": kind,
            **json.loads(json.dumps(_APP_SPECS[kind])),
            "h": data.draw(hs.sampled_from(["pow:1/2", "pow:1/4", "powlog:1/1"])),
            "d": d,
            "depth": data.draw(hs.integers(0, min(6, 12 // d))),
            "precision": data.draw(hs.integers(1, 128)),
        }
        for _ in range(data.draw(hs.integers(0, 2))):
            how = data.draw(hs.sampled_from([*_BAD_FIELDS, "drop", "params"]))
            if how in _BAD_FIELDS:
                spec[how] = data.draw(_BAD_FIELDS[how])
            elif how == "drop":
                del spec[data.draw(hs.sampled_from(sorted(spec)))]
            elif "params" in spec:
                _mutate(data, spec, ("params",))
        work = tmp_path_factory.mktemp("app-fuzz")
        (work / "spec.json").write_text(json.dumps(spec))
        _assert_enveloped(["app", str(work / "spec.json"), "--out-dir", str(work / "out")])


#: Each pattern file with a valid points file whose points hold instances
#: of the pattern, so that unmutated inputs exit 1.
_ORACLE_INPUTS = [
    (AP_DOC, {"d": 1, "points": [["1"], ["9/8"], ["5/4"], ["3/2"], ["7/4"], ["2"]]}),
    (Q_DOC, {"d": 1, "points": [["1"], ["5/4"], ["3/2"], ["2"]]}),
    (P2_DOC, {"d": 2, "points": [["1", "1"], ["3/2", "1"], ["2", "1"], ["1", "2"], ["2", "2"]]}),
]


def _points_text(doc):
    """A lacuna-points file from {"d": d, "points": rows}, rendering every
    value with str(), so that a mutated document gives malformed lines."""
    lines = [f"# lacuna-points/1 d={doc['d']}"] if "d" in doc else []
    lines += [" ".join(map(str, row)) if isinstance(row, list) else str(row)
              for row in doc.get("points", [])]
    return "\n".join(lines) + "\n"


class TestOracleAndBuildFuzz:
    """lacuna oracle reads a points file and a pattern file, lacuna build a
    pattern file: mutated ones end in exit 0, 1 or 2, with the envelope on
    1 and 2, never in a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(data=hs.data())
    def test_oracle_mutated_inputs(self, tmp_path_factory, data):
        patterns, points = json.loads(json.dumps(data.draw(hs.sampled_from(_ORACLE_INPUTS))))
        for doc in data.draw(hs.sampled_from([[points], [patterns], [points, patterns]])):
            _mutate(data, doc)
        work = tmp_path_factory.mktemp("oracle-fuzz")
        (work / "pts.txt").write_text(_points_text(points))
        (work / "pat.json").write_text(json.dumps(patterns))
        tol = data.draw(hs.sampled_from(["0", "1/100", "1", "-1", "x"]))
        _assert_enveloped(["oracle", str(work / "pts.txt"), "--patterns",
                           str(work / "pat.json"), "--tol", tol], bare=(1,))

    @settings(max_examples=100, deadline=None)
    @given(data=hs.data())
    def test_build_mutated_patterns(self, tmp_path_factory, data):
        patterns = json.loads(json.dumps(data.draw(hs.sampled_from([AP_DOC, Q_DOC, P2_DOC]))))
        _mutate(data, patterns)
        work = tmp_path_factory.mktemp("build-fuzz")
        (work / "pat.json").write_text(json.dumps(patterns))
        h = data.draw(hs.sampled_from(["pow:1/2", "pow:1/4", "powlog:1/1"]))
        depth = data.draw(hs.integers(0, 6))
        _assert_enveloped(["build", str(work / "pat.json"), "--dimfn", h,
                           "--depth", str(depth), "--out", str(work / "tree.json")])


class TestExport:
    @pytest.mark.parametrize("fmt", ["points", "csv", "svg"])
    def test_export_makes_each_level_once(self, ap_file, tmp_path, monkeypatch, fmt):
        # an export walks the levels to the depth and keeps none: levels
        # 1..12 are made once each, with the avoidance levels M = 6 and 11
        main(build_args(ap_file, tmp_path, depth=12))
        made = _count_levels_made(monkeypatch)
        out = str(tmp_path / f"out.{fmt}")
        assert main(["export", str(tmp_path / "tree.json"), "--format", fmt, "--out", out]) == 0
        assert made == [None] * 5 + [6] + [None] * 4 + [11, None]

    def test_points_roundtrip(self, ap_file, tmp_path):
        main(build_args(ap_file, tmp_path))
        pts = str(tmp_path / "pts.txt")
        assert main(["export", str(tmp_path / "tree.json"), "--format", "points", "--out", pts]) == 0
        d, den, points = read_points(pts)
        st = read_tree(tmp_path / "tree.json")
        assert d == 1 and [tuple(F(x, den) for x in p) for p in points] == leaf_centers(st)

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

    def test_csv_decimals_past_the_digit_limit(self, ap_file, tmp_path, capsys):
        # sys.get_int_max_str_digits() is 4300 by default: one decimal more
        # is refused with the envelope, before the file is opened
        main(build_args(ap_file, tmp_path))
        capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        csv = tmp_path / "pts.csv"
        argv = ["export", str(tmp_path / "tree.json"), "--format", "csv", "--out", str(csv)]
        assert main([*argv, "--decimals", str(limit + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["type"] == "UsageError"
        assert not csv.exists()
        assert main([*argv, "--decimals", str(limit)]) == 0
        rows = csv.read_text().splitlines()
        assert len(rows) == 65 and len(rows[1].partition(".")[2]) == limit

    def test_points_too_long_to_write(self, ap_file, tmp_path, capsys):
        # a beta_i of 4,299 digits is a JSON integer the reader accepts
        # (it is >= compute_beta), but the leaf coordinates then have more
        # digits than the interpreter renders: refused, and no file is left
        main(build_args(ap_file, tmp_path))
        tree = tmp_path / "tree.json"
        doc = json.loads(tree.read_text())
        doc["schedule"][0]["beta_i"] = int("9" * 4299)
        tree.write_text(json.dumps(doc))
        capsys.readouterr()
        pts = tmp_path / "pts.txt"
        assert main(["export", str(tree), "--format", "points", "--out", str(pts)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["type"] == "UsageError"
        assert "too large to write" in json.loads(err)["error"]["message"]
        assert not pts.exists()

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
        text = svg.read_text()
        assert text.count("<rect") == 1 + 4 + 16 + 16
        # every outline lies in the 720 x 720 viewBox, level 0 on all of it
        rects = [
            [float(v) for v in r]
            for r in re.findall(r'x="(.*?)" y="(.*?)" width="(.*?)" height="(.*?)"', text)
        ]
        assert rects[0] == [0, 0, 720, 720]
        assert all(0 <= x and 0 <= y and x + w <= 720 and y + h <= 720 for x, y, w, h in rects)

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

    def test_unreduced_repeat_is_refused(self, ap_file, tmp_path, capsys):
        # 2/4 is 1/2: the repeat is found on reduced coordinates
        pts = _points_file(tmp_path, "d=1", b"2/4\n3/2\n1/2\n")
        assert main(["oracle", pts, "--patterns", ap_file]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "FormatError",
            "message": "point '1/2' repeats an earlier point",
        }

    @pytest.mark.parametrize(
        "body, message",
        [
            # a repeat before a refused line is refused first, as a
            # line-by-line read finds it
            (b"1\n\n 3/2 \n2/2\nx\n", "point '2/2' repeats an earlier point"),
            (b"1\nx\n1\n", "not a rational 'p/q' literal: 'x'"),
            (b"1\n3/2 2\n1\n", "point '3/2 2' does not have 1 coordinates"),
            # a bad token is refused before the coordinate count
            (b"1\n3/2 x\n", "not a rational 'p/q' literal: 'x'"),
            (b"1\n" + b"1" * 4301 + b"\n", "rational literal too long"),
        ],
        ids=["repeat-then-bad-token", "bad-token", "count",
             "bad-token-before-count", "too-many-digits"],
    )
    def test_points_refusals(self, tmp_path, body, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            read_points(_points_file(tmp_path, "d=1", body))

    def test_points_long_blank_and_unreduced_lines(self, tmp_path):
        # a line longer than the digit limit, of tokens within it, is read
        long = b"0" * 4299 + b"1/2"
        assert len(long) > sys.get_int_max_str_digits()
        # with -2/8, L = lcm(1, 2, 8) = 8 and g = gcd(8, 8, 4, -2) = 2
        pts = _points_file(tmp_path, "d=1", b"\n1\n \t\n" + long + b"\n-2/8\n")
        assert read_points(pts) == (1, 4, [(4,), (2,), (-1,)])

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
        # the spec's "level_cap" is ignored like any unknown key: depth 97
        # is past the level cap of 96 however it is set
        spec = tmp_path / "app.json"
        spec.write_text(json.dumps(
            {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 97,
             "level_cap": 200}
        ))
        code = main(["app", str(spec), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ScheduleOverflow"

    def test_app_makes_the_levels_to_the_last_avoidance_level(
        self, tmp_path, capsys, monkeypatch
    ):
        # the parallelogram app of bench/run.py: entries at M = 3, 5, ..., 11
        # at depth 12, so levels 1..11 are made, each once, and level 12
        # (16,384 cubes that no check reads) is not
        spec = _spec_file(tmp_path, kind="parallelogram", params=[], h="pow:1/4", d=2,
                          depth=12)
        made = _count_levels_made(monkeypatch)
        assert main(["app", spec, "--out-dir", str(tmp_path / "o")]) == 0
        assert made == [None, None, 3, None, 5, None, 7, None, 9, None, 11]

    def test_difference_app_walks_once_per_reader(self, tmp_path, capsys, monkeypatch):
        # quotient target 2 lands its one entry at M_1 = 5: certify_tree
        # makes levels 1..5, then report.json's leaf centers walk 1..7, each
        # level made once per walk
        spec = _spec_file(tmp_path, kind="differences",
                          params=[{"kind": "log_of", "value": "2"}], depth=7)
        made = _count_levels_made(monkeypatch)
        assert main(["app", spec, "--out-dir", str(tmp_path / "o")]) == 0
        assert made == [None] * 4 + [5] + [None] * 4 + [5, None, None]

    def test_refused_app_leaves_no_out_dir(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, h="pow:7")
        assert main(["app", spec, "--out-dir", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "RejectNotDominated"
        assert not (tmp_path / "o").exists()


#: One spec per app kind, each small and deep enough to process an entry.
_APPS_WITH_ENTRIES = {
    "quotients": {"kind": "quotients", "params": ["2"], "h": "pow:1/2", "depth": 7},
    "differences": {"kind": "differences", "params": [{"kind": "log_of", "value": "2"}],
                    "h": "pow:1/2", "depth": 5},
    "planes": {"kind": "planes", "params": [["1", "-3", "2"]], "h": "pow:1/2", "depth": 7},
    "ratios": {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 7},
    "parallelogram": {"kind": "parallelogram", "h": "pow:1/4", "depth": 3},
    "trapezoids": {"kind": "trapezoids", "params": ["2"], "h": "pow:1/4", "depth": 3},
    "complex_triplets": {"kind": "complex_triplets",
                         "params": [[["0", "0"], ["1", "0"], ["2", "0"]]],
                         "h": "pow:1/4", "depth": 3},
    "vector_split": {"kind": "vector_split",
                     "params": {"m": 2, "d": 1, "rows": [["0", "0"], ["2", "-1"]]},
                     "h": "pow:1/2", "depth": 5},
}


class TestAppCertifiesAsCertify:
    @pytest.mark.parametrize("kind", sorted(_APPS_WITH_ENTRIES))
    def test_cert_matches_certify_of_its_tree(self, tmp_path, capsys, kind):
        # app is build, then `certify --mode all --spot-checks 100`
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_APPS_WITH_ENTRIES[kind]))
        out = tmp_path / "out"
        assert main(["app", str(spec), "--out-dir", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] >= 1
        again = tmp_path / "cert.json"
        assert main(["certify", str(out / "tree.json"), "--mode", "all",
                     "--spot-checks", "100", "--out", str(again)]) == 0
        assert (out / "cert.json").read_bytes() == again.read_bytes()


# Runs one command in a fresh interpreter and lists the lacuna modules it
# loaded; in-process tests cannot see this, since other tests import them all.
_FOOTPRINT = (
    "import sys\n"
    "from lacuna.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[2:])\n"
    "except SystemExit as exc:  # --help\n"
    "    code = exc.code\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(' '.join(m for m in sys.modules\n"
    "                      if m.startswith('lacuna.')\n"
    "                      or m in ('argparse', 'dataclasses', 'gettext', 'inspect', 'locale')))\n"
    "sys.exit(code)\n"
)


def _src_env() -> dict:
    """The environment for a child interpreter that imports this lacuna."""
    src = str(Path(lacuna.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


#: What every command loads: the command table, errors, JSON and pattern files.
_CLI_CORE = {"cli", "errors", "jsonfile", "pattern", "qmath", "record"}
#: The build's layers: it writes its recipe from the schedule walk alone.
_BUILD = _CLI_CORE | {"dimfn", "engine", "schedule"}
#: An app with an entry builds, then makes its levels: it loads the
#: geometry too.
_LEVELS = _BUILD | {"geometry"}
#: A step that reads a tree loads the tree reader, and no schedule walk;
#: a build does the reverse.
_RECIPE = _CLI_CORE | {"dimfn", "engine", "reader"}
#: A step that reads a tree and makes its levels (certify but in mode
#: measure, export) loads the geometry too.
_READ = _RECIPE | {"geometry"}


class TestImportFootprint:
    """Each command loads exactly the layers it runs, and none loads
    dataclasses or inspect, or argparse, gettext or locale (each a few
    milliseconds of start-up per step)."""

    def loaded(self, tmp_path, argv, code=0):
        out = tmp_path / "modules.txt"
        run = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, str(out), *argv],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == code, run.stderr
        return {m.removeprefix("lacuna.") for m in out.read_text().split()}

    def test_each_command_loads_only_its_layers(self, ap_file, tmp_path):
        tree, pts = str(tmp_path / "tree.json"), str(tmp_path / "pts.txt")
        # a pow gauge needs neither the ln and exp series nor, in a build,
        # the tree reader or the geometry
        assert self.loaded(tmp_path, build_args(ap_file, tmp_path)) == _BUILD
        # a step that reads a tree walks no schedule (_RECIPE): certify and
        # export load no lacuna.schedule, whatever the mode or format
        for mode in ("gap", "all"):
            certify = ["certify", tree, "--mode", mode]
            assert self.loaded(tmp_path, certify) == _READ | {"certify"}
        # the measure reads only the recipe: no level is made, no geometry
        measure = ["certify", tree, "--mode", "measure"]
        assert self.loaded(tmp_path, measure) == _RECIPE | {"certify"}
        # each export format loads its writer alone: only svg loads lacuna.svg
        csv = ["export", tree, "--format", "csv", "--out", str(tmp_path / "pts.csv")]
        assert self.loaded(tmp_path, csv) == _READ | {"export"}
        svg = ["export", tree, "--format", "svg", "--out", str(tmp_path / "tree.svg")]
        assert self.loaded(tmp_path, svg) == _READ | {"svg"}
        export = ["export", tree, "--format", "points", "--out", pts]
        assert self.loaded(tmp_path, export) == _READ | {"export"}
        # a depth-7 tree leaves uncovered progressions: the oracle finds them;
        # it reads points and patterns only, so no engine, schedule or gauge
        oracle = ["oracle", pts, "--patterns", ap_file]
        assert self.loaded(tmp_path, oracle, code=1) == _CLI_CORE | {"certify", "export"}
        # an app certifies by walking to its last avoidance level: the
        # ratios spec at depth 3 has no entry, makes no level and loads no
        # geometry, while at depth 7 it has one and loads it
        app = ["app", _spec_file(tmp_path), "--out-dir", str(tmp_path / "app-out")]
        assert self.loaded(tmp_path, app) == _BUILD | {"apps", "certify"}
        app = ["app", _spec_file(tmp_path, depth=7), "--out-dir", str(tmp_path / "app-7")]
        assert self.loaded(tmp_path, app) == _LEVELS | {"apps", "certify"}

    @pytest.mark.parametrize("mode", ["gap", "measure", "all"])
    def test_a_tree_with_no_entry_is_refused_before_the_geometry(
        self, ap_file, tmp_path, mode
    ):
        # depth 3 is below M_1 = 6: the recipe alone refuses the tree
        assert main(build_args(ap_file, tmp_path, depth=3)) == 0
        certify = ["certify", str(tmp_path / "tree.json"), "--mode", mode]
        assert self.loaded(tmp_path, certify, code=1) == _RECIPE | {"certify"}

    @pytest.mark.parametrize("kind", sorted(_APPS_WITH_ENTRIES))
    def test_each_app_kind_loads_only_its_layers(self, tmp_path, kind):
        # the difference app loads its module (with the exp series) and the
        # ln series, the complex triplets their module; no other kind loads
        # any of them
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_APPS_WITH_ENTRIES[kind]))
        extra = {"differences": {"differences", "lnexp"}, "complex_triplets": {"triplets"}}
        app = ["app", str(spec), "--out-dir", str(tmp_path / "app-out")]
        expected = _LEVELS | {"apps", "certify"} | extra.get(kind, set())
        assert self.loaded(tmp_path, app) == expected

    @pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"], ["oracle", "-h"]])
    def test_only_help_loads_the_usage_text(self, tmp_path, argv):
        # every other step's set above leaves lacuna.usage out
        assert self.loaded(tmp_path, argv) == _CLI_CORE | {"usage"}

    def test_ln_exp_and_differences_load_only_where_called(self, q_file, tmp_path):
        # quotient 2 under powlog:1/1 lands entry 1 at level 18, so the
        # gap-only certify has a gap to certify
        powlog = build_args(q_file, tmp_path, depth=18, dimfn="powlog:1/1", out="plog.json")
        assert self.loaded(tmp_path, powlog) == _BUILD | {"lnexp"}
        # the gap reads no gauge value, so the ln series is never loaded
        certify = ["certify", str(tmp_path / "plog.json"), "--mode", "gap"]
        assert self.loaded(tmp_path, certify) == _READ | {"certify"}
        out = ["--out-dir", str(tmp_path / "app-out")]
        spec = _spec_file(tmp_path, kind="parallelogram", params=[], h="pow:1/4")
        assert self.loaded(tmp_path, ["app", spec, *out]) == _LEVELS | {"apps", "certify"}
        targets = [{"kind": "log_of", "value": "2"}]
        spec = _spec_file(tmp_path, kind="differences", params=targets, depth=5)
        assert self.loaded(tmp_path, ["app", spec, *out]) == _LEVELS | {
            "apps", "certify", "differences", "lnexp"
        }

    def test_the_ln_series_loads_only_where_a_powlog_gauge_is_evaluated(
        self, q_file, tmp_path
    ):
        # a depth-0 build tests no ratio and an export reads no gauge value,
        # so neither loads the ln series
        setup = build_args(q_file, tmp_path, depth=0, dimfn="powlog:63/64", out="setup.json")
        assert self.loaded(tmp_path, setup) == _BUILD
        powlog = build_args(q_file, tmp_path, depth=18, dimfn="powlog:1/1", out="plog.json")
        assert main(powlog) == 0
        plog = str(tmp_path / "plog.json")
        export = ["export", plog, "--format", "points", "--out", str(tmp_path / "plog.txt")]
        assert self.loaded(tmp_path, export) == _READ | {"export"}
        # the measure evaluates the gauge at every level from k0 on
        for mode, layers in (("measure", _RECIPE), ("all", _READ)):
            certify = ["certify", plog, "--mode", mode]
            assert self.loaded(tmp_path, certify) == layers | {"certify", "lnexp"}


def _child(tmp_path, args, prefix=(), timeout=120, **kwargs):
    """`python -m lacuna.cli args` in a child, started through the command
    prefix if one is given.  Its stdout is block-buffered: PYTHONUNBUFFERED
    is removed from its environment, so a summary line reaches a pipe only
    if the process flushes it before it ends."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [*prefix, sys.executable, "-m", "lacuna.cli", *args],
        cwd=tmp_path, env=env, text=True, timeout=timeout, **kwargs,
    )


class TestProcessExit:
    """run(), the process entry, ends without interpreter teardown; the
    exit code, the buffered output and the errors of a closed or broken
    stdout stay as they were with teardown."""

    def test_exit_codes_and_summary_through_a_pipe(self, ap_file, tmp_path):
        run = _child(tmp_path, build_args(ap_file, tmp_path), capture_output=True)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.startswith("built d=1 depth=7: ")
        pts = tmp_path / "pts.txt"
        pts.write_text("# lacuna-points/1 d=1\n1\n5/4\n3/2\n")
        oracle = ["oracle", str(pts), "--patterns", ap_file]
        run = _child(tmp_path, oracle, capture_output=True)
        assert (run.returncode, run.stdout, run.stderr) == (1, "pattern 0: 2 instance(s)\n", "")
        run = _child(tmp_path, ["certify", str(tmp_path / "missing.json")], capture_output=True)
        assert (run.returncode, run.stdout) == (2, "")
        assert json.loads(run.stderr)["error"]["type"] == "FileNotFoundError"

    def test_broken_pipe_is_reported_as_with_teardown(self, ap_file, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = _child(tmp_path, build_args(ap_file, tmp_path), stdout=write_end,
                         stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        # the interpreter's own report of an unflushable stdout, exit 120
        assert run.returncode == 120
        first, second = run.stderr.splitlines()
        assert first.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert second == "BrokenPipeError: [Errno 32] Broken pipe"

    def test_closed_stdout(self, ap_file, tmp_path):
        closed = ["sh", "-c", '"$@" >&-', "sh"]  # runs the child with fd 1 closed
        run = _child(tmp_path, build_args(ap_file, tmp_path), closed, stderr=subprocess.PIPE)
        assert (run.returncode, run.stderr) == (0, "")
        assert (tmp_path / "tree.json").is_file()

    def test_closed_stderr(self, tmp_path):
        # the envelope has nowhere to go: it must not land on stdout
        closed = ["sh", "-c", '"$@" 2>&-', "sh"]  # runs the child with fd 2 closed
        args = ["build", "missing.json", "--dimfn", "pow:1/2", "--depth", "5"]
        run = _child(tmp_path, args, closed, stdout=subprocess.PIPE)
        assert (run.returncode, run.stdout) == (2, "")

    def test_stderr_with_no_reader_keeps_the_exit_code(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        args = ["build", "missing.json", "--dimfn", "pow:1/2", "--depth", "5"]
        try:
            run = _child(tmp_path, args, stdout=subprocess.PIPE, stderr=write_end)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stdout) == (2, "")

    def test_run_turns_the_collector_off_and_main_does_not(
        self, ap_file, tmp_path, monkeypatch
    ):
        assert gc.isenabled()
        assert main(build_args(ap_file, tmp_path)) == 0
        assert gc.isenabled()
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
        monkeypatch.setattr(os, "_exit", seen.append)
        try:
            cli.run()
        finally:
            gc.enable()
        assert seen == [False, 0]

    def test_help(self, tmp_path):
        run = _child(tmp_path, ["--help"], capture_output=True)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.startswith("usage: lacuna {build,")


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
