"""Refusals that no other in-process test reaches, one case each: the call
raises its exception type with its message."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from lacuna import dimfn
from lacuna.apps import AppSpec, app_patterns
from lacuna.certify import brute_oracle
from lacuna.differences import difference_targets
from lacuna.engine import build, init_state
from lacuna.errors import DimensionMismatch, FormatError, StructureViolation, Undecidable
from lacuna.export import read_points
from lacuna.lnexp import ln_bounds
from lacuna.pattern import LinearPattern
from lacuna.qmath import decimal_ratio

F = Fraction


def _negative_depth(tmp_path, monkeypatch, ap_pattern, sqrt_gauge):
    build(init_state(1, [ap_pattern], sqrt_gauge), -1)


def _negative_tolerance(tmp_path, monkeypatch, ap_pattern, sqrt_gauge):
    brute_oracle([(1,), (2,), (3,)], ap_pattern, F(-1, 2))


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
