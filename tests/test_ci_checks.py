"""The helpers of tests/ci_checks.py fail when they should: each is fed a
tiny `python -c` child, never a lacuna run, and each failure names its
check."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import ci_checks
from ci_checks import CheckFailed, check_sha256, expect

ENVELOPE = json.dumps({"error": {"type": "UsageError", "message": "no"}})


def child(code: str) -> list[str]:
    return [sys.executable, "-c", code]


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_a_child_that_does_what_is_expected_passes():
    code = f"import sys; print('built 1'); print({ENVELOPE!r}, file=sys.stderr); sys.exit(2)"
    r = expect(child(code), 2, label="ok", error={"type": "UsageError"}, absent=["x.txt"],
               max_mb=100, stdout="^built 1$", timeout=30)
    assert (r.code, r.out) == (2, "built 1\n") and 0 < r.rss_mb < 100


def test_wrong_exit_code():
    with pytest.raises(CheckFailed, match="^exit-3: exit 3, expected 0; stderr ends "):
        expect(child("raise SystemExit(3)"), label="exit-3")


def test_traceback_on_stderr():
    with pytest.raises(CheckFailed, match="^raises: a Python traceback on stderr$"):
        expect(child("import os, sys\ntry:\n    1/0\nexcept Exception:\n"
                     "    import traceback; traceback.print_exc(); os._exit(0)"),
               label="raises")


@pytest.mark.parametrize(
    "stderr, fields, message",
    [
        ("", {}, "no error envelope on the last stderr line"),
        ('{"error": {"type": "UsageError"}}', {}, "no error envelope on the last stderr line"),
        (ENVELOPE, {"type": "FormatError"}, "envelope type is 'UsageError', expected 'FormatError'"),
        (ENVELOPE, {"message": "yes"}, "envelope message is 'no', expected 'yes'"),
    ],
    ids=["missing", "no-message", "wrong-type", "wrong-message"],
)
def test_missing_or_wrong_envelope_field(stderr, fields, message):
    code = f"import sys; sys.stderr.write({stderr!r}); sys.exit(2)"
    with pytest.raises(CheckFailed, match=f"^envelope: {message}$"):
        expect(child(code), 2, label="envelope", error=fields)


def test_file_left_behind():
    with pytest.raises(CheckFailed, match="^leaves: left out.json$"):
        expect(child("open('out.json', 'w')"), label="leaves", absent=["out.json"])


def test_digest_mismatch(tmp_path):
    expect(child("open('a.txt', 'w').write('a')"), label="writes")
    pin = hashlib.sha256(b"a").hexdigest()
    check_sha256({"a.txt": pin})
    with pytest.raises(CheckFailed, match=f"^sha256 of a.txt: {pin}, pinned 0{{64}}$"):
        check_sha256({"a.txt": "0" * 64})


def test_peak_rss_past_its_bound():
    # 64 MB written byte by byte, so every page is resident
    with pytest.raises(CheckFailed, match=r"^allocates: peak RSS \d+\.\d MB, bound 48 MB$"):
        expect(child("b = b'x' * (64 << 20)"), label="allocates", max_mb=48)


def test_stdout_without_the_line():
    with pytest.raises(CheckFailed, match="^prints: stdout has no match for '\\^built '"):
        expect(child("print('no built line')"), label="prints", stdout="^built ")


def test_timeout():
    with pytest.raises(CheckFailed, match="^sleeps: still running after 0.3 s, killed$"):
        expect(child("import time; time.sleep(30)"), label="sleeps", timeout=0.3)


def test_lacuna_is_this_interpreters():
    # the console script beside this interpreter, or this interpreter's -m
    assert ci_checks.LACUNA in (
        [str(ci_checks.SCRIPT)], [sys.executable, "-m", "lacuna.cli"]
    )


def test_lacuna_not_installed_runs_as_a_module(monkeypatch, tmp_path):
    def not_installed(name):
        raise ci_checks.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(ci_checks.metadata, "distribution", not_installed)
    assert ci_checks.lacuna_command(tmp_path / "lacuna") == [sys.executable, "-m", "lacuna.cli"]


def test_lacuna_installed_without_its_console_script(monkeypatch, tmp_path):
    # an installed distribution whose console script pip did not write:
    # the run fails, rather than falling back to -m
    monkeypatch.setattr(ci_checks.metadata, "distribution", lambda name: object())
    script = tmp_path / "bin" / "lacuna"
    argv = ci_checks.lacuna_command(script)
    assert argv == [str(script)]
    with pytest.raises(CheckFailed, match="^lacuna --help: could not be run: FileNotFoundError"):
        expect([*argv, "--help"], label="lacuna --help")
