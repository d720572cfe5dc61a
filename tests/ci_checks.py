"""Every check of the CI job past the tier-1 tests, in one standard-library
script:

    python tests/ci_checks.py

It runs the checks in temporary directories with the interpreter that runs
it (3.10 or later, on Linux, for os.posix_spawn and os.wait4), in about a
minute, and exits 1 at the first check that fails, with a message that
names the check.  lacuna is the console script of the lacuna distribution
installed for that interpreter, and when none is installed, `python -m
lacuna.cli` with this checkout's src/ on PYTHONPATH.  The checks:

* the CLI contract: exit codes, the JSON error envelope on the last line of
  stderr, no file left by a refused command, and a timeout on each run that
  once ran for minutes;
* every row of tests/pins.py, the leaf-cap trees' peak RSS included, and
  refusals on the d=1 leaf-cap tree, each before any level is made;
* bench/run.py: every workload correct with no failed operation on seeds 0
  and 1, and its traced replay with non-zero layer counters on seed 0.

Every run is started by os.posix_spawn from a small `python -S` parent
(SPAWN), so the peak RSS that wait4 reports is the run's own, not a
high-water mark inherited from this process.  Its stdout and stderr go to
files, so stdout is block-buffered, and its stderr must hold no traceback.
pytest does not collect this file; tests/test_ci_checks.py tests its
helpers and its row runner.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from pins import AP_DOC, PINS, Q_DOC, Row, differences

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path(sysconfig.get_path("scripts")) / "lacuna"


def lacuna_command(script: Path = SCRIPT) -> list[str]:
    """How lacuna is run: by its console script when a lacuna distribution
    is installed for this interpreter, so that every run fails if pip wrote
    no script, and else by this interpreter's `-m lacuna.cli`."""
    try:
        metadata.distribution("lacuna")
    except metadata.PackageNotFoundError:
        return [sys.executable, "-m", "lacuna.cli"]
    return [str(script)]


LACUNA = lacuna_command()
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
if LACUNA[0] == sys.executable:
    ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))

#: Seconds a run may take unless its check gives fewer.
TIMEOUT = 300

#: The parent of every run, as `python -S -c SPAWN TIMEOUT OUT ERR ARGV...`:
#: it spawns ARGV with stdout to the file OUT (closed when OUT is "-") and
#: stderr to ERR, kills it after TIMEOUT seconds, and prints ARGV's exit
#: code, its peak RSS in KiB and 1 if it was killed (else 0).
SPAWN = """
import os, signal, sys
timeout, out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
if out == "-":
    actions.append((os.POSIX_SPAWN_CLOSE, 1))
else:
    actions.append((os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644))
pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
killed = []
def kill(*_):
    killed.append(pid)
    os.kill(pid, signal.SIGKILL)
signal.signal(signal.SIGALRM, kill)
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, usage = os.wait4(pid, 0)
signal.setitimer(signal.ITIMER_REAL, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, len(killed))
"""


class CheckFailed(Exception):
    """A check failed; the message names the run or file and what was seen."""


class Run(NamedTuple):
    label: str
    code: int
    rss_mb: float
    seconds: float
    out: str
    err: str


def run(argv: list[str], label: str, timeout: float = TIMEOUT, cwd: Path | None = None,
        closed_stdout: bool = False) -> Run:
    """One run of argv through SPAWN, in cwd (default: the current
    directory), its output kept in run.out and run.err there."""
    work = Path.cwd()
    out, err = work / "run.out", work / "run.err"
    start = time.perf_counter()
    parent = subprocess.run(
        [sys.executable, "-S", "-c", SPAWN, str(timeout), "-" if closed_stdout else str(out),
         str(err), *argv],
        cwd=cwd, env=ENV, capture_output=True, text=True, check=False,
    )
    seconds = time.perf_counter() - start
    if parent.returncode:
        tail = parent.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise CheckFailed(f"{label}: could not be run: {tail[0]}")
    code, rss_kb, killed = map(int, parent.stdout.split())
    if killed:
        raise CheckFailed(f"{label}: still running after {timeout} s, killed")
    text = "" if closed_stdout else out.read_text(errors="replace")
    return Run(label, code, rss_kb / 1024, seconds, text, err.read_text(errors="replace"))


def check_code(r: Run, code: int) -> None:
    """The run exited with code, and wrote no Python traceback."""
    if r.code != code:
        tail = r.err.strip().splitlines()[-1:] or ["(no stderr)"]
        raise CheckFailed(f"{r.label}: exit {r.code}, expected {code}; stderr ends {tail[0]}")
    if "Traceback (most recent call last)" in r.err:
        raise CheckFailed(f"{r.label}: a Python traceback on stderr")


def check_envelope(r: Run, fields: dict) -> None:
    """The last stderr line is {"error": {"type", "message"}}, holding each
    of the given fields with the given value."""
    try:
        error = json.loads(r.err.strip().splitlines()[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        error = None
    if not (isinstance(error, dict) and isinstance(error.get("type"), str)
            and isinstance(error.get("message"), str)):
        raise CheckFailed(f"{r.label}: no error envelope on the last stderr line")
    for key, want in fields.items():
        if error.get(key) != want:
            raise CheckFailed(f"{r.label}: envelope {key} is {error.get(key)!r}, expected {want!r}")


def check_absent(r: Run, paths: Sequence[str]) -> None:
    for path in paths:
        if os.path.exists(path):
            raise CheckFailed(f"{r.label}: left {path}")


def check_rss(r: Run, max_mb: float) -> None:
    if r.rss_mb >= max_mb:
        raise CheckFailed(f"{r.label}: peak RSS {r.rss_mb:.1f} MB, bound {max_mb} MB")


def check_stdout(r: Run, pattern: str) -> None:
    if not re.search(pattern, r.out, re.M):
        raise CheckFailed(f"{r.label}: stdout has no match for {pattern!r}: {r.out[:200]!r}")


def expect(argv: list[str], code: int = 0, *, label: str | None = None,
           error: dict | None = None, absent: Sequence[str] = (), max_mb: float | None = None,
           stdout: str | None = None, timeout: float = TIMEOUT, cwd: Path | None = None,
           closed_stdout: bool = False) -> Run:
    """Run argv and check it: its exit code, and where given its error
    envelope's fields, the files it must not leave, its peak RSS bound
    and a regular expression its stdout must match."""
    r = run(argv, label or " ".join(argv), timeout, cwd, closed_stdout)
    print(f"{r.label}: exit {r.code}, peak RSS {r.rss_mb:.1f} MB, {r.seconds:.2f} s", flush=True)
    check_code(r, code)
    if error is not None:
        check_envelope(r, error)
    check_absent(r, absent)
    if max_mb is not None:
        check_rss(r, max_mb)
    if stdout is not None:
        check_stdout(r, stdout)
    return r


def lacuna(*args: str, **checks) -> Run:
    return expect([*LACUNA, *args], label=" ".join(["lacuna", *args]), **checks)


def edit_json(src: str, dst: str, edit: Callable[[dict], object]) -> None:
    """Write to dst the JSON document of src, changed in place by edit."""
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc))


def check_row(name: str, row: Row) -> None:
    """Run a row of tests/pins.py in the current directory: its inputs, each
    step (exit code, no traceback, RSS bound), then each pinned sha256."""
    for path, doc in row.files.items():
        write(path, doc)
    for step in row.steps:
        lacuna(*step.args, code=step.code, max_mb=step.max_mb)
    for path, want in row.sha256.items():
        file = Path(path)
        got = hashlib.sha256(file.read_bytes()).hexdigest() if file.exists() else "missing"
        if got != want:
            raise CheckFailed(f"{name}: sha256 of {path}: {got}, pinned {want}")
    print(f"{name}: {len(row.sha256)} sha256 as pinned", flush=True)


USAGE = {"type": "UsageError"}
# the measure fails at level 5: a 1,000-digit beta_i on entry 1, or a gauge
# powlog:1/10000000 on a pow:1/2 tree
MEASURE_FAILS = {"type": "MeasureViolated", "message": "mass/ratio bound fails at level 5"}


def contract() -> None:
    """The CLI contract on small inputs: build -> certify -> export ->
    oracle, and the refusals."""
    print(f"lacuna is {' '.join(LACUNA)}", flush=True)
    for command in ([], ["certify"], ["oracle"]):
        lacuna(*command, "--help")
    write("q.json", Q_DOC)
    lacuna("build", "q.json", "--dimfn", "pow:1/2", "--depth", "10", "--out", "tree.json")
    lacuna("certify", "tree.json", "--out", "cert.json")
    lacuna("certify", "tree.json", "--spot", "5")  # a unique prefix selects --spot-checks
    for fmt, out in (("points", "pts.txt"), ("csv", "pts.csv"), ("svg", "tree.svg")):
        lacuna("export", "tree.json", "--format", fmt, "--out", out)
    lacuna("oracle", "pts.txt", "--patterns", "q.json")
    lacuna("certify", "missing.json", code=2)
    # past the leaf cap (2^20 cubes at level 26), refused from the schedule
    # walk; past the level cap 96, refused before any level is built
    lacuna("build", "q.json", "--dimfn", "pow:1/2", "--depth", "40", "--out", "big.json",
           code=2, error={}, absent=["big.json"])
    lacuna("build", "q.json", "--dimfn", "pow:1/2", "--depth", "97", code=2, error={})
    # powlog:1/1 at d=1 lands entry 1 at level 18, where h(r)/r is -ln r
    # alone; an export reads no gauge value
    lacuna("build", "q.json", "--dimfn", "powlog:1/1", "--depth", "18", "--out", "plog.json")
    lacuna("certify", "plog.json")
    lacuna("export", "plog.json", "--format", "points", "--out", "plog.txt")
    # powlog:1/10000000: every comparison refuses -ln r < 10^7 from its first
    # ln enclosure, so the build lands no entry, and a pow:1/2 tree edited to
    # this gauge fails its measure at level 5, each well within the timeout
    lacuna("build", "q.json", "--dimfn", "powlog:1/10000000", "--depth", "3",
           "--out", "small.json", stdout=", 0 schedule entries", timeout=30)
    edit_json("tree.json", "small-h.json", lambda doc: doc.update(h="powlog:1/10000000"))
    lacuna("certify", "small-h.json", "--mode", "measure", code=1, error=MEASURE_FAILS,
           timeout=30)
    # e^5000 has more digits than the interpreter renders: refused while the
    # documents are rendered, before out-dir is made
    write("huge.json", differences("5000"))
    lacuna("app", "huge.json", "--out-dir", "huge-out", code=2, error={}, absent=["huge-out"])
    # refused before exp_bounds runs, which took about 29 s (precision
    # 1,000,000) and over 60 s (t = 1,000,000)
    write("precise.json", {"kind": "differences", "params": [{"kind": "rational", "value": "1"}],
                           "h": "pow:1/2", "depth": 5, "precision": 1000000})
    write("far.json", differences("1000000"))
    for spec, out in (("precise.json", "precise-out"), ("far.json", "far-out")):
        lacuna("app", spec, "--out-dir", out, code=2, error=USAGE, absent=[out], timeout=10)
    # t = -1,000,000 is refused once exp_bounds' enclosure shows that the
    # midpoint cannot be written (3-5 s here, most of it in exp_bounds'
    # gcds on million-bit integers, which slow down quadratically on a
    # slower machine), where forming it and the build on it took about 57 s
    write("negative.json", differences("-1000000"))
    lacuna("app", "negative.json", "--out-dir", "negative-out", code=2, error=USAGE,
           absent=["negative-out"], timeout=30)
    # below the first avoidance level no gap is certified: --mode gap fails
    # as --mode all does, rather than exit 0
    write("ap.json", AP_DOC)
    lacuna("build", "ap.json", "--dimfn", "pow:1/2", "--depth", "3", "--out", "shallow.json")
    lacuna("certify", "shallow.json", "--mode", "gap", code=1)
    # a beta_i of 4,299 digits is a JSON integer the reader accepts, but the
    # leaf coordinates then have more digits than the interpreter renders
    lacuna("build", "ap.json", "--dimfn", "pow:1/2", "--depth", "7", "--out", "tampered.json")
    edit_json("tampered.json", "tampered.json",
              lambda doc: doc["schedule"][0].update(beta_i=int("9" * 4299)))
    lacuna("export", "tampered.json", "--format", "points", "--out", "tampered.txt",
           code=2, error={}, absent=["tampered.txt"])
    # the process ends without interpreter teardown: a block-buffered summary
    # line must still reach the file, and a closed stdout must exit 0
    lacuna("build", "q.json", "--dimfn", "pow:1/2", "--depth", "10", "--out", "buffered.json",
           stdout="^built d=1 depth=10: ")
    lacuna("build", "q.json", "--dimfn", "pow:1/2", "--depth", "10", "--out", "closed.json",
           closed_stdout=True)
    # bad values, and one decimal past the int/str digit limit (4300),
    # refused before the file is opened
    lacuna("build", "q.json", "--dimfn", "pow:1/2", "--depth", "x", code=2, error={})
    lacuna("export", "tree.json", "--format", "csv", "--decimals", "-1", "--out", "neg.csv",
           code=2, error={})
    lacuna("export", "tree.json", "--format", "csv", "--decimals", "4301", "--out", "long.csv",
           code=2, error={}, absent=["long.csv"])
    lacuna("certify", "tree.json", "--spot-checks", "-1", code=2, error={})
    # argument errors: no command, a required option missing, a value not
    # among the choices, a dash value that is no number
    lacuna("frobnicate", code=2, error={})
    lacuna("build", "q.json", "--depth", "3", code=2, error={})
    lacuna("export", "tree.json", "--format", "pdf", "--out", "x", code=2, error={})
    lacuna("oracle", "pts.txt", "--patterns", "q.json", "--tol", "-1/2", code=2, error={})
    # nested deeper than json's decoder recurses (a RecursionError under
    # 3.10-3.13): a FormatError for each kind of JSON input, no file written
    Path("deep.json").write_text("[" * 100_000 + "]" * 100_000)
    deep = {"type": "FormatError"}
    lacuna("certify", "deep.json", code=2, error=deep)
    lacuna("build", "deep.json", "--dimfn", "pow:1/2", "--depth", "3", "--out", "deep-tree.json",
           code=2, error=deep, absent=["deep-tree.json"])
    lacuna("app", "deep.json", "--out-dir", "deep-out", code=2, error=deep, absent=["deep-out"])
    # the oracle on a repeated point (2/2 is 1) and on a negative tolerance
    Path("dup.txt").write_text("# lacuna-points/1 d=1\n1\n3/2\n2/2\n")
    lacuna("oracle", "dup.txt", "--patterns", "q.json", code=2, error={})
    lacuna("oracle", "pts.txt", "--patterns", "q.json", "--tol", "-1", code=2, error={})


def leaf_cap() -> None:
    """Refusals on the d=1 leaf-cap tree, in the directory of its row."""
    # a 1,000-digit beta_i on entry 1 fails the measure, settled from the
    # recipe, and csv decimals past the digit limit are refused: both before
    # any level is made
    edit_json("tree.json", "tampered.json",
              lambda doc: doc["schedule"][0].update(beta_i=int("9" * 1000)))
    lacuna("certify", "tampered.json", "--mode", "all", code=1, error=MEASURE_FAILS, max_mb=64)
    lacuna("export", "tree.json", "--format", "csv", "--decimals", "4301", "--out", "long.csv",
           code=2, error=USAGE, absent=["long.csv"], max_mb=64)
    # --mode measure reads only the recipe: the measure of cert.json, no level
    lacuna("certify", "tree.json", "--mode", "measure", "--out", "measure.json", max_mb=64)
    with open("cert.json") as full, open("measure.json") as measure:
        if json.load(measure)["measure"] != json.load(full)["measure"]:
            raise CheckFailed("measure.json certifies another measure than cert.json")


def pins() -> None:
    """Every row of tests/pins.py, each in a directory of its own."""
    for name, row in PINS.items():
        os.chdir(tempfile.mkdtemp(dir="."))
        check_row(name, row)
        if name == "leaf-cap-d1":
            leaf_cap()
        os.chdir("..")


WORKLOADS = ("quotient-powlog", "parallelogram-app", "ap-oracle")


def bench(workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run of 2 s from the checkout's root; its result
    must be correct, with no failed operation."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", str(trace)]
    r = expect([sys.executable, "bench/run.py", *args], label=" ".join(["bench/run.py", *args]),
               cwd=ROOT)
    result = json.loads(r.out.splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise CheckFailed(f"{r.label}: correct {result['correct']}, failed {result['failed']}")
    return result


def benchmark() -> None:
    """Every workload's digests on seeds 0 and 1, then its traced replay.
    The replay reads the engine's levels and wraps the layer functions the
    CLI calls through their module attributes: a zero counter means the CLI
    no longer calls one of them so."""
    for workload in WORKLOADS:
        for seed in (0, 1):
            bench(workload, seed, 0)
    for workload in WORKLOADS:
        metrics = bench(workload, 0, 1)["metrics"]
        need = ["engine.avoid_cubes", "certify.measure_levels"]
        need += ["certify.oracle_instances"] if workload == "ap-oracle" else []
        for name in need:
            if metrics[name]["value"] <= 0:
                raise CheckFailed(f"bench/run.py --workload {workload} --trace 1: {name} is 0")


def main() -> int:
    start = time.perf_counter()
    for section in (contract, pins, benchmark):
        print(f"== {section.__name__}", flush=True)
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                section()
            except CheckFailed as exc:
                print(f"FAILED: {exc}", file=sys.stderr)
                return 1
            finally:
                os.chdir(ROOT)
    print(f"all checks passed in {time.perf_counter() - start:.1f} s ({sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
