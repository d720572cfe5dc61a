"""lacuna benchmark: CLI wall time, peak RSS and tree bytes per workload.

Usage, from the root of a lacuna checkout:

    python3 bench/run.py --workload quotient-powlog --seed 1 --seconds 30 --trace 0

Each workload is a fixed sequence of ``lacuna`` CLI steps.  The seed picks
one of two inputs of the same schedule shape and cost (a primary one and a
held-out variant); the program receives only the generated input files.
Every step's exit code is checked, its stderr is searched for a Python
traceback, and the files it writes are checked against sha256 digests
pinned from the seed implementation.

``--trace 0`` runs the set-up step and the steps as child processes, one
at a time, in passes repeated for ``--seconds``.  Each metric is the median
over the passes.  Times are in reference seconds, not wall seconds: the
host's CPU speed switches between modes about 1.8x apart, for a fraction
of a second to minutes at a time, so the benchmark and its children are
pinned to one CPU, a thread of the benchmark times a short probe loop on
that CPU every ``PROBE_PERIOD_S``, and each interval is measured as its
wall time weighted by the speed the probes saw during it (see
``ReferenceClock``).  ``--trace 1`` spends half the time on untraced passes
and half on traced replays of the same steps (``bench/replay.py``), and
reports per-layer metrics derived from the replays' spans, measured on the
same reference clock.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run outputs,
spans and a result file with the interpreter version, nproc, the commit
and every pass's wall and reference times land in
``.bench_work/<workload>/`` under the checkout.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REPLAY = Path(__file__).resolve().parent / "replay.py"

#: The whole run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Fixed hash seed for every child, so runs do not depend on the caller.
HASH_SEED = "0"
#: Variables removed from the child environment because they change builds.
DROPPED_ENV = ("LACUNA_LEVEL_CAP",)
#: Speed probe: its size, how often it runs, and its time in the fast mode
#: of the 2-vCPU Intel Xeon host the benchmark was written on (Python 3.11.7).
PROBE_ROUNDS = 400
PROBE_PERIOD_S = 0.025
PROBE_REF_S = 0.00085


def _patterns(d: int, *coeffs: list[list[str]]) -> dict:
    return {"d": d, "patterns": [{"m": len(c), "coeffs": c} for c in coeffs]}


def _app(kind: str, params: list, depth: int) -> dict:
    return {"kind": kind, "params": params, "h": "pow:1/4", "d": 2, "depth": depth}


# Per workload: the two inputs (primary, then held-out variant) with the
# sha256 of every checked output, the steps with their expected exit codes,
# the set-up step and the file whose size is tree_bytes.  Digests were
# recorded from the seed implementation.  Each held-out variant has the same
# betas, avoidance levels, cube counts and placed-cube counts as its primary.
WORKLOADS = {
    "quotient-powlog": {
        "inputs": [
            {
                "files": {"patterns.json": _patterns(1, [["3/2"], ["-1"]])},
                "digests": {
                    "cert.json": "8ef1883619c8837a4b980dec069cb9b5efeb2be7e3ef8908b9622a81b2d43052",
                    "points.txt": "abdecc1490cff7df2ff0e4c878d0bbacae03cff58cdfef06e4a047ed2f0151a7",
                },
            },
            {
                "files": {"patterns.json": _patterns(1, [["4/3"], ["-1"]])},
                "digests": {
                    "cert.json": "d72aea92191f6bd47d0cce76c3845e1858354e533b1a61edd4ccf22ef0eefea1",
                    "points.txt": "fe9525eb50c9a47930c0535e28ec102afe6328214dde236122092b8094bf9119",
                },
            },
        ],
        "steps": [
            (["build", "patterns.json", "--dimfn", "powlog:63/64", "--depth", "14",
              "--out", "tree.json"], 0),
            (["certify", "tree.json", "--mode", "all", "--spot-checks", "100",
              "--out", "cert.json"], 0),
            (["export", "tree.json", "--format", "points", "--out", "points.txt"], 0),
        ],
        "setup": ["build", "patterns.json", "--dimfn", "powlog:63/64", "--depth", "0",
                  "--out", "setup-tree.json"],
        "tree": "tree.json",
    },
    "parallelogram-app": {
        "inputs": [
            {
                "files": {
                    "spec.json": _app("parallelogram", [], 12),
                    "setup-spec.json": _app("parallelogram", [], 0),
                },
                "digests": {
                    "app-out/cert.json": "a537b6b20e11ed147fcdf0763c063174abe8fb1bc4c357d66fdd9e4b57d1f76b",
                },
            },
            {
                "files": {
                    "spec.json": _app("trapezoids", ["1"], 12),
                    "setup-spec.json": _app("trapezoids", ["1"], 0),
                },
                "digests": {
                    "app-out/cert.json": "c9d9d0afcb8afc734eafdf0a896d4ca8a2610781788aa1018c063e90af064df2",
                },
            },
        ],
        "steps": [(["app", "spec.json", "--out-dir", "app-out"], 0)],
        "setup": ["app", "setup-spec.json", "--out-dir", "setup-out"],
        "tree": "app-out/tree.json",
    },
    "ap-oracle": {
        "inputs": [
            {
                "files": {"patterns.json": _patterns(1, [["1"], ["-2"], ["1"]])},
                "digests": {
                    "cert.json": "b679c612b30cb3435acc2706c72a54078a428ce82d6d8b6e3145df1602d49101",
                    "points.txt": "6cba2e421f449e2a3c080801b665ec2ac9abaafde81f7f4654600f77d5e1e5a7",
                    "oracle.json": "3a222e8a82cdb650e4f86c9a33c2a475551a0e0735c9ccad20e515e7cb26e6f2",
                },
            },
            {
                "files": {"patterns.json": _patterns(1, [["1"], ["1"], ["-2"]])},
                "digests": {
                    "cert.json": "8de4b2a8c2c3730ca86a0ad76aa4e6b40d01fb8b9ca5ace107052a7c5010050b",
                    "points.txt": "5e09a3bfb3007044b54177030c3ad7912e25bfccca32ecd022b293a777e10dab",
                    "oracle.json": "7148ca7f118d4b3261a7d1c9013324eec07e7e7db050ec32876c539834d78162",
                },
            },
        ],
        "steps": [
            (["build", "patterns.json", "--dimfn", "pow:1/2", "--depth", "7",
              "--out", "tree.json"], 0),
            (["certify", "tree.json", "--mode", "all", "--spot-checks", "100",
              "--out", "cert.json"], 0),
            (["export", "tree.json", "--format", "points", "--out", "points.txt"], 0),
            # the exhaustive oracle finds instances among unprocessed tuples
            (["oracle", "points.txt", "--patterns", "patterns.json", "--tol", "0",
              "--out", "oracle.json"], 1),
        ],
        "setup": ["build", "patterns.json", "--dimfn", "pow:1/2", "--depth", "0",
                  "--out", "setup-tree.json"],
        "tree": "tree.json",
    },
}

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "tree_bytes": "B",
}

# Per-layer metrics from the replay's spans: (span name, span kind or None,
# what, unit), where what is "self" for the spans' summed self time or the
# name of a span attribute to sum.
LAYER_METRICS = {
    "engine.init_s": ("engine.init", None, "self", "s"),
    "engine.dyadic_s": ("engine.level", "dyadic", "self", "s"),
    "engine.dyadic_cubes": ("engine.level", "dyadic", "cubes", "count"),
    "engine.avoid_s": ("engine.level", "avoidance", "self", "s"),
    "engine.avoid_cubes": ("engine.level", "avoidance", "cubes", "count"),
    "engine.validate_s": ("engine.validate", None, "self", "s"),
    "engine.write_s": ("engine.write", None, "self", "s"),
    "engine.read_s": ("engine.read", None, "self", "s"),
    "schedule.level_search_s": ("schedule.level_search", None, "self", "s"),
    "schedule.entries": ("schedule.level_search", None, "entries", "count"),
    "certify.gap_s": ("certify.gap", None, "self", "s"),
    "certify.placed_cubes": ("certify.gap", None, "placed_cubes", "count"),
    "certify.spot_s": ("certify.spot", None, "self", "s"),
    "certify.spot_tuples": ("certify.spot", None, "tuples", "count"),
    "certify.measure_s": ("certify.measure", None, "self", "s"),
    "certify.measure_levels": ("certify.measure", None, "levels", "count"),
    "certify.oracle_s": ("certify.oracle", None, "self", "s"),
    "certify.oracle_tuples": ("certify.oracle", None, "tuples", "count"),
    "certify.oracle_instances": ("certify.oracle", None, "instances", "count"),
    "export.points_write_s": ("export.points_write", None, "self", "s"),
    "export.points": ("export.points_write", None, "points", "count"),
    "export.points_read_s": ("export.points_read", None, "self", "s"),
    "apps.run_app_s": ("apps.run_app", None, "self", "s"),
}
LAYER_UNITS = {
    **{name: spec[3] for name, spec in LAYER_METRICS.items()},
    "certify.gap_exact_ratio": "ratio",
}
# Untraced CLI steps, the traced replay of the same steps (medians of the
# per-pass sums) and their difference, the tracing overhead.
TRACE_UNITS = {**LAYER_UNITS, "replay.total_s": "s", "cli.total_s": "s", "trace.overhead_s": "s"}


def probe() -> None:
    """A fixed loop of exact rational arithmetic, lacuna's main work."""
    acc = Fraction(0)
    for i in range(PROBE_ROUNDS):
        acc += Fraction(i % 97 + 1, i % 89 + 2)


class ReferenceClock:
    """Maps ``time.perf_counter`` times to reference seconds.

    While open, a thread runs ``probe`` every ``PROBE_PERIOD_S`` and keeps
    the speed it ran at, ``PROBE_REF_S`` over its time.  A probe that lost
    the CPU or the interpreter lock part way is dropped.  The reference
    time of an interval is the integral of that speed over it, linear
    between probes, so a child that did the same work reads the same at
    either host speed.  Children run on the same CPU, and perf_counter is
    the system's monotonic clock, which they share.
    """

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._ref: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "ReferenceClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._ref = [0.0]
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            self._ref.append(self._ref[-1] + dt * (self.speeds[i - 1] + self.speeds[i]) / 2)

    def _sample(self) -> None:
        stopped = False
        while not stopped:
            cpu, start = time.thread_time(), time.perf_counter()
            probe()
            wall, cpu = time.perf_counter() - start, time.thread_time() - cpu
            if cpu >= 0.8 * wall:
                self.times.append(start + wall / 2)
                self.speeds.append(PROBE_REF_S / wall)
            stopped = self._stop.wait(PROBE_PERIOD_S)

    def at(self, t: float) -> float:
        """Reference seconds from the first probe to perf_counter time t."""
        times, ref = self.times, self._ref
        if len(times) < 2:
            return t  # too few probes to tell the speed: wall time
        i = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
        return ref[i] + (t - times[i]) * (ref[i + 1] - ref[i]) / (times[i + 1] - times[i])

    def span(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)


def pin_to_one_cpu() -> int:
    """Pin this process, and so its children, to one CPU; return its number.

    The host's CPUs change speed independently, so a probe tells the speed
    a child ran at only if both ran on the same CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv: list[str], cwd: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion; its perf_counter start and end, exit code
    and its own rusage."""
    out = open(cwd / f"{tag}.out", "wb")
    err = open(cwd / f"{tag}.err", "wb")
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        out.close()
        err.close()
    stderr = (cwd / f"{tag}.err").read_text(errors="replace")
    return {
        "start": start,
        "end": end,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "traceback": "Traceback (most recent call last)" in stderr,
    }


def child_problems(rec: dict, want_code: int) -> list[str]:
    problems = []
    if rec["code"] != want_code:
        problems.append(f"exit {rec['code']}, expected {want_code}")
    if rec["traceback"]:
        problems.append("Python traceback on stderr")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(workdir: Path, digests: dict, problems: list[str]) -> None:
    for name, want in digests.items():
        path = workdir / name
        got = sha256(path) if path.exists() else "missing"
        if got != want:
            problems.append(f"{name}: sha256 {got}, pinned {want}")


def write_inputs(workdir: Path, files: dict) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in files.items():
        (workdir / name).write_text(json.dumps(doc, indent=1) + "\n")


class Counter:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


class Runner:
    """Runs one workload input in a directory; every child is checked."""

    def __init__(self, wl: dict, inp: dict, deadline: float):
        self.wl = wl
        self.inp = inp
        self.deadline = deadline
        self.counter = Counter()

    def clear_outputs(self, workdir: Path) -> None:
        """Remove the checked files and the tree, so each pass makes its own."""
        for name in [*self.inp["digests"], self.wl["tree"]]:
            (workdir / name).unlink(missing_ok=True)

    def cli_pass(self, workdir: Path, n: int) -> list[dict] | None:
        """One untraced pass: the set-up step, then the steps; or None."""
        self.clear_outputs(workdir)
        steps = [(self.wl["setup"], 0), *self.wl["steps"]]
        records = []
        for i, (args, want_code) in enumerate(steps):
            tag = "setup" if i == 0 else args[0]
            rec = run_child(lacuna_cli(args), workdir, f"pass{n}-{tag}", self.deadline)
            problems = child_problems(rec, want_code)
            if i == len(steps) - 1 and not problems:
                check_digests(workdir, self.inp["digests"], problems)
            if not self.counter.check(f"pass {n} {tag}", problems):
                return None
            records.append(rec)
        return records

    def replay(self, workdir: Path, n: int) -> list[dict] | None:
        """One traced replay of the steps in a single child: its spans; or None."""
        self.clear_outputs(workdir)
        spans = f"spans{n}.jsonl"
        argv = [sys.executable, str(REPLAY), "steps.json", spans]
        problems = child_problems(run_child(argv, workdir, f"replay{n}", self.deadline), 0)
        if not problems:
            check_digests(workdir, self.inp["digests"], problems)
        if not self.counter.check(f"replay {n}", problems):
            return None
        with open(workdir / spans) as fh:
            return [json.loads(line) for line in fh]

    def repeat(self, seconds: float, once) -> list:
        """once(n) until the next call would overrun seconds; at least once."""
        results: list = []
        start = time.monotonic()
        last = 0.0
        while not results or time.monotonic() - start + last <= seconds:
            if time.monotonic() >= self.deadline:
                break
            t0 = time.monotonic()
            out = once(len(results))
            if out is None:
                break
            last = time.monotonic() - t0
            results.append(out)
        return results


def lacuna_cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "lacuna.cli", *args]


def on_clock(spans: list[dict], clock: ReferenceClock) -> list[dict]:
    """The spans with start and end in reference seconds."""
    return [{**s, "start": clock.at(s["start"]), "end": clock.at(s["end"])} for s in spans]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def step_times(spans: list[dict]) -> dict[str, float]:
    return {
        s["name"].split(".", 1)[1]: s["end"] - s["start"]
        for s in spans
        if s["parent"] is None and s["name"].startswith("step.")
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out = {}
    for metric, (name, kind, what, _) in LAYER_METRICS.items():
        picked = [
            s for s in spans
            if s["name"] == name and (kind is None or s["attrs"].get("kind") == kind)
        ]
        if what == "self":
            out[metric] = sum(own[s["id"]] for s in picked)
        else:
            out[metric] = sum(s["attrs"][what] for s in picked)
    gaps = [s for s in spans if s["name"] == "certify.gap"]
    out["certify.gap_exact_ratio"] = (
        sum(s["attrs"]["exact"] for s in gaps) / len(gaps) if gaps else 0.0
    )
    return out


def environment(cpu: int) -> dict:
    commit = "unknown"  # a checkout without git history is named by src_sha256
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((SRC / "lacuna").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "PYTHONHASHSEED": HASH_SEED,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(runner: Runner, workdir: Path, seconds: float):
    with ReferenceClock() as clock:
        passes = runner.repeat(seconds, lambda n: runner.cli_pass(workdir, n))
    # wall[pass][step] and ref[pass][step]; step 0 is the set-up step
    wall = [[rec["end"] - rec["start"] for rec in p] for p in passes]
    ref = [[clock.span(rec["start"], rec["end"]) for rec in p] for p in passes]
    tree = workdir / runner.wl["tree"]
    values = {
        "setup_s": median([r[0] for r in ref]),
        "build_s": median([r[1] for r in ref]),
        "total_s": median([sum(r[1:]) for r in ref]),
        "peak_rss_mb": median([max(rec["rss_mb"] for rec in p[1:]) for p in passes]),
        "tree_bytes": tree.stat().st_size if tree.exists() else 0,
    }
    lines = [
        f"{len(passes)} untraced pass(es), {len(clock.times)} speed probes; "
        "medians in reference s and in wall s"
    ]
    names = ["setup"] + [args[0] for args, _ in runner.wl["steps"]]
    for i, name in enumerate(names):
        rss = median([p[i]["rss_mb"] for p in passes])
        lines.append(
            f"  cli {name:<8} {median([r[i] for r in ref]):8.3f} ref s"
            f" {median([w[i] for w in wall]):8.3f} wall s  rss {rss:7.1f} MB"
        )
    return values, lines, {"wall_s": wall, "ref_s": ref}


def measure_layers(runner: Runner, cli_dir: Path, replay_dir: Path, seconds: float):
    (replay_dir / "steps.json").write_text(json.dumps(runner.wl["steps"]))
    with ReferenceClock() as clock:
        passes = runner.repeat(seconds / 2, lambda n: runner.cli_pass(cli_dir, n))
        replays = runner.repeat(seconds / 2, lambda n: runner.replay(replay_dir, n))
    replays = [on_clock(spans, clock) for spans in replays]
    per_replay = [layer_metrics(spans) for spans in replays]
    values = {name: median([r[name] for r in per_replay]) for name in LAYER_UNITS}
    names = [args[0] for args, _ in runner.wl["steps"]]
    cli = [[clock.span(rec["start"], rec["end"]) for rec in p[1:]] for p in passes]
    traced = [[step_times(spans)[n] for n in names] for spans in replays]
    values["cli.total_s"] = median([sum(p) for p in cli])
    values["replay.total_s"] = median([sum(r) for r in traced])
    values["trace.overhead_s"] = values["replay.total_s"] - values["cli.total_s"]
    lines = [
        f"{len(passes)} untraced pass(es), {len(replays)} traced replay(s), "
        f"{len(clock.times)} speed probes; spans in {replay_dir}/spans<n>.jsonl",
        "  step      median cli   median replay   overhead (reference s)",
    ]
    for i, name in enumerate(names):
        c = median([p[i] for p in cli])
        t = median([r[i] for r in traced])
        lines.append(f"  {name:<8} {c:10.3f} s {t:13.3f} s {t - c:+9.3f} s")
    return values, lines, {"cli_ref_s": cli, "replay_ref_s": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lacuna" / "cli.py").is_file():
        print(f"no lacuna sources under {SRC}; run from a lacuna checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    variant = args.seed % len(wl["inputs"])
    runner = Runner(wl, wl["inputs"][variant], time.monotonic() + RUN_LIMIT_S)
    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    cli_dir, replay_dir = base / "cli", base / "replay"
    write_inputs(cli_dir, runner.inp["files"])
    env = environment(pin_to_one_cpu())
    print(f"workload {args.workload} seed {args.seed} input variant {variant}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        values, lines, raw = measure_end_to_end(runner, cli_dir, args.seconds)
        units = END_TO_END
    else:
        write_inputs(replay_dir, runner.inp["files"])
        values, lines, raw = measure_layers(runner, cli_dir, replay_dir, args.seconds)
        units = TRACE_UNITS

    counter = runner.counter
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not counter.problems,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }
    (base / f"result-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "variant": variant, "raw": raw, **result}, indent=1) + "\n"
    )
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    for problem in counter.problems:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
