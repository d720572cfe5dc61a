"""Traced in-process replay of a workload's ``lacuna`` CLI steps.

Usage (``bench/run.py --trace 1`` starts it in the workload's directory):

    python3 bench/replay.py steps.json spans.jsonl

steps.json lists ``[cli_args, expected_exit_code]`` pairs.  Each step runs
through ``lacuna.cli.main`` in this one process, so the replay writes the
CLI's own output files and returns its exit codes.  Before the first step
the layer functions the CLI and ``run_app`` reach through module attributes
(``engine.build_tree``, ``certify.certify_gap``, ``export.read_points`` and
the rest) are replaced by wrappers that record a span (name, start, end,
parent, attributes) around each call.  ``engine.build_tree`` is replayed
through the public ``init_state`` and ``build(state, k)``, one span per
level.  The spans are kept in memory and written out as JSON lines at exit.
The replay exits 1 if a step's exit code differs from the expected one.
"""

from __future__ import annotations

import gc
import inspect
import json
import sys
import time
from contextlib import contextmanager
from math import perm

from lacuna import apps, certify, cli, engine, export, schedule
from lacuna.errors import ScheduleOverflow


class Tracer:
    """In-memory spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def traced(tracer: Tracer, name: str, fn, attrs=None):
    """fn with a span around each call; attrs(bound_args, result) tags it."""
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        with tracer.span(name) as tags:
            result = fn(*args, **kwargs)
        if attrs is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tags.update(attrs(bound.arguments, result))
        return result

    return wrapper


def traced_build_tree(tracer: Tracer):
    """engine.build_tree, one level at a time, then the schedule guard."""

    def build_tree(d, patterns, h, depth, level_cap=schedule.DEFAULT_LEVEL_CAP):
        if depth > level_cap:
            raise ScheduleOverflow(f"depth {depth} exceeds the level cap {level_cap}")
        with tracer.span("engine.init"):
            state = engine.init_state(d, patterns, h, level_cap)
        for k in range(1, depth + 1):
            entries = len(state.m_levels)
            with tracer.span("engine.level", k=k) as tags:
                engine.build(state, k)
            tags["kind"] = "avoidance" if len(state.m_levels) > entries else "dyadic"
            tags["cubes"] = len(state.levels[k].lowers)
        # compute_levels on the realized betas: a guard on scheduling cost
        with tracer.span("schedule.level_search", entries=len(state.entries)):
            schedule.compute_levels(h, state.processed_betas(), level_cap=level_cap)
        return state

    return build_tree


def install_hooks(tracer: Tracer) -> None:
    """Replace the layer functions the CLI calls by traced wrappers."""
    hooks = {
        (engine, "validate_structure"): ("engine.validate", None),
        (engine, "write_tree"): ("engine.write", None),
        (engine, "read_tree"): ("engine.read", None),
        (certify, "certify_gap"): (
            "certify.gap",
            lambda a, cert: {
                "placed_cubes": sum(cert.placed_counts),
                "exact": int(cert.exact_min),
            },
        ),
        (certify, "spot_check_gap"): ("certify.spot", lambda a, _: {"tuples": a["count"]}),
        (certify, "certify_measure"): (
            "certify.measure",
            lambda a, measure: {"levels": len(measure.per_level)},
        ),
        (certify, "brute_oracle"): (
            "certify.oracle",
            lambda a, hits: {
                "tuples": perm(len(a["points"]), a["pattern"].m),
                "instances": len(hits),
            },
        ),
        (export, "write_points_exact"): (
            "export.points_write",
            lambda a, _: {"points": len(a["state"].levels[-1].lowers)},
        ),
        (export, "read_points"): ("export.points_read", None),
        (apps, "run_app"): ("apps.run_app", None),
    }
    for (mod, name), (span, attrs) in hooks.items():
        setattr(mod, name, traced(tracer, span, getattr(mod, name), attrs))
    engine.build_tree = traced_build_tree(tracer)


def main(argv: list[str]) -> int:
    steps_path, spans_path = argv
    with open(steps_path, encoding="utf-8") as fh:
        steps = json.load(fh)
    tracer = Tracer()
    install_hooks(tracer)
    status = 0
    try:
        for cli_args, want_code in steps:
            gc.collect()
            with tracer.span(f"step.{cli_args[0]}"):
                code = cli.main(cli_args)
            if code != want_code:
                print(f"{cli_args[0]}: exit {code}, expected {want_code}", file=sys.stderr)
                status = 1
    finally:
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
