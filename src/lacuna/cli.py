"""Command-line surface.

Subcommands: build, certify, export, app, oracle.  Exit codes follow a
fixed contract: 0 = everything certified / no instance found, 1 = an
instance was found or a certificate failed, 2 = usage or configuration
error (errors.UsageError, argument errors included, or an OSError).
Failures emit a JSON error envelope on stderr for machine use.

Each command imports the layers it runs (engine, apps, certify, export)
itself, so a step loads no module it does not use: the oracle, for one,
loads no engine, schedule or gauge code.  Commands reach layer functions
through module attributes (engine.build_tree, certify.certify_gap, ...).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FormatError, LacunaError, UsageError
from .jsonfile import read_json, write_json
from .pattern import load_patterns
from .qmath import parse_rational


def cmd_build(args) -> int:
    from . import engine
    from .dimfn import parse_dimfn

    d, patterns = load_patterns(args.patterns)
    h = parse_dimfn(args.dimfn, d)
    state = engine.build_tree(d, patterns, h, args.depth)
    engine.write_tree(state, args.out)
    print(
        f"built d={d} depth={args.depth}: {state.count(state.depth)} leaf cubes, "
        f"{len(state.entries)} schedule entries -> {args.out}"
    )
    return 0


def cmd_certify(args) -> int:
    from . import certify, engine

    state = engine.read_tree(args.tree)
    gaps = []
    measure = None
    engine.validate_structure(state)
    if args.mode in ("all", "gap"):
        for entry in state.entries:
            cert = certify.certify_gap(state, entry)
            if args.spot_checks:
                certify.spot_check_gap(state, entry, cert, count=args.spot_checks)
            gaps.append(cert)
    if args.mode in ("all", "measure"):
        measure = certify.certify_measure(state)
    if args.out:
        write_json(certify.certificates_to_doc(gaps, measure), args.out)
    for g in gaps:
        print(f"gap entry {g.entry_index}: |psi| >= {g.gap} (threshold {g.threshold})")
    if measure is not None:
        print(
            f"measure: H^h lower bound {measure.lower_bound} "
            f"(levels {measure.k0}..{measure.depth} all pass)"
        )
    return 0


def cmd_export(args) -> int:
    from . import engine, export

    state = engine.read_tree(args.tree)
    if args.format == "points":
        export.write_points_exact(state, args.out)
    elif args.format == "csv":
        export.write_points_csv(state, args.out, decimals=args.decimals)
    elif args.format == "svg":
        export.write_svg(state, args.out)
    else:  # pragma: no cover - argparse restricts choices
        raise FormatError(f"unknown format {args.format!r}")
    print(f"wrote {args.format} -> {args.out}")
    return 0


def cmd_app(args) -> int:
    from . import apps

    spec = apps.app_spec_from_doc(read_json(args.spec))
    summary = apps.run_app(spec, args.out_dir)
    print(json.dumps(summary, indent=1))
    return 0


def cmd_oracle(args) -> int:
    from . import certify, export

    d, points = export.read_points(args.points)
    pat_d, patterns = load_patterns(args.patterns)
    if pat_d != d:
        raise FormatError(f"points are d={d} but patterns are d={pat_d}")
    tol = parse_rational(args.tol)
    if tol < 0:
        raise UsageError(f"--tol must be >= 0, got {args.tol}")
    runs = []
    total = 0
    for pid, pattern in enumerate(patterns):
        hits = certify.brute_oracle(points, pattern, tol)
        total += len(hits)
        runs.append(
            {
                "pattern_id": pid,
                "tolerance": args.tol,
                "points": len(points),
                "instances": [list(h) for h in hits],
            }
        )
    if args.out:
        write_json({"format": "lacuna-oracle/1", "runs": runs}, args.out)
    for run in runs:
        print(f"pattern {run['pattern_id']}: {len(run['instances'])} instance(s)")
    return 1 if total else 0


def _non_negative_int(text: str) -> int:
    """The type of --depth, --spot-checks and --decimals.  A bad value
    becomes a UsageError through _Parser.error, before any command opens
    a file."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument error raises UsageError, so it gets the JSON envelope
    and exit 2 like every other usage error; subparsers inherit this."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lacuna",
        description=(
            "Build nested cube sets in [1,2]^d that avoid linear patterns, "
            "with exact rational certificates for the avoidance gaps and the "
            "generalized Hausdorff measure lower bound."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a tree from a pattern file")
    b.add_argument("patterns", help="pattern JSON file")
    b.add_argument("--dimfn", required=True, help="gauge, e.g. pow:1/2 or powlog:1/1")
    b.add_argument("--depth", type=_non_negative_int, required=True)
    b.add_argument("--out", default="tree.json")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("certify", help="re-derive certificates from a tree file")
    c.add_argument("tree")
    c.add_argument("--mode", choices=("gap", "measure", "all"), default="all")
    c.add_argument("--out", default=None)
    c.add_argument("--spot-checks", type=_non_negative_int, default=0,
                   help="random point tuples per entry that must respect the gap")
    c.set_defaults(func=cmd_certify)

    e = sub.add_parser("export", help="export points or pictures")
    e.add_argument("tree")
    e.add_argument("--format", choices=("svg", "csv", "points"), required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--decimals", type=_non_negative_int, default=12)
    e.set_defaults(func=cmd_export)

    a = sub.add_parser("app", help="run an application spec end to end")
    a.add_argument("spec")
    a.add_argument("--out-dir", default="app-out")
    a.set_defaults(func=cmd_app)

    o = sub.add_parser("oracle", help="exhaustive pattern search over a point file")
    o.add_argument("points")
    o.add_argument("--patterns", required=True)
    o.add_argument("--tol", default="0")
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)
    return p


def _emit_error(exc: Exception) -> None:
    envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(envelope), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _emit_error(exc)
        return 2
    except LacunaError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
