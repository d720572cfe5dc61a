"""Command-line surface.

Subcommands: build, certify, export, app, oracle.  Exit codes follow a
fixed contract: 0 = everything certified / no instance found, 1 = an
instance was found or a certificate failed, 2 = usage or configuration
error (errors.UsageError, argument errors included, or an OSError).
Failures emit a JSON error envelope on stderr for machine use.

run() is the process entry (the console script and `python -m lacuna.cli`):
it calls main(), flushes the standard streams and ends the process without
interpreter teardown.  main(argv) is the in-process API, and returns the
exit code.

Each command imports the layers it runs (engine, apps, certify, export,
svg) itself, so a step loads no module it does not use: the oracle, for
one, loads no engine, schedule or gauge code.  Deeper down the same holds,
since every module a step loads is compiled in that step when no bytecode
cache is written.  Each of these is imported only by the code paths that
call it:

* the schedule walk (lacuna.schedule): build and app, through
  engine.build; certify and export read the schedule's records from
  engine and never walk it;
* the tree reader (lacuna.reader): certify and export, through
  engine.read_tree;
* the cube geometry (lacuna.geometry): the steps that make levels,
  certify (but in mode measure), export and app, never build;
* the ln series (lacuna.lnexp): a powlog gauge that is evaluated (build
  past depth 0, certify's measure) and the difference app, so export, a
  depth-0 build and certify --mode gap load no lnexp; the difference
  app's exp series is in lacuna.differences;
* the SVG writer (lacuna.svg): export --format svg, and the points and
  CSV writers (lacuna.export) every other export;
* the difference and complex-triplet apps (lacuna.differences,
  lacuna.triplets): their app kinds;
* the usage text of -h/--help (lacuna.usage): -h and --help.

Commands reach layer functions through module attributes
(engine.build_tree, certify.certify_tree, ...).

The argument grammar is one table, COMMANDS, that parse_args reads with
argparse's rules: options before or after the positionals, a unique
prefix of a long option selects it, `--opt=value` works, the last of a
repeated option wins, and a value that starts with a dash must look like
a negative number.  argparse itself is not imported: its import and
parser set-up (gettext, locale, compiled regexes) cost about 5 ms in
every step, as much as the work of an oracle step.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from .errors import EntryNotProcessed, FormatError, LacunaError, UsageError
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
        f"built d={d} depth={args.depth}: {state.expected_count(state.depth)} leaf cubes, "
        f"{len(state.entries)} schedule entries -> {args.out}"
    )
    return 0


def cmd_certify(args) -> int:
    from . import certify, engine

    state = engine.read_tree(args.tree)
    if not state.entries:
        # exit 0 means everything certified; with no entry nothing is, so
        # the recipe alone refuses the tree, before any level is made
        raise EntryNotProcessed("no avoidance level was processed; build deeper")
    gaps, measure = certify.certify_tree(state, args.mode, args.spot_checks)
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
    from . import engine

    state = engine.read_tree(args.tree)
    if args.format == "svg":
        from . import svg

        svg.write_svg(state, args.out)
    else:
        from . import export

        if args.format == "points":
            export.write_points_exact(state, args.out)
        else:
            export.write_points_csv(state, args.out, decimals=args.decimals)
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

    d, den, points = export.read_points(args.points)
    pat_d, patterns = load_patterns(args.patterns)
    if pat_d != d:
        raise FormatError(f"points are d={d} but patterns are d={pat_d}")
    tol = parse_rational(args.tol)
    if tol < 0:
        raise UsageError(f"--tol must be >= 0, got {args.tol}")
    runs = []
    total = 0
    for pid, pattern in enumerate(patterns):
        hits = certify.brute_oracle(points, pattern, tol * den)
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
    becomes a UsageError in parse_args, before any command opens a file."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


#: Marks an option that has no default and must be given.
_REQUIRED = object()

#: The argument grammar, one row per command: its function, help line,
#: positional names and options.  An option maps to (type, default, help):
#: the type converts the value (a ValueError refuses it) or is the tuple
#: of the values allowed, and a default of _REQUIRED makes it required.
COMMANDS = {
    "build": (cmd_build, "build a tree from a pattern file", ("patterns",), {
        "--dimfn": (str, _REQUIRED, "gauge, e.g. pow:1/2 or powlog:1/1"),
        "--depth": (_non_negative_int, _REQUIRED, ""),
        "--out": (str, "tree.json", ""),
    }),
    "certify": (cmd_certify, "re-derive certificates from a tree file", ("tree",), {
        "--mode": (("gap", "measure", "all"), "all", ""),
        "--out": (str, None, ""),
        "--spot-checks": (_non_negative_int, 0,
                          "random point tuples per entry that must respect the gap"),
    }),
    "export": (cmd_export, "export points or pictures", ("tree",), {
        "--format": (("svg", "csv", "points"), _REQUIRED, ""),
        "--out": (str, _REQUIRED, ""),
        "--decimals": (_non_negative_int, 12, ""),
    }),
    "app": (cmd_app, "run an application spec end to end", ("spec",), {
        "--out-dir": (str, "app-out", ""),
    }),
    "oracle": (cmd_oracle, "exhaustive pattern search over a point file", ("points",), {
        "--patterns": (str, _REQUIRED, ""),
        "--tol": (str, "0", ""),
        "--out": (str, None, ""),
    }),
}

_HELP = ("-h", "--help")


def _option(arg: str, names) -> tuple[str, str | None] | None:
    """How argparse reads one argument against the option names of a
    command: None for a value, else the option and the value after its
    '=' (None without one).  A long option may be cut to a unique prefix.
    An argument that starts with a dash is a value only if it looks like a
    negative number or holds a space; otherwise it is an option, and one
    that is not in names comes back as itself."""
    if len(arg) < 2 or arg[0] != "-":
        return None
    if arg in names:
        return arg, None
    key, eq, value = arg.partition("=")
    if eq and key in names:
        return key, value
    if arg[1] == "-":
        hits = [name for name in names if name.startswith(key)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {key} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return arg, None


def _print_usage(command: str | None) -> None:
    """Print the usage of a command (None: of lacuna) and exit 0.  The
    usage text is built in lacuna.usage, which no other step loads."""
    from .usage import usage

    print(usage(COMMANDS, command, _REQUIRED))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv by COMMANDS, as argparse read it: options before or after
    the positionals, `--opt value` or `--opt=value`, a unique prefix of a
    long option, the last of a repeated option.  Returns the command's
    function as `func`, its name as `command` and one attribute per
    positional and option.  Every argument error raises UsageError;
    -h/--help prints the usage to stdout and exits 0."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        opt = _option(command, _HELP)
        if opt and opt[0] in _HELP:
            _print_usage(None)
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    func, _, positionals, options = COMMANDS[command]
    names = [*options, *_HELP]
    args = {"command": command, "func": func}
    given = []
    rest = iter(argv[1:])
    for arg in rest:
        opt = _option(arg, names)
        if opt is None:
            given.append(arg)
            continue
        name, value = opt
        if name in _HELP:
            _print_usage(command)
        if name not in options:
            raise UsageError(f"unrecognized argument: {arg}")
        if value is None:
            value = next(rest, None)
            if value is None or _option(value, names):
                raise UsageError(f"argument {name}: expected one value")
        kind = options[name][0]
        if isinstance(kind, tuple):
            if value not in kind:
                raise UsageError(f"argument {name}: {value!r} is not one of {', '.join(kind)}")
        else:
            try:
                value = kind(value)
            except ValueError as exc:
                raise UsageError(f"argument {name}: {exc}") from None
        args[name[2:].replace("-", "_")] = value
    if len(given) != len(positionals):
        raise UsageError(f"lacuna {command} takes {' '.join(positionals)}, got {given}")
    args.update(zip(positionals, given))
    for name, (_, default, _) in options.items():
        dest = name[2:].replace("-", "_")
        if dest not in args:
            if default is _REQUIRED:
                raise UsageError(f"lacuna {command} needs {name}")
            args[dest] = default
    return SimpleNamespace(**args)


def _emit_error(exc: Exception) -> None:
    """The JSON error envelope on stderr.  With stderr closed (None) it is
    dropped rather than left to print's fallback, stdout.  A stderr that
    fails the write (a pipe with no reader) is dropped as if closed, so
    neither the write nor run()'s flush changes the command's exit code."""
    if sys.stderr is not None:
        envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        try:
            print(json.dumps(envelope), file=sys.stderr)
        except OSError:
            sys.stderr = None


def main(argv=None) -> int:
    """Run one command from argv (default sys.argv[1:]) and return its exit
    code.  The in-process API: it never ends the process, except that
    -h/--help raises SystemExit(0)."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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


def run() -> None:
    """The process entry of the console script and of `python -m lacuna.cli`.

    Runs main(), flushes stdout and stderr and ends the process with
    os._exit, skipping the interpreter teardown, which frees every module
    and object one by one.  Every file a command writes is closed by its
    `with` block before main returns, so the flush is all that teardown
    would still do.  A stream may be None (a closed descriptor); one whose
    flush fails (a pipe with no reader) falls back to sys.exit, so the
    interpreter reports the error and sets the exit code as it always did.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
