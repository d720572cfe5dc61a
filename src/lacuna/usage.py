"""The text of `lacuna --help` and `lacuna <command> --help`.

Rendered from the command table cli.COMMANDS, which the caller passes in
with its marker of a required option.  Only -h/--help imports this module,
so no other step compiles it.
"""

from __future__ import annotations

_DESCRIPTION = (
    "Build nested cube sets in [1,2]^d that avoid linear patterns, "
    "with exact rational certificates for the avoidance gaps and the "
    "generalized Hausdorff measure lower bound."
)


def usage(commands: dict, command: str | None, required: object) -> str:
    """The usage of one command of the table, or with None of lacuna and
    all its commands; an option whose default is `required` must be given."""
    if command is None:
        rows = [f"  {name:<8} {row[1]}" for name, row in commands.items()]
        return "\n".join(
            [f"usage: lacuna {{{','.join(commands)}}} ...", "", _DESCRIPTION, "", *rows]
        )
    _, about, positionals, options = commands[command]
    words, rows = ["lacuna", command, *positionals], []
    for name, (kind, default, text) in options.items():
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper()
        words.append(f"{name} {value}" if default is required else f"[{name} {value}]")
        if default is not None:
            note = "required" if default is required else f"default: {default}"
            text += f"; {note}" if text else note
        rows.append(f"  {name:<14} {text}".rstrip())
    rows.append(f"  {'-h, --help':<14} show this help and exit")
    return "\n".join(["usage: " + " ".join(words), "", about, "", *rows])
