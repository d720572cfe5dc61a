"""The one reader and the one writer of JSON files (indent 1, UTF-8,
trailing newline on write), and the one check of an integer field and of a
list field in them."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError


def read_json(path: str | Path) -> object:
    """The document in a JSON file; FormatError if it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError and UnicodeDecodeError, or nesting past the decoder
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path} is not a JSON file: {exc}") from exc


def write_json(doc: object, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def int_field(value: object, what: str, low: int | None = None) -> int:
    """value if it is a JSON integer (not a bool), and >= low if given."""
    if type(value) is not int or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise FormatError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def list_field(value: object, what: str, length: int | None = None) -> list:
    """value if it is a JSON list (of the given length); strings and objects
    fail."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length}"
        raise FormatError(f"{what} must be a list{size}, got {value!r}")
    return value
