"""The one writer of JSON files: indent 1, UTF-8, trailing newline."""

from __future__ import annotations

import json
from pathlib import Path


def write_json(doc: object, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
