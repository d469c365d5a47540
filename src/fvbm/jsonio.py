"""JSON files of the package: one line, floats as their shortest repr.

``json.dumps`` writes each float as its shortest round-trip ``repr``, which
reads back as the same double and is the same text on every IEEE-754
platform, so files read back exactly and are byte-stable.  A NaN or an
infinity anywhere is a ``ValueError``.  ``python -m json.tool FILE`` prints
a file indented.
"""

from __future__ import annotations

import json
from pathlib import Path


def dumps(obj) -> str:
    """Serialize to one line of JSON text, trailing newline included."""
    return json.dumps(obj, allow_nan=False) + "\n"


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
