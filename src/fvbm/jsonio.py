"""Deterministic JSON emission with full-precision floats.

The stock ``json`` module renders floats with ``repr``, which is already
round-trip safe but varies in width.  File formats in this package pin
doubles to 17 significant digits so that emitted artifacts are byte-stable
across platforms and runs.  Parsing uses the stock module.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(x, ".17g")
    return text


def _emit(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(type(v) is float for v in obj):
            # a vector of doubles, checked and formatted in one pass each;
            # format_float raises for the first non-finite one
            if not all(map(math.isfinite, obj)):
                format_float(next(v for v in obj if not math.isfinite(v)))
            body = (",\n" + inner).join(map("{:.17g}".format, obj))
            return "[\n" + inner + body + "\n" + pad + "]"
        items = [_emit(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if len(obj) == 0:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{inner}{json.dumps(key)}: {_emit(value, level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to deterministic JSON text, indented by two spaces per
    level (trailing newline included)."""
    return _emit(obj, 0) + "\n"


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
