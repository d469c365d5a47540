"""Deterministic JSON emission with full-precision floats.

The stock ``json`` module renders floats with ``repr``, which is already
round-trip safe but varies in width.  File formats in this package pin
doubles to 17 significant digits so that emitted artifacts are byte-stable
across platforms and runs.  Parsing uses the stock module.

Values whose exact type is ``str``, ``float``, ``int``, ``bool`` or ``None``
are emitted before any ``isinstance`` test; subclasses such as ``np.float64``
and ``IntEnum`` members are emitted as the type they extend.  Keys and
strings are escaped by ``json.encoder.encode_basestring_ascii``, the
function ``json.dumps`` calls for a string under its default
``ensure_ascii``, so the text is the stock module's.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(x, ".17g")
    return text


def _emit(obj, pad: str) -> str:
    """The JSON text of ``obj`` at indentation ``pad``; its items indent one
    step further."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is float:
        return format_float(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    # subclasses, such as np.float64 and IntEnum members, by what they extend
    # (bool has none)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
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
        items = [_emit(v, inner) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if len(obj) == 0:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{inner}{_quote(key)}: {_emit(value, inner)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to deterministic JSON text, indented by two spaces per
    level (trailing newline included)."""
    return _emit(obj, "") + "\n"


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
