"""Deterministic JSON output with fixed floating-point formatting.

Floats are rendered with 17 significant digits so every value round-trips
exactly and repeated runs produce byte-identical artifacts.  Negative zero
is written -0.0: a JSON reader parses the "-0" of 17-digit formatting as
the integer 0, which loses the sign.
"""

from __future__ import annotations

import json
from typing import Any


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float not representable in JSON: {x}")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def dumps(obj: Any, indent: int = 2) -> str:
    out: list[str] = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{close_pad}}}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad)
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(f"{close_pad}]")
    else:
        raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")
