"""Deterministic JSON output with fixed floating-point formatting.

Floats are rendered with 17 significant digits so every value round-trips
exactly and repeated runs produce byte-identical artifacts.  Negative zero
is written -0.0: a JSON reader parses the "-0" of 17-digit formatting as
the integer 0, which loses the sign.  Every other scalar is written by
json.dumps.
"""

from __future__ import annotations

import json
import math
from typing import Any

#: Spaces per nesting level of dumps' output.
INDENT = 2


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float not representable in JSON: {x}")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def dumps(obj: Any) -> str:
    return _encode(obj, "\n") + "\n"


def _encode(obj: Any, newline: str) -> str:
    # obj's text; newline is the line break and indent of obj's own line,
    # which its closing bracket repeats and its children indent one level
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    inner = newline + " " * INDENT
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(key))}: {_encode(value, inner)}" for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode(value, inner) for value in obj]
        brackets = "[]"
    else:
        raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
