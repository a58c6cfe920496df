"""Deterministic JSON output with fixed floating-point formatting.

Floats are rendered with 17 significant digits so every value round-trips
exactly and repeated runs produce byte-identical artifacts.  Negative zero
is written -0.0: a JSON reader parses the "-0" of 17-digit formatting as
the integer 0, which loses the sign.  A str, and every key as str(key), is
written by json.encoder.encode_basestring_ascii, the function json.dumps
calls for a str; None, bool and int are written by json.dumps.

dumps writes in one pass: each value appends its pieces to one list, which
is joined once.  An exact float or str is recognised by its type before
any isinstance test; a subclass of either takes the isinstance path and is
written the same way.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

#: Spaces per nesting level of dumps' output.
INDENT = 2


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float not representable in JSON: {x}")
    text = f"{x:.17g}"
    return "-0.0" if text == "-0" else text


def dumps(obj: Any) -> str:
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, newline: str, out: list[str]) -> None:
    # append obj's text to out; newline is the line break and indent of
    # obj's own line, which its closing bracket repeats and its children
    # indent one level
    kind = type(obj)
    if kind is float:
        out.append(format_float(obj))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif obj is None or isinstance(obj, (int, str)):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + " " * INDENT
        separator = "{" + inner
        for key, value in obj.items():
            out.append(separator)
            out.append(encode_basestring_ascii(str(key)))
            out.append(": ")
            _write(value, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + " " * INDENT
        separator = "[" + inner
        for value in obj:
            out.append(separator)
            _write(value, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")
