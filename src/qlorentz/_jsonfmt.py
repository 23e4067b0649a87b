"""Deterministic JSON emission: fixed field order, floats rendered %.17g.

The stdlib encoder renders floats with repr(); reports promise a fixed
full-precision format instead, so this tiny emitter owns the byte layout.
Dict insertion order is the field order.  %.17g round-trips every double.
The indented layout puts every member on its own line, two spaces per
level, and is written in the same single pass as the compact one.
"""

from __future__ import annotations

import math
import re

__all__ = ["dumps"]

_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape_char(m: re.Match) -> str:
    ch = m.group()
    if ch in '"\\':
        return "\\" + ch
    return "\\u%04x" % ord(ch)


def _escape(s: str) -> str:
    return _NEEDS_ESCAPE.sub(_escape_char, s) if _NEEDS_ESCAPE.search(s) else s


def _emit(obj, parts: list[str], pad: str | None) -> None:
    """Append the JSON of obj; pad is the newline plus indentation of obj's
    own line in the indented layout, None in the compact one."""
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(f'"{_escape(obj)}"')
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in report: {obj}")
        parts.append("%.17g" % obj)
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, parts, pad)
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        inner = None if pad is None else pad + "  "
        sep = "," if pad is None else "," + inner
        parts.append(("{" if is_dict else "[") + ("" if pad is None else inner))
        colon = ":" if pad is None else ": "
        for i, item in enumerate(obj.items() if is_dict else obj):
            if i:
                parts.append(sep)
            if is_dict:
                parts.append(f'"{_escape(str(item[0]))}"{colon}')
                item = item[1]
            _emit(item, parts, inner)
        parts.append(("" if pad is None else pad) + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: bool = False) -> str:
    parts: list[str] = []
    _emit(obj, parts, "\n" if indent else None)
    return "".join(parts)
