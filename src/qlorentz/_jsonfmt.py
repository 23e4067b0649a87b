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


def _quote(s: str) -> str:
    # printable ASCII needs an escape only for a quote or a backslash
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return f'"{_NEEDS_ESCAPE.sub(_escape_char, s)}"'


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in report: {x}")
    return "%.17g" % x


def _scalar(obj) -> str | None:
    """The JSON of a scalar, or None for a container (complex included)."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (complex, dict, list, tuple)):
        return None
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj, pad: str | None, put, keys: dict[str, str]) -> None:
    """Append (`put`) the JSON of obj; pad is the newline plus indentation of
    obj's own line in the indented layout, None in the compact one; keys maps
    each str key met so far to its quoted form and colon.  Values of the
    exact types str, float, int, bool, dict, list and tuple are dispatched
    by type; others (None, subclasses such as numpy scalars, complex) go
    through `_scalar`'s isinstance chain."""
    t = type(obj)
    is_dict = t is dict
    if not (is_dict or t is list or t is tuple):
        text = _scalar(obj)
        if text is not None:
            put(text)
            return
        if isinstance(obj, complex):
            obj = {"re": obj.real, "im": obj.imag}
        is_dict = isinstance(obj, dict)
    inner = None if pad is None else pad + "  "
    sep = "," if pad is None else "," + inner
    put(("{" if is_dict else "[") + ("" if pad is None else inner))
    first = True
    for item in obj.items() if is_dict else obj:
        if first:
            first = False
        else:
            put(sep)
        if is_dict:
            key, item = item
            quoted = keys.get(key) if type(key) is str else None
            if quoted is None:
                quoted = _quote(str(key)) + (":" if pad is None else ": ")
                if type(key) is str:
                    keys[key] = quoted
            put(quoted)
        t = type(item)
        if t is str:
            put(_quote(item))
        elif t is float:
            put(_float(item))
        elif t is int:
            put(str(item))
        elif t is bool:
            put("true" if item else "false")
        else:
            _emit(item, inner, put, keys)
    put(("" if pad is None else pad) + ("}" if is_dict else "]"))


def dumps(obj, indent: bool = False) -> str:
    parts: list[str] = []
    _emit(obj, "\n" if indent else None, parts.append, {})
    return "".join(parts)
