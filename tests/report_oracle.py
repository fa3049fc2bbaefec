"""The report encoder ``reports._text`` as it was before lists of dicts were
rendered through one row template: every dict escapes each of its keys
and formats each of its values.  The function and the scalar table it
dispatches on are the package's old ones, unedited; only the imports are
new.  Every document must render to the same bytes with both.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from fbasis.reports import rational_text


def _float_text(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        # JSON has no literals for these; keep them as strings
        return f'"{x!r}"'
    out = format(float(x), ".17g")
    return out


def _escape(s: str) -> str:
    """A JSON string literal in ASCII: non-ASCII characters become escapes.
    Printable ASCII with no quote or backslash needs none."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return json.dumps(s)


def _fraction_text(x: Fraction) -> str:
    return '"' + rational_text(x) + '"'


# the text of each scalar, by exact type (a bool is no int here)
_SCALAR_TEXT = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    Fraction: _fraction_text,
    int: str,
    float: _float_text,
    str: _escape,
}


def _text(value, pad: str) -> str:
    """The JSON text of ``value``, whose lines past the first start with pad."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + ",".join("\n" + inner + _escape(str(k)) + ": " + _text(v, inner)
                               for k, v in value.items())
                + "\n" + pad + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        # one scalar type: one join, with no dispatch per element (witness
        # blocks run to 10**5 indices, stage tables to n_max rationals)
        texts = map(text, value) if text else (_text(v, inner) for v in value)
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"
    for base in (Fraction, int, float, str):
        # a subclass (a numpy float) takes its base's text
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"cannot encode {type(value).__name__} in a report")
