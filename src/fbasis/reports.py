"""Deterministic report rendering.

Documents are plain dict/list/scalar trees in insertion order.  The
JSON encoder keeps that order, renders exact rationals as "num/den"
strings, and formats floats with 17 significant digits so identical
runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class IoError(OSError):
    pass


def rational_text(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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


def _encode(value, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, Fraction):
        pieces.append(_escape(rational_text(value)))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        pieces.append(_float_text(value))
    elif isinstance(value, str):
        pieces.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            pieces.append(pad + "  " + _escape(str(k)) + ": ")
            _encode(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(value) else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            pieces.append("[]")
            return
        if all(type(v) is int for v in seq):
            # the loop below, joined at once: witness blocks run to 10**5 indices
            pieces.append("[\n" + pad + "  " + (",\n" + pad + "  ").join(map(str, seq))
                          + "\n" + pad + "]")
            return
        pieces.append("[\n")
        for i, v in enumerate(seq):
            pieces.append(pad + "  ")
            _encode(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(seq) else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot encode {type(value).__name__} in a report")


def to_json_bytes(doc) -> bytes:
    pieces: list[str] = []
    _encode(doc, 0, pieces)
    pieces.append("\n")
    return "".join(pieces).encode("ascii")


def table_to_csv_bytes(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Fraction):
                cells.append(rational_text(cell))
            elif isinstance(cell, float):
                cells.append(format(cell, ".17g"))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")


def emit_report(doc, fmt: str = "json") -> bytes:
    """Render a report document; CSV only for table-shaped documents."""
    if fmt == "json":
        return to_json_bytes(doc)
    if fmt == "csv":
        if isinstance(doc, dict) and "header" in doc and "rows" in doc:
            return table_to_csv_bytes(doc["header"], doc["rows"])
        raise IoError("this document has no CSV form")
    raise IoError(f"unknown format {fmt!r}")
