"""Deterministic report rendering.

Documents are plain dict/list/scalar trees in insertion order.  The
JSON encoder keeps that order, renders exact rationals as "num/den"
strings, and formats floats with 17 significant digits so identical
runs produce identical bytes.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from ._lazy_numpy import np


class IoError(OSError):
    pass


def rational_text(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _float_text(x: float) -> str:
    out = "%.17g" % x
    if out[-1] in "fn":  # inf, -inf or nan: JSON has no literals for these
        return f'"{x!r}"'
    return out


def _escape(s: str) -> str:
    """A JSON string literal in ASCII: non-ASCII characters become escapes.
    Printable ASCII with no quote or backslash needs none."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

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
    if isinstance(value, dict):
        return _dict_text(value, pad, {})
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        kind = kinds.pop() if len(kinds) == 1 else None
        # one type: one join, with no dispatch per element (witness blocks run to
        # 10**5 indices, stage tables to n_max rows, which share their key texts)
        text = (functools.partial(_dict_text, pad=inner, templates={}) if kind is dict
                else _SCALAR_TEXT.get(kind) or functools.partial(_text, pad=inner))
        texts = map(text, value)
        if kind in (dict, Fraction, float) and any(map(operator.is_, value, value[1:])):
            # a list with an object next to itself (stage rows, or the defects the
            # stages of one ratio share) formats each object once, by its identity
            memo = {k: text(v) for k, v in dict(zip(map(id, value), value)).items()}
            texts = map(memo.__getitem__, map(id, value))
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"
    if getattr(value, "ndim", 0) == 1 and value.dtype.kind == "i":
        return _index_array_text(value, pad)
    for base in (Fraction, int, float, str):
        # a subclass (a numpy float) takes its base's text
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


def _index_array_text(v, pad: str) -> str:
    """The text of a 1-D integer array, as of the list of its ints: from 64
    ascending non-negative ints on (witness blocks), one byte matrix of
    separator and digit rows per run of equal digit count, cut by searching
    the powers of 10, its digits peeled off by division by 10."""
    if v.size < 64 or v[0] < 0 or not (v[1:] >= v[:-1]).all():
        return _text(v.tolist(), pad)
    sep = np.frombuffer((",\n" + pad + "  ").encode("ascii"), dtype=np.uint8)
    powers = 10 ** np.arange(1, 19, dtype=np.int64)  # an int64 has at most 19 digits
    cuts = [0, *np.searchsorted(v, powers).tolist(), v.size]
    runs = []
    for digits, (i, j) in enumerate(zip(cuts, cuts[1:]), 1):
        if i < j:
            rows = np.repeat(np.append(sep, np.zeros(digits, np.uint8))[None], j - i, axis=0)
            x = v[i:j].astype(np.int32 if digits < 10 else np.int64)  # narrow divides faster
            for col in range(sep.size + digits - 1, sep.size - 1, -1):  # from the last digit
                q = x // 10
                rows[:, col] = x - q * 10 + 48
                x = q
            if not runs:
                rows[0, 0] = ord("[")  # the list opens where the first separator would be
            runs.append(rows.tobytes())
    return b"".join(runs).decode("ascii") + "\n" + pad + "]"


def _dict_text(row: dict, pad: str, templates: dict) -> str:
    """The JSON text of a dict at pad, with the key texts of its order of keys
    from ``templates`` (one per list of rows), and its first value formatted
    once where it repeats."""
    if not row:
        return "{}"
    inner, keys = pad + "  ", tuple(row)
    heads = templates.get(keys)
    if heads is None:
        heads = templates[keys] = ["\n" + inner + _escape(str(k)) + ": " for k in keys]
    first = next(iter(row.values()))
    lead = _text(first, inner)
    return ("{" + ",".join([h + (lead if v is first else _text(v, inner))
                            for h, v in zip(heads, row.values())]) + "\n" + pad + "}")


def to_json_bytes(doc) -> bytes:
    return (_text(doc, "") + "\n").encode("ascii")


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
